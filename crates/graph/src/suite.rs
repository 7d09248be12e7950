//! Synthetic analogs of the paper's input-graph suite (Tables III and IV).
//!
//! The paper evaluates on 29 SuiteSparse matrices. Those files are not
//! bundled here, so each matrix is replaced by a generated analog matched
//! on (a) its structural family — road network / census tract / OSM map /
//! FEM-stiffness / web-or-biology — (b) its vertex count, and (c) its
//! average degree. Family determines separator behaviour: geometric and
//! grid analogs keep the `O(√n)` separators of the paper's
//! "small separator" class, banded-with-fill and R-MAT analogs keep the
//! large boundary sets of the "other sparse" class.
//!
//! **Scaling.** At paper scale the output matrix of the smallest graph is
//! ~19 GB; a laptop-scale run divides `n` by [`SuiteConfig::scale`]
//! (default 16) and divides `m` by the same factor, preserving average
//! degree and separator character. Density then *rises* by the scale
//! factor, so the selector's absolute density thresholds must be scaled by
//! the same factor — the harness does this via the selector's
//! configuration; see `apsp-core`.

use crate::generators::{
    banded, gnm_expected, grid_2d, radius_for_avg_degree, random_geometric, rmat, GridOptions,
    RmatParams, WeightRange,
};
use crate::{fnv1a, CsrGraph, FNV_OFFSET_BASIS};

/// Structural family used to synthesize an analog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Random geometric graph (road networks, census tracts) —
    /// small separator.
    Geometric,
    /// Thinned 2-D grid (OSM street maps) — small separator.
    GridRoad,
    /// Banded matrix with random fill (FEM / structural matrices) —
    /// large separator.
    Banded,
    /// R-MAT scale-free (web graphs, `cage`-style biology matrices) —
    /// large separator.
    Rmat,
    /// Erdős–Rényi (fallback for matrices without clear structure) —
    /// large separator.
    Random,
}

/// One row of Table III or Table IV.
#[derive(Debug, Clone, Copy)]
pub struct SuiteEntry {
    /// SuiteSparse matrix name as printed in the paper (a few names are
    /// garbled in the source scan; the closest SuiteSparse name is used).
    pub name: &'static str,
    /// Paper-reported vertex count.
    pub n_paper: usize,
    /// Paper-reported edge count.
    pub m_paper: usize,
    /// Paper's "small separator?" classification (Table III column 2).
    pub small_separator: bool,
    /// Whether the n×n output fits in the host's RAM in the paper's setup
    /// (Table III yes, Table IV no).
    pub output_fits_host: bool,
    /// Generator family for the analog.
    pub family: Family,
}

/// Table III — the 19 graphs whose output fits in host memory.
pub const TABLE3: &[SuiteEntry] = &[
    // "Other sparse" graphs (FEM / structural / meshes): large separators.
    entry("pkustk14", 152_000, 14_988_000, false, true, Family::Banded),
    entry("SiO2", 155_000, 11_439_000, false, true, Family::Banded),
    entry("bmwcra_1", 149_000, 10_793_000, false, true, Family::Banded),
    entry("gearbox", 154_000, 9_234_000, false, true, Family::Banded),
    entry("oilpan", 74_000, 3_071_000, false, true, Family::Banded),
    entry("net4-1", 88_000, 2_530_000, false, true, Family::Random),
    entry("fe_tooth", 78_000, 905_000, false, true, Family::Banded),
    entry("onera_dual", 86_000, 505_000, false, true, Family::Banded),
    // "Small separator" graphs (roads, OSM, census tracts).
    // Road networks have degree ≈ 2.6 — far below the connectivity
    // threshold of a random geometric graph, which would shatter into
    // chained dust with vacuously small separators. Thinned grids keep
    // both the degree and the genuine O(√n) separator structure.
    entry("usroads-48", 126_000, 324_000, true, true, Family::GridRoad),
    entry("usroads", 129_000, 331_000, true, true, Family::GridRoad),
    entry(
        "luxembourg_osm",
        115_000,
        239_000,
        true,
        true,
        Family::GridRoad,
    ),
    // Census-tract adjacency graphs are planar (polygon adjacency);
    // near-planar thinned grids keep their thin O(√n) separators, which a
    // thick geometric disk graph would not.
    entry("ri2010", 86_000, 428_000, true, true, Family::GridRoad),
    entry("nm2010", 169_000, 831_000, true, true, Family::GridRoad),
    entry("ms2010", 70_000, 335_000, true, true, Family::GridRoad),
    entry("md2010", 145_000, 700_000, true, true, Family::GridRoad),
    entry("id2010", 150_000, 728_000, true, true, Family::GridRoad),
    entry("nd2010", 134_000, 626_000, true, true, Family::GridRoad),
    entry("nj2010", 170_000, 830_000, true, true, Family::GridRoad),
    entry("wv2010", 135_000, 663_000, true, true, Family::GridRoad),
];

/// Table IV — the 10 graphs whose output exceeds host memory.
pub const TABLE4: &[SuiteEntry] = &[
    entry(
        "af_shell1",
        505_000,
        18_094_000,
        false,
        false,
        Family::Banded,
    ),
    entry("cage13", 445_000, 7_479_000, false, false, Family::Rmat),
    entry("kim2", 457_000, 11_330_000, false, false, Family::Banded),
    entry("language", 256_000, 2_500_000, false, false, Family::Rmat),
    entry("pwtk", 218_000, 11_852_000, false, false, Family::Banded),
    entry("stanford", 282_000, 2_312_000, false, false, Family::Rmat),
    entry("stomach", 213_000, 3_022_000, false, false, Family::Banded),
    entry("troll", 213_000, 12_199_000, false, false, Family::Banded),
    entry("boyd2", 466_000, 1_780_000, false, false, Family::Rmat),
    entry("CO", 221_000, 7_887_000, false, false, Family::Banded),
];

const fn entry(
    name: &'static str,
    n_paper: usize,
    m_paper: usize,
    small_separator: bool,
    output_fits_host: bool,
    family: Family,
) -> SuiteEntry {
    SuiteEntry {
        name,
        n_paper,
        m_paper,
        small_separator,
        output_fits_host,
        family,
    }
}

/// Scaling configuration for analog generation.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// Divide paper `n` and `m` by this factor. 1 = paper scale.
    pub scale: usize,
    /// RNG seed base; each entry perturbs it by its index.
    pub seed: u64,
    /// Edge-weight range.
    pub weights: WeightRange,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            scale: 16,
            seed: 0xAB5F,
            weights: WeightRange::new(1, 100),
        }
    }
}

impl SuiteEntry {
    /// Scaled vertex count under `cfg`.
    pub fn scaled_n(&self, cfg: &SuiteConfig) -> usize {
        (self.n_paper / cfg.scale).max(64)
    }

    /// Scaled edge target under `cfg`.
    pub fn scaled_m(&self, cfg: &SuiteConfig) -> usize {
        let n = self.scaled_n(cfg);
        // Preserve the paper's average degree at the scaled vertex count.
        let avg_deg = self.m_paper as f64 / self.n_paper as f64;
        (avg_deg * n as f64) as usize
    }

    /// Generate the analog graph.
    pub fn generate(&self, cfg: &SuiteConfig) -> CsrGraph {
        let n = self.scaled_n(cfg);
        let m = self.scaled_m(cfg);
        let avg_deg = m as f64 / n as f64;
        let seed = cfg.seed ^ fnv1a(self.name.as_bytes(), FNV_OFFSET_BASIS);
        match self.family {
            Family::Geometric => {
                let r = radius_for_avg_degree(n, avg_deg.max(3.0));
                let g = random_geometric(n, r, cfg.weights, seed);
                // Road networks are connected; a sparse disk graph sheds
                // isolated pockets that must be chained back in.
                crate::generators::ensure_connected(&g, cfg.weights, seed ^ 0xC0)
            }
            Family::GridRoad => {
                let side = (n as f64).sqrt().round() as usize;
                // A 4-connected grid has ≈ 4 directed edges per vertex and
                // an 8-connected one ≈ 8; pick connectivity by the target
                // degree and delete down to it. The keep floor of 0.55
                // stays above the percolation threshold so a giant
                // component survives.
                let diagonals = avg_deg > 4.2;
                let full_deg = if diagonals { 8.0 } else { 4.0 };
                let keep = (avg_deg / full_deg).clamp(0.55, 1.0);
                let g = grid_2d(
                    side,
                    side.max(1),
                    GridOptions {
                        diagonals,
                        deletion_prob: 1.0 - keep,
                    },
                    cfg.weights,
                    seed,
                );
                crate::generators::ensure_connected(&g, cfg.weights, seed ^ 0xC1)
            }
            Family::Banded => {
                // Symmetrization doubles directed degree; band width wide
                // enough that k-way partitions cut many edges.
                let deg_band = ((avg_deg / 2.0).round() as usize).max(2);
                let bandwidth = (deg_band * 8).max(16);
                banded(n, bandwidth, deg_band, 0.3, cfg.weights, seed)
            }
            Family::Rmat => rmat(n, m, RmatParams::scale_free(), cfg.weights, seed),
            Family::Random => gnm_expected(n, m, cfg.weights, seed),
        }
    }
}

/// Entries of Table III with a small separator (the Fig 2 / Fig 6 / Fig 7
/// workload).
pub fn table3_small_separator() -> Vec<&'static SuiteEntry> {
    TABLE3.iter().filter(|e| e.small_separator).collect()
}

/// Entries of Table III without a small separator (the Fig 3 workload).
pub fn table3_other_sparse() -> Vec<&'static SuiteEntry> {
    TABLE3.iter().filter(|e| !e.small_separator).collect()
}

/// Look up an entry by name across both tables.
pub fn find(name: &str) -> Option<&'static SuiteEntry> {
    TABLE3.iter().chain(TABLE4.iter()).find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn table_sizes_match_paper() {
        assert_eq!(TABLE3.len(), 19);
        assert_eq!(TABLE4.len(), 10);
        assert_eq!(table3_small_separator().len(), 11);
        assert_eq!(table3_other_sparse().len(), 8);
    }

    #[test]
    fn generated_analog_matches_scaled_size() {
        let cfg = SuiteConfig {
            scale: 64,
            ..Default::default()
        };
        let e = find("usroads").unwrap();
        let g = e.generate(&cfg);
        let n = e.scaled_n(&cfg);
        // Grid analogs round n to a square; stay within a few percent.
        let dn = (g.num_vertices() as f64 - n as f64).abs() / n as f64;
        assert!(dn < 0.1, "vertex count off by {:.1}%", dn * 100.0);
        let target_deg = e.m_paper as f64 / e.n_paper as f64;
        let actual_deg = g.num_edges() as f64 / g.num_vertices() as f64;
        // The thinned-grid keep-floor (0.55) bounds degree from below;
        // usroads' paper degree is ~2.6.
        assert!(
            actual_deg > 1.5 && actual_deg < 2.0 * target_deg.max(2.2),
            "deg = {actual_deg}, target = {target_deg}"
        );
    }

    #[test]
    fn small_separator_analogs_are_sparser() {
        let cfg = SuiteConfig {
            scale: 128,
            ..Default::default()
        };
        let road = find("usroads").unwrap().generate(&cfg);
        let fem = find("pkustk14").unwrap().generate(&cfg);
        assert!(road.density() < fem.density());
    }

    #[test]
    fn all_entries_generate_at_tiny_scale() {
        let cfg = SuiteConfig {
            scale: 512,
            ..Default::default()
        };
        for e in TABLE3.iter().chain(TABLE4.iter()) {
            let g = e.generate(&cfg);
            assert!(g.num_vertices() >= 64, "{} too small", e.name);
            assert!(g.num_edges() > 0, "{} has no edges", e.name);
            g.check_invariants().unwrap();
        }
    }

    #[test]
    fn analogs_are_deterministic() {
        let cfg = SuiteConfig {
            scale: 256,
            ..Default::default()
        };
        let a = find("nj2010").unwrap().generate(&cfg);
        let b = find("nj2010").unwrap().generate(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn geometric_analogs_are_mostly_connected() {
        let cfg = SuiteConfig {
            scale: 64,
            ..Default::default()
        };
        let g = find("nm2010").unwrap().generate(&cfg);
        let comps = stats::connected_components(&g);
        // Random geometric graphs can shed a few isolated pockets; the
        // giant component must dominate.
        assert!(comps < g.num_vertices() / 20, "{comps} components");
    }

    #[test]
    fn find_handles_unknown() {
        assert!(find("nonexistent").is_none());
        assert!(find("troll").is_some());
    }
}

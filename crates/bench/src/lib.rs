//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section V) at a configurable scale.
//!
//! The paper's workloads are ~16–64× larger than a single host can
//! reasonably churn through a simulated device, so each experiment runs
//! at a default scale documented in DESIGN.md §7. Set `REPRO_SCALE` to
//! override every experiment's scale (larger = smaller/faster runs).
//!
//! Scaling rules (derived in DESIGN.md):
//! * graph `n` and `m` divide by `scale` (average degree preserved),
//! * device memory divides by `scale²` (output is n², so the out-of-core
//!   block/batch structure is preserved),
//! * fixed overheads (kernel launch, transfer latency) divide by `scale`
//!   (time-scale fidelity),
//! * selector density thresholds multiply by `scale`,
//! * Johnson's queue constant divides by `scale` (preserves `bat`).

pub mod experiments;

use apsp_core::options::JohnsonOptions;
use apsp_core::SelectorConfig;
use apsp_gpu_sim::DeviceProfile;
use apsp_graph::suite::{SuiteConfig, SuiteEntry};
use apsp_graph::CsrGraph;

/// Scale resolution: `REPRO_SCALE` env var wins, else the experiment's
/// default.
pub fn scale_or(default: usize) -> usize {
    std::env::var("REPRO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(default)
}

/// The V100 profile adjusted for a scaled reproduction.
pub fn scaled_v100(scale: usize) -> DeviceProfile {
    scaled_profile(&DeviceProfile::v100(), scale)
}

/// The K80 profile adjusted for a scaled reproduction.
pub fn scaled_k80(scale: usize) -> DeviceProfile {
    scaled_profile(&DeviceProfile::k80(), scale)
}

/// Apply the scaling rules to any base profile (see
/// [`DeviceProfile::scaled_for_reproduction`]).
pub fn scaled_profile(base: &DeviceProfile, scale: usize) -> DeviceProfile {
    base.scaled_for_reproduction(scale)
}

/// Johnson options adjusted for scale and device: the queue constant is
/// chosen so the scaled batch size shrinks by the same factor as the
/// scaled `saturating_blocks` — preserving the paper run's occupancy
/// ratio `bat / saturating`:
///
/// `bat_s = (L/s²)/(c_s·(m/s)·W) = bat_p · c_p/(c_s·s)`, and
/// `sat_s = sat_p / r` (with `r = min(sat_p, s²)` because saturating
/// blocks floor at 1), so `c_s = r / s` keeps the ratio.
pub fn scaled_johnson_for(base: &DeviceProfile, scale: usize) -> JohnsonOptions {
    let s = scale as f64;
    let r = ((scale * scale) as f64).min(base.saturating_blocks as f64);
    JohnsonOptions {
        queue_words_per_edge: (r / s).max(f64::MIN_POSITIVE),
        ..Default::default()
    }
}

/// [`scaled_johnson_for`] with the V100 profile (the paper's primary
/// device).
pub fn scaled_johnson(scale: usize) -> JohnsonOptions {
    scaled_johnson_for(&DeviceProfile::v100(), scale)
}

/// Selector configuration adjusted for scale.
pub fn scaled_selector(scale: usize) -> SelectorConfig {
    SelectorConfig::scaled(scale)
}

/// Suite generation config at a scale.
pub fn suite_config(scale: usize) -> SuiteConfig {
    SuiteConfig {
        scale,
        ..Default::default()
    }
}

/// A generated analog ready to run.
pub struct AnalogRun {
    /// The Table III/IV row this stands in for.
    pub entry: &'static SuiteEntry,
    /// The generated graph.
    pub graph: CsrGraph,
}

/// Generate analogs for a list of suite entries.
pub fn build_analogs(entries: &[&'static SuiteEntry], scale: usize) -> Vec<AnalogRun> {
    let cfg = suite_config(scale);
    entries
        .iter()
        .map(|&entry| AnalogRun {
            entry,
            graph: entry.generate(&cfg),
        })
        .collect()
}

/// Minimal fixed-width table printer for the experiment reports.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", c, width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s.is_infinite() {
        "inf".to_string()
    } else if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer", "22"]);
        let r = t.render();
        assert!(r.contains("name"));
        assert!(r.lines().count() == 4);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(250.0), "250");
        assert_eq!(fmt_secs(2.5), "2.50");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_secs(2.5e-5), "25.0us");
        assert_eq!(fmt_secs(f64::INFINITY), "inf");
    }

    #[test]
    fn scaled_profile_applies_rules() {
        let p = scaled_v100(4);
        let base = DeviceProfile::v100();
        assert_eq!(p.memory_bytes, base.memory_bytes / 16);
        assert!((p.kernel_launch_overhead - base.kernel_launch_overhead / 4.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_johnson_queue_constant() {
        // s = 8: s² = 64 < 160 saturating blocks ⇒ c = 64/8 = 8.
        let o = scaled_johnson(8);
        assert!((o.queue_words_per_edge - 8.0).abs() < 1e-12);
        // s = 48: s² caps at 160 ⇒ c = 160/48.
        let o48 = scaled_johnson(48);
        assert!((o48.queue_words_per_edge - 160.0 / 48.0).abs() < 1e-12);
    }
}

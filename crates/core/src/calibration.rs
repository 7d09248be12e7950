//! Persisted per-device-profile selector calibration: online refit of
//! the cost-model coefficients from realized run times.
//!
//! The selector's seed constants (`T₀` for Floyd-Warshall and the
//! boundary anchor, the per-bucket `c_unit`s, Johnson's extrapolation)
//! are measured once per profile on small training workloads, so they
//! drift at production sizes — the kernel-bench artifact shows the FW
//! model ~3.4× optimistic. This module closes the loop PR 5's telemetry
//! opened: every run that executes an algorithm pairs the model's
//! *seed* compute prediction with the realized compute seconds, and the
//! log-ratio of the two feeds a per-coefficient multiplicative
//! correction that `select`/`select_masked` consult before the seed
//! constants.
//!
//! **Refit math.** Each coefficient keeps `(count, Σ round(ln r · 10⁶))`
//! where `r = realized_compute / seed_predicted_compute`, each log-ratio
//! clamped to `±ln 1024`. The applied correction is the geometric mean
//! `scale = exp(Σ / (count · 10⁶))`:
//!
//! * *bounded*: every summand is clamped, so `scale ∈ [1/1024, 1024]`
//!   and is always finite and positive;
//! * *order-deterministic*: the state is an integer sum, so any
//!   permutation of the same observations produces the identical state
//!   and hence a byte-identical store file;
//! * *fixed point*: observing the model's own refitted prediction adds
//!   `ln(scale)` to a sum whose mean is already `ln(scale)` — the
//!   correction does not move (up to the 10⁻⁶ quantization).
//!
//! **Persistence.** [`CalibrationStore`] keeps one file per device
//! profile, named by a structural fingerprint of every profile constant,
//! written with the same atomic discipline as the checkpoint manifest
//! (temp sibling + `sync_all` + rename + directory sync) and the same
//! failure policy: a *missing* file is a fresh start (identity
//! corrections); a *present-and-invalid* one — truncated, bit-flipped,
//! or from another format version — is a typed
//! [`ApspError::Corruption`], and the front-end falls back to the seed
//! constants rather than trusting it.

use crate::checkpoint::{seal, unseal};
use crate::error::ApspError;
use crate::options::ExecBackend;
use crate::tile_store::{create_dir_durable, write_atomic};
use apsp_gpu_sim::DeviceProfile;
use apsp_graph::{fnv1a, FNV_OFFSET_BASIS};
use std::io;
use std::path::{Path, PathBuf};

/// Store format version this build writes and understands.
pub const CALIBRATION_VERSION: u32 = 1;

/// Log-ratio clamp: one observation can move a coefficient by at most
/// a factor of 1024 in either direction.
const LN_CLAMP: f64 = 6.931471805599453; // ln(1024)

/// Micro-units per natural-log unit in the integer accumulator.
const MICRO: f64 = 1e6;

/// [`LN_CLAMP`] in quantized micro-units (floored, so the bound holds
/// after rounding).
const LN_CLAMP_MICRO: i64 = 6_931_471;

/// Structural fingerprint of a device profile: FNV-1a over the name and
/// every numeric constant (floats by bit pattern). Two profiles share a
/// calibration file only when every constant matches — the same
/// comparison [`crate::selector::CostModels::calibrate_cached`] uses.
pub fn profile_fingerprint(p: &DeviceProfile) -> u64 {
    let mut h = FNV_OFFSET_BASIS;
    h = fnv1a(p.name.as_bytes(), h);
    h = fnv1a(&p.memory_bytes.to_le_bytes(), h);
    h = fnv1a(&(p.sm_count as u64).to_le_bytes(), h);
    h = fnv1a(&(p.saturating_blocks as u64).to_le_bytes(), h);
    for f in [
        p.compute_ops_per_sec,
        p.mem_bandwidth,
        p.h2d_bytes_per_sec,
        p.d2h_bytes_per_sec,
        p.pageable_penalty,
        p.kernel_launch_overhead,
        p.dynamic_launch_overhead,
        p.transfer_latency,
        p.frontier_iter_floor,
    ] {
        h = fnv1a(&f.to_bits().to_le_bytes(), h);
    }
    h
}

/// The refittable coefficient behind one cost-model regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoeffKey {
    /// Floyd-Warshall's `T₀` (the cubic anchor).
    FwT0,
    /// Johnson's extrapolation constant (`T · n_b / k`).
    JohnsonC,
    /// The boundary small-separator anchor (`T₀ · (n/n₀)^{3/2}`).
    BoundaryT0,
    /// The boundary large-separator unit cost (`N_op · c_unit`).
    BoundaryCUnit,
}

impl CoeffKey {
    /// Every key, in serialization order.
    pub const ALL: [CoeffKey; 4] = [
        CoeffKey::FwT0,
        CoeffKey::JohnsonC,
        CoeffKey::BoundaryT0,
        CoeffKey::BoundaryCUnit,
    ];

    /// Stable tag used in the store file and reports.
    pub fn tag(self) -> &'static str {
        match self {
            CoeffKey::FwT0 => "fw_t0",
            CoeffKey::JohnsonC => "johnson_c",
            CoeffKey::BoundaryT0 => "boundary_t0",
            CoeffKey::BoundaryCUnit => "boundary_c_unit",
        }
    }

    fn index(self) -> usize {
        match self {
            CoeffKey::FwT0 => 0,
            CoeffKey::JohnsonC => 1,
            CoeffKey::BoundaryT0 => 2,
            CoeffKey::BoundaryCUnit => 3,
        }
    }
}

/// One coefficient's accumulated evidence: observation count and the
/// integer micro-unit sum of clamped log-ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoeffState {
    /// Observations folded in.
    pub count: u64,
    /// `Σ round(ln(realized/predicted) · 10⁶)`, each term clamped to
    /// `±ln(1024)·10⁶`.
    pub sum_micro: i64,
}

impl CoeffState {
    /// The multiplicative correction this state implies: the geometric
    /// mean of the observed ratios (1.0 with no evidence).
    pub fn scale(&self) -> f64 {
        if self.count == 0 {
            1.0
        } else {
            (self.sum_micro as f64 / (MICRO * self.count as f64)).exp()
        }
    }
}

/// The four per-coefficient refit states — the learned part of a
/// calibration store. `Default` is the identity (seed constants).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RefitCoefficients {
    states: [CoeffState; 4],
}

impl RefitCoefficients {
    /// The identity correction (every scale 1.0).
    pub fn identity() -> Self {
        RefitCoefficients::default()
    }

    /// The correction factor applied to `key`'s compute term.
    pub fn scale(&self, key: CoeffKey) -> f64 {
        self.states[key.index()].scale()
    }

    /// The raw state behind `key`.
    pub fn state(&self, key: CoeffKey) -> CoeffState {
        self.states[key.index()]
    }

    /// Total observations across all coefficients.
    pub fn observations(&self) -> u64 {
        self.states.iter().map(|s| s.count).sum()
    }

    /// Fold in one realized run. `seed_compute_s` is the model's
    /// *seed-constant* compute prediction (no refit applied),
    /// `predicted_transfer_s` its transfer prediction, `realized_s` the
    /// run's realized seconds. Non-finite or non-positive inputs are
    /// ignored — an unfittable observation must never poison the state.
    pub fn observe(
        &mut self,
        key: CoeffKey,
        seed_compute_s: f64,
        predicted_transfer_s: f64,
        realized_s: f64,
    ) {
        let fittable = seed_compute_s.is_finite()
            && seed_compute_s > 0.0
            && realized_s.is_finite()
            && realized_s > 0.0
            && predicted_transfer_s.is_finite()
            && predicted_transfer_s >= 0.0;
        if !fittable {
            return;
        }
        // The refit targets the compute term only: subtract the model's
        // transfer prediction from the realized total, flooring so a
        // transfer-dominated run still yields a positive observation.
        let observed_compute = (realized_s - predicted_transfer_s)
            .max(realized_s * 1e-2)
            .max(1e-12);
        let l = (observed_compute / seed_compute_s)
            .ln()
            .clamp(-LN_CLAMP, LN_CLAMP);
        let st = &mut self.states[key.index()];
        st.count += 1;
        // Clamp after quantizing too: `round` can push the micro value one
        // unit past `±LN_CLAMP·1e6`, which would let the per-coefficient
        // scale creep beyond the documented [1/1024, 1024] bound.
        st.sum_micro += ((l * MICRO).round() as i64).clamp(-LN_CLAMP_MICRO, LN_CLAMP_MICRO);
    }
}

/// The seed-constant decomposition of one candidate's estimate: the
/// compute term (before any refit multiplier), the transfer term, and
/// the coefficient the compute term is anchored on. Carried on
/// [`crate::selector::Candidate`] so the run's realized seconds can be
/// fed back to the right coefficient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateParts {
    /// Coefficient the compute term scales with.
    pub key: CoeffKey,
    /// Seed-constant compute seconds (may be infinite for an infeasible
    /// boundary plan).
    pub compute_seed: f64,
    /// Transfer seconds (refit never touches this term).
    pub transfer: f64,
}

impl EstimateParts {
    /// The estimate under the seed constants.
    pub fn seed_seconds(&self) -> f64 {
        self.compute_seed + self.transfer
    }

    /// The estimate with `refit`'s correction applied to the compute
    /// term.
    pub fn refitted_seconds(&self, refit: &RefitCoefficients) -> f64 {
        self.compute_seed * refit.scale(self.key) + self.transfer
    }
}

/// Handle to one device profile's persisted calibration state.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationStore {
    path: PathBuf,
    fingerprint: u64,
    profile_name: String,
    /// Committed runs folded into the store.
    runs: u64,
    coeffs: RefitCoefficients,
}

impl CalibrationStore {
    /// Open (or initialize) the store for `profile` under `dir`, keyed
    /// to the backend a run gets when it names none,
    /// `ExecBackend::default()`, which is `"simd"` on every host. See
    /// [`CalibrationStore::open_for`].
    pub fn open<P: AsRef<Path>>(dir: P, profile: &DeviceProfile) -> Result<Self, ApspError> {
        CalibrationStore::open_for(dir, profile, ExecBackend::default().name())
    }

    /// Open (or initialize) the store for `profile` under `dir`, keyed
    /// to one host execution `backend` (`"scalar"` or `"simd"`).
    /// Observations made under one backend never steer
    /// selections made under another — realized timings can shift with
    /// the host kernel even when the modeled device time does not.
    ///
    /// A missing file is a fresh store with identity corrections; a
    /// present-but-invalid file is [`ApspError::Corruption`] — callers
    /// that want to proceed anyway (the front-end does) should fall
    /// back to [`CalibrationStore::fresh_for`].
    pub fn open_for<P: AsRef<Path>>(
        dir: P,
        profile: &DeviceProfile,
        backend: &str,
    ) -> Result<Self, ApspError> {
        let mut store = CalibrationStore::fresh_for(&dir, profile, backend);
        let bytes = match std::fs::read(&store.path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(store),
            Err(e) => return Err(e.into()),
        };
        let (runs, coeffs) =
            parse_store(&bytes, store.fingerprint).map_err(|detail| ApspError::Corruption {
                detail: format!("{}: {detail}", store.path.display()),
            })?;
        store.runs = runs;
        store.coeffs = coeffs;
        Ok(store)
    }

    /// A fresh (identity) store for `profile` under `dir`, keyed to
    /// `ExecBackend::default()` as [`CalibrationStore::open`] is; see
    /// [`CalibrationStore::fresh_for`].
    pub fn fresh<P: AsRef<Path>>(dir: P, profile: &DeviceProfile) -> Self {
        CalibrationStore::fresh_for(dir, profile, ExecBackend::default().name())
    }

    /// A fresh (identity) store for `profile` under `dir` keyed to
    /// `backend`, ignoring any file already there. Nothing touches the
    /// disk until [`CalibrationStore::commit`]. The file is always
    /// `profile-<fingerprint>-<backend>.cal`; an unsuffixed
    /// `profile-<fingerprint>.cal` from before backend keying belongs
    /// to no backend and is neither read nor written.
    pub fn fresh_for<P: AsRef<Path>>(dir: P, profile: &DeviceProfile, backend: &str) -> Self {
        let fingerprint = profile_fingerprint(profile);
        let file = format!("profile-{fingerprint:016x}-{backend}.cal");
        CalibrationStore {
            path: dir.as_ref().join(file),
            fingerprint,
            profile_name: profile.name.clone(),
            runs: 0,
            coeffs: RefitCoefficients::identity(),
        }
    }

    /// The file this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The learned corrections.
    pub fn coeffs(&self) -> &RefitCoefficients {
        &self.coeffs
    }

    /// Committed runs folded into the store.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Fold one realized run into the store (see
    /// [`RefitCoefficients::observe`]) and bump the run counter.
    pub fn observe_run(&mut self, parts: &EstimateParts, realized_s: f64) {
        self.coeffs
            .observe(parts.key, parts.compute_seed, parts.transfer, realized_s);
        self.runs += 1;
    }

    /// Durably write the store as checkpoint commits are written: its
    /// directory created durably if missing, a temp sibling, `sync_all`,
    /// a rename into place, then a directory sync. A
    /// crash at any point leaves either the previous version or the new
    /// one — never a torn file — and a committed rename survives a power
    /// loss.
    pub fn commit(&self) -> Result<(), ApspError> {
        use std::io::Write;
        create_dir_durable(self.path.parent().unwrap_or_else(|| Path::new(".")))?;
        write_atomic(&self.path, |mut f| f.write_all(self.serialize().as_bytes()))?;
        Ok(())
    }

    /// Line-oriented text encoding, sealed like the checkpoint manifest
    /// (see [`seal`]).
    fn serialize(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "profile {:016x} {}\n",
            self.fingerprint, self.profile_name
        ));
        s.push_str(&format!("runs {}\n", self.runs));
        for key in CoeffKey::ALL {
            let st = self.coeffs.state(key);
            s.push_str(&format!(
                "coeff {} {} {}\n",
                key.tag(),
                st.count,
                st.sum_micro
            ));
        }
        seal("apsp-calibration", CALIBRATION_VERSION, &s)
    }

    /// Human-readable summary for `--calibration-report`: one line per
    /// coefficient with its evidence and the correction in force.
    pub fn report(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "calibration store {} (profile \"{}\", fingerprint {:016x}, {} runs)\n",
            self.path.display(),
            self.profile_name,
            self.fingerprint,
            self.runs
        ));
        for key in CoeffKey::ALL {
            let st = self.coeffs.state(key);
            s.push_str(&format!(
                "  {:<16} observations {:>4}  scale {:.6}\n",
                key.tag(),
                st.count,
                st.scale()
            ));
        }
        s
    }
}

/// Inverse of [`CalibrationStore::serialize`]; `expected_fingerprint`
/// guards against a file renamed across profiles. Failure detail strings
/// are wrapped in [`ApspError::Corruption`] by the caller.
fn parse_store(
    bytes: &[u8],
    expected_fingerprint: u64,
) -> Result<(u64, RefitCoefficients), String> {
    let lines = unseal(bytes, "apsp-calibration", CALIBRATION_VERSION, "store")?;
    let mut runs = None;
    let mut coeffs = RefitCoefficients::identity();
    let mut seen = [false; 4];
    for line in lines {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "profile" => {
                let fp = rest.split_whitespace().next().unwrap_or("");
                let fp = u64::from_str_radix(fp, 16).map_err(|_| "bad profile fingerprint")?;
                if fp != expected_fingerprint {
                    return Err(format!(
                        "store was written for a different device profile \
                         (fingerprint {fp:016x}, this profile is {expected_fingerprint:016x})"
                    ));
                }
            }
            "runs" => runs = Some(rest.trim().parse::<u64>().map_err(|_| "bad run count")?),
            "coeff" => {
                let mut it = rest.split_whitespace();
                let tag = it.next().ok_or("coeff line missing tag")?;
                let count: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("coeff line missing count")?;
                let sum_micro: i64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("coeff line missing sum")?;
                let key = CoeffKey::ALL
                    .into_iter()
                    .find(|k| k.tag() == tag)
                    .ok_or_else(|| format!("unknown coefficient {tag:?}"))?;
                coeffs.states[key.index()] = CoeffState { count, sum_micro };
                seen[key.index()] = true;
            }
            other => return Err(format!("unknown store line {other:?}")),
        }
    }
    let runs = runs.ok_or("store has no `runs` line")?;
    if !seen.iter().all(|&s| s) {
        return Err("store is missing a coefficient line".to_string());
    }
    Ok((runs, coeffs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("apsp_calibration").join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fingerprint_is_structural() {
        let v = DeviceProfile::v100();
        assert_eq!(profile_fingerprint(&v), profile_fingerprint(&v.clone()));
        assert_ne!(
            profile_fingerprint(&v),
            profile_fingerprint(&DeviceProfile::k80())
        );
        // Any constant participates, not just the name.
        let mut tweaked = v.clone();
        tweaked.transfer_latency *= 2.0;
        assert_ne!(profile_fingerprint(&v), profile_fingerprint(&tweaked));
    }

    #[test]
    fn identity_until_observed_then_tracks_ratio() {
        let mut r = RefitCoefficients::identity();
        assert_eq!(r.scale(CoeffKey::FwT0), 1.0);
        // Realized 3.4× the seed compute prediction.
        r.observe(CoeffKey::FwT0, 1.0e-4, 0.0, 3.4e-4);
        assert!((r.scale(CoeffKey::FwT0) - 3.4).abs() < 1e-4);
        // Other coefficients untouched.
        assert_eq!(r.scale(CoeffKey::JohnsonC), 1.0);
        // A second identical observation leaves the geometric mean put.
        r.observe(CoeffKey::FwT0, 1.0e-4, 0.0, 3.4e-4);
        assert!((r.scale(CoeffKey::FwT0) - 3.4).abs() < 1e-4);
    }

    #[test]
    fn transfer_term_is_subtracted_before_the_ratio() {
        let mut r = RefitCoefficients::identity();
        // Seed compute 1ms, transfer 4ms, realized 6ms ⇒ observed
        // compute 2ms ⇒ scale 2.
        r.observe(CoeffKey::JohnsonC, 1.0e-3, 4.0e-3, 6.0e-3);
        assert!((r.scale(CoeffKey::JohnsonC) - 2.0).abs() < 1e-4);
    }

    #[test]
    fn degenerate_observations_are_ignored() {
        let mut r = RefitCoefficients::identity();
        for (c, t, re) in [
            (f64::INFINITY, 0.0, 1.0),
            (f64::NAN, 0.0, 1.0),
            (0.0, 0.0, 1.0),
            (-1.0, 0.0, 1.0),
            (1.0, 0.0, f64::NAN),
            (1.0, 0.0, 0.0),
            (1.0, f64::NAN, 1.0),
            (1.0, -1.0, 1.0),
        ] {
            r.observe(CoeffKey::BoundaryT0, c, t, re);
        }
        assert_eq!(r.state(CoeffKey::BoundaryT0).count, 0);
        assert_eq!(r.scale(CoeffKey::BoundaryT0), 1.0);
    }

    #[test]
    fn store_round_trips_through_disk() {
        let dir = tmp_dir("round_trip");
        let profile = DeviceProfile::v100();
        let mut store = CalibrationStore::open(&dir, &profile).unwrap();
        assert_eq!(store.runs(), 0);
        store.observe_run(
            &EstimateParts {
                key: CoeffKey::FwT0,
                compute_seed: 1.0e-4,
                transfer: 2.0e-5,
            },
            3.6e-4,
        );
        store.commit().unwrap();
        let reopened = CalibrationStore::open(&dir, &profile).unwrap();
        assert_eq!(reopened, store);
        assert_eq!(reopened.runs(), 1);
        assert!(reopened.coeffs().scale(CoeffKey::FwT0) > 3.0);
        // A different profile gets its own file in the same directory.
        let other = CalibrationStore::open(&dir, &DeviceProfile::k80()).unwrap();
        assert_ne!(other.path(), store.path());
        assert_eq!(other.runs(), 0);
    }

    #[test]
    fn the_unsuffixed_legacy_file_is_ignored() {
        let (dir, profile) = (tmp_dir("legacy"), DeviceProfile::v100());
        let fp = profile_fingerprint(&profile);
        // A valid store under the name stores had before backend keying.
        let mut store = CalibrationStore::open_for(&dir, &profile, "simd").unwrap();
        let parts = EstimateParts {
            key: CoeffKey::FwT0,
            compute_seed: 1.0e-4,
            transfer: 0.0,
        };
        store.observe_run(&parts, 2.0e-4);
        store.commit().unwrap();
        let legacy = dir.join(format!("profile-{fp:016x}.cal"));
        std::fs::rename(store.path(), &legacy).unwrap();
        let bytes = std::fs::read(&legacy).unwrap();
        assert!(parse_store(&bytes, fp).is_ok());
        // `parallel` is the key that read it while that backend existed.
        for backend in ["simd", "scalar", "parallel"] {
            let opened = CalibrationStore::open_for(&dir, &profile, backend).unwrap();
            assert_eq!(opened.runs(), 0, "{backend} read the legacy file");
            opened.commit().unwrap();
            assert_eq!(
                opened.path(),
                dir.join(format!("profile-{fp:016x}-{backend}.cal"))
            );
            assert!(opened.path().exists());
        }
        assert_eq!(std::fs::read(&legacy).unwrap(), bytes);
    }

    #[test]
    fn report_names_every_coefficient() {
        let store = CalibrationStore::fresh(tmp_dir("report"), &DeviceProfile::v100());
        let report = store.report();
        for key in CoeffKey::ALL {
            assert!(report.contains(key.tag()), "{report}");
        }
    }

    proptest! {
        /// Observing the model's own refitted prediction is a fixed
        /// point: the correction in force does not move.
        #[test]
        fn own_prediction_is_a_fixed_point(
            seed_compute in 1e-9f64..1e3,
            transfer in 0.0f64..1e2,
            ratio in 0.01f64..100.0,
            extra in 0u8..20,
        ) {
            let mut r = RefitCoefficients::identity();
            // Build up an arbitrary state first.
            for _ in 0..=extra {
                r.observe(CoeffKey::FwT0, seed_compute, transfer, seed_compute * ratio + transfer);
            }
            let before = r.scale(CoeffKey::FwT0);
            // Feed back exactly what the refitted model now predicts.
            let own = seed_compute * before + transfer;
            r.observe(CoeffKey::FwT0, seed_compute, transfer, own);
            let after = r.scale(CoeffKey::FwT0);
            prop_assert!(
                (after.ln() - before.ln()).abs() < 1e-3,
                "scale moved {before} -> {after}"
            );
        }

        /// Coefficients stay finite and positive under adversarial
        /// observation sequences, including non-finite garbage.
        #[test]
        fn scales_stay_finite_and_positive(
            obs in proptest::collection::vec((0u8..4, 0u8..6, 0.0f64..10.0, 0.0f64..10.0), 1..60),
        ) {
            let mut r = RefitCoefficients::identity();
            for (k, shape, a, b) in obs {
                let key = CoeffKey::ALL[(k as usize) % 4];
                let (compute, realized) = match shape {
                    0 => (a, b),
                    1 => (f64::INFINITY, b),
                    2 => (a, f64::NAN),
                    3 => (1e-300, b * 1e300),
                    4 => (a * 1e300, 1e-300),
                    _ => (f64::NAN, f64::NEG_INFINITY),
                };
                r.observe(key, compute, a.min(b), realized);
            }
            for key in CoeffKey::ALL {
                let s = r.scale(key);
                prop_assert!(s.is_finite() && s > 0.0, "{key:?} scale = {s}");
                prop_assert!((1.0 / 1024.0..=1024.0).contains(&s), "{key:?} scale = {s}");
            }
        }

        /// Refit is order-deterministic: any permutation of the same
        /// observations serializes to a byte-identical store.
        #[test]
        fn permuted_observations_serialize_identically(
            obs in proptest::collection::vec((0u8..4, 1e-6f64..10.0, 0.0f64..1.0, 1e-6f64..10.0), 2..40),
            rot in 1usize..39,
        ) {
            let dir = std::env::temp_dir().join("apsp_calibration_prop");
            let profile = DeviceProfile::v100();
            let apply = |order: &[(u8, f64, f64, f64)]| {
                let mut store = CalibrationStore::fresh(&dir, &profile);
                for &(k, c, t, re) in order {
                    store.observe_run(
                        &EstimateParts {
                            key: CoeffKey::ALL[(k as usize) % 4],
                            compute_seed: c,
                            transfer: t,
                        },
                        re,
                    );
                }
                store.serialize()
            };
            let forward = apply(&obs);
            let mut rotated = obs.clone();
            rotated.rotate_left(rot % obs.len());
            prop_assert_eq!(forward, apply(&rotated));
        }
    }

    #[test]
    fn corruption_modes_are_typed_errors() {
        let dir = tmp_dir("corruption");
        let profile = DeviceProfile::v100();
        let mut store = CalibrationStore::open(&dir, &profile).unwrap();
        store.observe_run(
            &EstimateParts {
                key: CoeffKey::JohnsonC,
                compute_seed: 1.0,
                transfer: 0.1,
            },
            2.0,
        );
        store.commit().unwrap();
        let good = std::fs::read(store.path()).unwrap();

        let expect_corruption = |bytes: &[u8]| {
            std::fs::write(store.path(), bytes).unwrap();
            let err = CalibrationStore::open(&dir, &profile).unwrap_err();
            assert_eq!(err.kind(), crate::ApspErrorKind::Corruption, "{err}");
        };
        // Truncation.
        expect_corruption(&good[..good.len() / 2]);
        // Single bit flip.
        let mut flipped = good.clone();
        flipped[10] ^= 0x01;
        expect_corruption(&flipped);
        // Wrong version (re-checksummed, so only the version check trips).
        let text = String::from_utf8(good.clone()).unwrap();
        let body: String = text
            .lines()
            .filter(|l| !l.starts_with("end "))
            .map(|l| format!("{l}\n"))
            .collect::<String>()
            .replace("apsp-calibration 1", "apsp-calibration 99");
        let sum = fnv1a(body.as_bytes(), FNV_OFFSET_BASIS);
        expect_corruption(format!("{body}end {sum:016x}\n").as_bytes());
        // The original still parses.
        std::fs::write(store.path(), &good).unwrap();
        assert!(CalibrationStore::open(&dir, &profile).is_ok());
    }

    #[test]
    fn kill_points_mid_commit_leave_previous_version_readable() {
        let dir = tmp_dir("kill_points");
        let profile = DeviceProfile::v100();
        let mut store = CalibrationStore::open(&dir, &profile).unwrap();
        store.observe_run(
            &EstimateParts {
                key: CoeffKey::FwT0,
                compute_seed: 1.0,
                transfer: 0.0,
            },
            2.0,
        );
        store.commit().unwrap();
        let committed = CalibrationStore::open(&dir, &profile).unwrap();

        // A second observation, killed at every file-op boundary of its
        // commit: the store on disk must stay exactly the committed one.
        let kill = |at| crate::tile_store::KILL_AT.set(at);
        for kill_at in 0..4 {
            let mut next = committed.clone();
            next.observe_run(
                &EstimateParts {
                    key: CoeffKey::FwT0,
                    compute_seed: 1.0,
                    transfer: 0.0,
                },
                8.0,
            );
            kill(Some(kill_at));
            let err = next.commit().unwrap_err();
            kill(None);
            assert!(
                matches!(&err, ApspError::Storage(e) if e.kind() == io::ErrorKind::Interrupted),
                "{err}"
            );
            let on_disk = CalibrationStore::open(&dir, &profile).unwrap();
            assert_eq!(on_disk, committed, "kill point {kill_at} tore the store");
        }
        // Past the last op the commit completes and the new state lands.
        let mut next = committed.clone();
        next.observe_run(
            &EstimateParts {
                key: CoeffKey::FwT0,
                compute_seed: 1.0,
                transfer: 0.0,
            },
            8.0,
        );
        kill(Some(4));
        next.commit().unwrap();
        kill(None);
        let on_disk = CalibrationStore::open(&dir, &profile).unwrap();
        assert_eq!(on_disk, next);
    }
}

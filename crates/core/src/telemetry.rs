//! Run telemetry: structured per-phase metrics, selector calibration
//! records, and a deterministic JSONL run report.
//!
//! The gpu-sim timeline already knows everything worth measuring — the
//! per-engine busy time, the byte counters, the `TraceEvent` log — but
//! until this module it was dropped on the floor once a run returned.
//! [`Telemetry`] is a cheap, cloneable handle threaded (via the
//! [`crate::supervisor::Supervisor`]) through the selector, the three
//! out-of-core drivers, and the [`crate::tile_store::TileStore`]. When
//! disabled (the default) every hook is a `None` check and nothing is
//! recorded; when enabled it collects:
//!
//! * **phase spans** — simulated-time intervals with byte/launch deltas,
//!   one per algorithm phase (FW diagonal/pivot/remainder, Johnson
//!   batch, boundary dist₂/dist₃/dist₄/flush) plus one per front-end
//!   attempt;
//! * **calibration records** — every selector candidate's predicted
//!   seconds (or its filter reason) paired with the realized seconds of
//!   the attempt that selection fed, making cost-model drift a
//!   queryable artifact;
//! * **store row counters** — result-matrix rows read and written.
//!
//! [`RunReport::to_jsonl`] renders the report as JSON Lines. Every
//! container is emitted in a deterministic order (spans and calibration
//! records in insertion order, kernels sorted by name) and every float
//! is formatted at fixed precision, so two runs of the same seed produce
//! byte-identical reports — a property the conformance suite pins.
//!
//! **Determinism argument.** Telemetry must never perturb the run it
//! measures. The hooks only *read* the device — `elapsed()` (no
//! barrier) and the monotone [`DeviceCounters`] — and never call
//! `synchronize()`, which would serialize the overlap streams and change
//! the makespan. Enabling the trace only appends to a host-side `Vec`.
//! Selector probes for calibration run on scratch devices, never the
//! run's device. Hence telemetry-on and telemetry-off runs issue
//! identical device operations and produce bit-identical matrices.
//!
//! The module also carries a hand-rolled minimal JSON parser and a
//! schema validator (the workspace deliberately has no serde), used by
//! CI to validate emitted reports against
//! `schemas/telemetry.schema.json`.

use crate::supervisor::SupervisionEvent;
use apsp_gpu_sim::trace::{overlap_efficiency, TraceEvent, EMPTY_TIMELINE};
use apsp_gpu_sim::{DeviceCounters, GpuDevice, SimReport};
use parking_lot::Mutex;
use std::sync::Arc;

/// One simulated-time interval attributed to a named phase, with the
/// device work that happened inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpan {
    /// Phase name, e.g. `"fw.diagonal"` or `"attempt.johnson"`.
    pub name: String,
    /// Device clock at phase start, seconds.
    pub start_s: f64,
    /// Device clock at phase end, seconds.
    pub end_s: f64,
    /// Bytes moved host→device inside the span.
    pub bytes_h2d: u64,
    /// Bytes moved device→host inside the span.
    pub bytes_d2h: u64,
    /// Kernel launches inside the span.
    pub kernel_launches: u64,
    /// Fleet device index the span ran on; `None` for single-device
    /// runs, where the field is omitted from the JSONL record.
    pub device: Option<usize>,
}

impl PhaseSpan {
    /// Span duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// One selector candidate's predicted cost paired with what actually
/// happened — the drift artifact the paper's cost models are judged by.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationRecord {
    /// Candidate algorithm tag (`"fw"`, `"johnson"`, `"boundary"`).
    pub algorithm: &'static str,
    /// Model-predicted simulated seconds, with any calibration refit
    /// applied; `None` only when the candidate was masked or infeasible
    /// (density-filtered candidates are still costed).
    pub predicted_s: Option<f64>,
    /// The prediction under the seed constants alone (pre-refit). Equal
    /// to `predicted_s` when no calibration is in force; `None` exactly
    /// when `predicted_s` is.
    pub seed_predicted_s: Option<f64>,
    /// Why the candidate was not eligible to win (`None` for ranked
    /// survivors; filtered candidates may still carry predictions).
    pub filter_reason: Option<String>,
    /// Whether this candidate is the one the run executed.
    pub selected: bool,
    /// Realized simulated seconds of the attempt this selection fed
    /// (the successful run's `sim_seconds`, or the failed attempt's span
    /// duration). `None` only while the attempt is still in flight.
    pub realized_s: Option<f64>,
}

/// Opaque marker returned by [`Telemetry::phase_start`]; hand it back to
/// [`Telemetry::phase_end`] to close the span.
#[derive(Debug)]
pub struct PhaseStart {
    at_s: f64,
    counters: DeviceCounters,
}

#[derive(Debug, Default)]
struct TelemetryState {
    spans: Vec<PhaseSpan>,
    calibration: Vec<CalibrationRecord>,
    /// Start of the most recent calibration batch (one batch per
    /// selector entry), so realized seconds land on the right records.
    calibration_batch: usize,
    store_row_reads: u64,
    store_row_writes: u64,
    sdc_detected: u64,
    sdc_recovered_panel: u64,
    sdc_recovered_round: u64,
}

/// Cheap, cloneable metrics handle. Disabled by default; every hook on a
/// disabled handle is a single `Option` check.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<TelemetryState>>>,
}

impl Telemetry {
    /// A handle that records nothing (zero overhead beyond a `None`
    /// check per hook).
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A recording handle.
    pub fn enabled() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(TelemetryState::default()))),
        }
    }

    /// Whether this handle records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a phase span at the device's current clock. Reads only
    /// `elapsed()` (no barrier) and the monotone counters, so it cannot
    /// perturb the timeline. Returns `None` when disabled.
    pub fn phase_start(&self, dev: &GpuDevice) -> Option<PhaseStart> {
        self.inner.as_ref()?;
        Some(PhaseStart {
            at_s: dev.elapsed().seconds(),
            counters: dev.counters(),
        })
    }

    /// Close a span opened by [`Telemetry::phase_start`] and record it
    /// under `name`. Returns the span's duration (for callers that need
    /// the realized time of a failed attempt), or `None` when disabled.
    pub fn phase_end(&self, dev: &GpuDevice, start: Option<PhaseStart>, name: &str) -> Option<f64> {
        self.phase_end_on_device(dev, start, name, None)
    }

    /// [`Telemetry::phase_end`] for multi-device runs: tags the span with
    /// the fleet device index it ran on, if any, so the JSONL record
    /// carries a `device` field.
    pub fn phase_end_on_device(
        &self,
        dev: &GpuDevice,
        start: Option<PhaseStart>,
        name: &str,
        device: Option<usize>,
    ) -> Option<f64> {
        let inner = self.inner.as_ref()?;
        let start = start?;
        let now = dev.counters();
        let span = PhaseSpan {
            name: name.to_string(),
            start_s: start.at_s,
            end_s: dev.elapsed().seconds(),
            bytes_h2d: now.bytes_h2d - start.counters.bytes_h2d,
            bytes_d2h: now.bytes_d2h - start.counters.bytes_d2h,
            kernel_launches: now.kernel_launches - start.counters.kernel_launches,
            device,
        };
        let seconds = span.seconds();
        inner.lock().spans.push(span);
        Some(seconds)
    }

    /// Record one selector entry's calibration batch (every candidate,
    /// costed or filtered). Later [`Telemetry::set_realized`] calls
    /// target this batch until the next one is recorded.
    pub fn record_calibration(&self, records: Vec<CalibrationRecord>) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock();
            st.calibration_batch = st.calibration.len();
            st.calibration.extend(records);
        }
    }

    /// Fill the realized seconds on every costed record of the most
    /// recent calibration batch (filtered-but-costed candidates
    /// included — their predictions are judged by the same run).
    pub fn set_realized(&self, seconds: f64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock();
            let batch = st.calibration_batch;
            for rec in &mut st.calibration[batch..] {
                if rec.predicted_s.is_some() {
                    rec.realized_s = Some(seconds);
                }
            }
        }
    }

    /// Count result-store row accesses (called from the tile store's
    /// read/write paths).
    pub fn count_store_rows(&self, reads: u64, writes: u64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock();
            st.store_row_reads += reads;
            st.store_row_writes += writes;
        }
    }

    /// Count silent-corruption guard activity: detections and the
    /// recovery rung (panel-scoped or round-scoped) that absorbed each
    /// one. A detection that exhausts the recovery ladder still counts
    /// as detected — the run then fails typed, and the report (if any)
    /// shows a detection without a matching recovery.
    pub fn count_sdc(&self, detected: u64, recovered_panel: u64, recovered_round: u64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock();
            st.sdc_detected += detected;
            st.sdc_recovered_panel += recovered_panel;
            st.sdc_recovered_round += recovered_round;
        }
    }

    /// Assemble the final [`RunReport`]. Returns `None` when disabled.
    ///
    /// `algorithm` is the algorithm that produced the result, `backend`
    /// the host execution backend it ran under (`"scalar"` or
    /// `"simd"`), `sim_seconds` its realized driver time,
    /// `report`/`trace` the device's profiling snapshot and event log,
    /// `events` the supervision log, and `retries`/`checkpoint_commits`
    /// the driver stats.
    #[allow(clippy::too_many_arguments)]
    pub fn build_report(
        &self,
        algorithm: &str,
        backend: &str,
        sim_seconds: f64,
        report: &SimReport,
        trace: &[TraceEvent],
        events: &[SupervisionEvent],
        retries: u64,
        checkpoint_commits: u64,
    ) -> Option<RunReport> {
        let inner = self.inner.as_ref()?;
        let st = inner.lock();
        let mut kernels: Vec<(String, u64, f64)> = report
            .kernels
            .iter()
            .map(|(name, k)| (name.clone(), k.launches, k.seconds))
            .collect();
        kernels.sort_by(|a, b| a.0.cmp(&b.0));
        let fallbacks = events
            .iter()
            .filter(|e| matches!(e, SupervisionEvent::Fallback { .. }))
            .count() as u64;
        let stalls = events
            .iter()
            .filter(|e| matches!(e, SupervisionEvent::Stall { .. }))
            .count() as u64;
        Some(RunReport {
            algorithm: algorithm.to_string(),
            backend: backend.to_string(),
            sim_seconds,
            retries,
            checkpoint_commits,
            fallbacks,
            stalls,
            spans: st.spans.clone(),
            calibration: st.calibration.clone(),
            bytes_h2d: report.bytes_h2d,
            bytes_d2h: report.bytes_d2h,
            transfers_h2d: report.transfers_h2d,
            transfers_d2h: report.transfers_d2h,
            kernel_launches: kernels.iter().map(|k| k.1).sum(),
            compute_busy: report.compute_busy,
            h2d_busy: report.h2d_busy,
            d2h_busy: report.d2h_busy,
            elapsed: report.elapsed,
            compute_occupancy: if report.elapsed > 0.0 {
                report.compute_busy / report.elapsed
            } else {
                0.0
            },
            transfer_fraction: report.transfer_fraction(),
            overlap_efficiency: overlap_efficiency(trace),
            kernels,
            events: events.to_vec(),
            store_row_reads: st.store_row_reads,
            store_row_writes: st.store_row_writes,
            sdc_detected: st.sdc_detected,
            sdc_recovered_panel: st.sdc_recovered_panel,
            sdc_recovered_round: st.sdc_recovered_round,
        })
    }
}

/// The complete, deterministic record of one `apsp()` run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Display name of the algorithm that produced the result.
    pub algorithm: String,
    /// Host execution backend the run used (`"scalar"` or `"simd"`).
    pub backend: String,
    /// Realized simulated seconds of the successful attempt.
    pub sim_seconds: f64,
    /// Transient failures absorbed by the retry policy.
    pub retries: u64,
    /// Checkpoint commits performed.
    pub checkpoint_commits: u64,
    /// Fallback hops taken.
    pub fallbacks: u64,
    /// Watchdog stalls declared.
    pub stalls: u64,
    /// Phase spans in recording order.
    pub spans: Vec<PhaseSpan>,
    /// Calibration records in recording order.
    pub calibration: Vec<CalibrationRecord>,
    /// Bytes moved host→device over the whole run.
    pub bytes_h2d: u64,
    /// Bytes moved device→host over the whole run.
    pub bytes_d2h: u64,
    /// H2D transfer calls.
    pub transfers_h2d: u64,
    /// D2H transfer calls.
    pub transfers_d2h: u64,
    /// Total kernel launches.
    pub kernel_launches: u64,
    /// Busy seconds of the compute engine.
    pub compute_busy: f64,
    /// Busy seconds of the H2D copy engine.
    pub h2d_busy: f64,
    /// Busy seconds of the D2H copy engine.
    pub d2h_busy: f64,
    /// Device makespan at report time.
    pub elapsed: f64,
    /// Compute-engine busy fraction of the makespan (the run's
    /// occupancy proxy).
    pub compute_occupancy: f64,
    /// Copy-engine busy seconds over the makespan (unclamped; see
    /// [`SimReport::transfer_fraction`]).
    pub transfer_fraction: f64,
    /// Fraction of engine-busy seconds hidden by overlap, from the
    /// trace (see [`overlap_efficiency`]). Zero when tracing was off.
    pub overlap_efficiency: f64,
    /// Per-kernel `(name, launches, seconds)`, sorted by name.
    pub kernels: Vec<(String, u64, f64)>,
    /// The supervision event log.
    pub events: Vec<SupervisionEvent>,
    /// Result-store rows read.
    pub store_row_reads: u64,
    /// Result-store rows written.
    pub store_row_writes: u64,
    /// Silent-corruption detections (guard trips).
    pub sdc_detected: u64,
    /// Detections absorbed by the panel-scoped recovery rung.
    pub sdc_recovered_panel: u64,
    /// Detections absorbed by the round-scoped recovery rung.
    pub sdc_recovered_round: u64,
}

/// `s` as the body of a JSON string literal: quotes, backslashes and
/// control characters escaped.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Fixed-precision second formatting: enough digits that distinct
/// simulated times stay distinct, few enough that the text is stable.
fn secs(v: f64) -> String {
    format!("{v:.9}")
}

/// Fixed-precision fraction formatting.
fn frac(v: f64) -> String {
    format!("{v:.6}")
}

fn opt_secs(v: Option<f64>) -> String {
    match v {
        Some(v) => secs(v),
        None => "null".into(),
    }
}

fn opt_str(v: &Option<String>) -> String {
    match v {
        Some(s) => format!("\"{}\"", json_escape(s)),
        None => "null".into(),
    }
}

impl RunReport {
    /// Render the report as JSON Lines: one `run` header record, then
    /// one record per phase span, aggregate `transfers` / `engines` /
    /// `store` records, one record per kernel (sorted by name), one per
    /// calibration record, and one per supervision event. All floats
    /// are fixed-precision and all orders deterministic, so the output
    /// is byte-identical across reruns of the same seed.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"record\":\"run\",\"algorithm\":\"{}\",\"backend\":\"{}\",\"sim_seconds\":{},\"retries\":{},\"checkpoint_commits\":{},\"fallbacks\":{},\"stalls\":{},\"sdc_detected\":{},\"sdc_recovered_panel\":{},\"sdc_recovered_round\":{},\"phases\":{}{}}}\n",
            json_escape(&self.algorithm),
            json_escape(&self.backend),
            secs(self.sim_seconds),
            self.retries,
            self.checkpoint_commits,
            self.fallbacks,
            self.stalls,
            self.sdc_detected,
            self.sdc_recovered_panel,
            self.sdc_recovered_round,
            self.spans.len(),
            if self.spans.is_empty() {
                // Same marker render_gantt prints for a trace with no
                // events, so the two artifacts agree on "nothing ran".
                format!(",\"note\":\"{}\"", json_escape(EMPTY_TIMELINE))
            } else {
                String::new()
            },
        ));
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"record\":\"phase\",\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"seconds\":{},\"bytes_h2d\":{},\"bytes_d2h\":{},\"kernel_launches\":{}{}}}\n",
                json_escape(&s.name),
                secs(s.start_s),
                secs(s.end_s),
                secs(s.seconds()),
                s.bytes_h2d,
                s.bytes_d2h,
                s.kernel_launches,
                match s.device {
                    Some(d) => format!(",\"device\":{d}"),
                    None => String::new(),
                },
            ));
        }
        out.push_str(&format!(
            "{{\"record\":\"transfers\",\"bytes_h2d\":{},\"bytes_d2h\":{},\"transfers_h2d\":{},\"transfers_d2h\":{},\"kernel_launches\":{}}}\n",
            self.bytes_h2d,
            self.bytes_d2h,
            self.transfers_h2d,
            self.transfers_d2h,
            self.kernel_launches,
        ));
        out.push_str(&format!(
            "{{\"record\":\"engines\",\"compute_busy\":{},\"h2d_busy\":{},\"d2h_busy\":{},\"elapsed\":{},\"compute_occupancy\":{},\"transfer_fraction\":{},\"overlap_efficiency\":{}}}\n",
            secs(self.compute_busy),
            secs(self.h2d_busy),
            secs(self.d2h_busy),
            secs(self.elapsed),
            frac(self.compute_occupancy),
            frac(self.transfer_fraction),
            frac(self.overlap_efficiency),
        ));
        out.push_str(&format!(
            "{{\"record\":\"store\",\"row_reads\":{},\"row_writes\":{}}}\n",
            self.store_row_reads, self.store_row_writes,
        ));
        for (name, launches, seconds) in &self.kernels {
            out.push_str(&format!(
                "{{\"record\":\"kernel\",\"name\":\"{}\",\"launches\":{},\"seconds\":{}}}\n",
                json_escape(name),
                launches,
                secs(*seconds),
            ));
        }
        for c in &self.calibration {
            out.push_str(&format!(
                "{{\"record\":\"calibration\",\"algorithm\":\"{}\",\"predicted_s\":{},\"seed_predicted_s\":{},\"filter_reason\":{},\"selected\":{},\"realized_s\":{}}}\n",
                c.algorithm,
                opt_secs(c.predicted_s),
                opt_secs(c.seed_predicted_s),
                opt_str(&c.filter_reason),
                c.selected,
                opt_secs(c.realized_s),
            ));
        }
        for e in &self.events {
            match e {
                SupervisionEvent::Retry {
                    algorithm,
                    attempt,
                    backoff_ms,
                    shrink,
                } => out.push_str(&format!(
                    "{{\"record\":\"event\",\"kind\":\"retry\",\"algorithm\":\"{}\",\"attempt\":{attempt},\"backoff_ms\":{backoff_ms},\"shrink\":{shrink}}}\n",
                    json_escape(algorithm),
                )),
                SupervisionEvent::Stall { at, idle_seconds } => out.push_str(&format!(
                    "{{\"record\":\"event\",\"kind\":\"stall\",\"at\":\"{}\",\"idle_seconds\":{}}}\n",
                    json_escape(at),
                    secs(*idle_seconds),
                )),
                SupervisionEvent::Fallback {
                    from,
                    to,
                    error_kind,
                } => out.push_str(&format!(
                    "{{\"record\":\"event\",\"kind\":\"fallback\",\"from\":\"{from}\",\"to\":\"{to}\",\"error_kind\":\"{error_kind:?}\"}}\n",
                )),
            }
        }
        out
    }

    /// Spans aggregated by name in first-seen order:
    /// `(name, count, total seconds)`. The compact shape
    /// `bench_kernels` embeds per case.
    pub fn aggregated_phases(&self) -> Vec<(String, u64, f64)> {
        let mut out: Vec<(String, u64, f64)> = Vec::new();
        for s in &self.spans {
            match out.iter_mut().find(|(n, _, _)| n == &s.name) {
                Some((_, count, total)) => {
                    *count += 1;
                    *total += s.seconds();
                }
                None => out.push((s.name.clone(), 1, s.seconds())),
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Minimal JSON parser + schema validation (the workspace has no serde).
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(src: &'a str) -> Self {
        JsonParser {
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Number)
            .ok_or_else(|| self.error("bad number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

/// Parse one JSON document.
pub fn parse_json(src: &str) -> Result<JsonValue, String> {
    let mut p = JsonParser::new(src);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing garbage"));
    }
    Ok(v)
}

/// Check `value` against a schema type tag: `"string"`, `"number"`,
/// `"integer"`, `"boolean"`, or a `"|null"`-suffixed variant.
fn type_matches(value: &JsonValue, ty: &str) -> bool {
    if let Some(base) = ty.strip_suffix("|null") {
        return matches!(value, JsonValue::Null) || type_matches(value, base);
    }
    match ty {
        "string" => matches!(value, JsonValue::String(_)),
        "number" => matches!(value, JsonValue::Number(_)),
        "integer" => matches!(value, JsonValue::Number(n) if n.fract() == 0.0 && *n >= 0.0),
        "boolean" => matches!(value, JsonValue::Bool(_)),
        _ => false,
    }
}

/// Validate one JSONL report against a schema of the shape checked in at
/// `schemas/telemetry.schema.json`:
///
/// ```json
/// {"records": {"run": {"required": {"field": "type", ...},
///                      "optional": {"field": "type", ...}}, ...}}
/// ```
///
/// Every line must be an object whose `record` field names a schema
/// entry; every required field must be present with a matching type, and
/// no field outside required ∪ optional may appear.
pub fn validate_jsonl(jsonl: &str, schema: &JsonValue) -> Result<(), String> {
    let records = schema
        .get("records")
        .ok_or("schema has no 'records' table")?;
    for (lineno, line) in jsonl.lines().enumerate() {
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        let value = parse_json(line).map_err(at)?;
        let kind = value
            .get("record")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| at("missing 'record' discriminator".into()))?
            .to_string();
        let spec = records
            .get(&kind)
            .ok_or_else(|| at(format!("unknown record type '{kind}'")))?;
        let required = spec
            .get("required")
            .ok_or_else(|| at(format!("schema entry '{kind}' has no 'required' table")))?;
        let empty = JsonValue::Object(Vec::new());
        let optional = spec.get("optional").unwrap_or(&empty);
        let (JsonValue::Object(req), JsonValue::Object(opt)) = (required, optional) else {
            return Err(at(format!("schema entry '{kind}' is malformed")));
        };
        for (field, ty) in req {
            let ty = ty
                .as_str()
                .ok_or_else(|| at("schema type must be a string".into()))?;
            let v = value
                .get(field)
                .ok_or_else(|| at(format!("'{kind}' record missing required field '{field}'")))?;
            if !type_matches(v, ty) {
                return Err(at(format!(
                    "'{kind}' field '{field}' is not of type {ty}: {v:?}"
                )));
            }
        }
        let JsonValue::Object(fields) = &value else {
            return Err(at("record is not an object".into()));
        };
        for (field, v) in fields {
            if field == "record" {
                continue;
            }
            let spec_ty = req
                .iter()
                .chain(opt.iter())
                .find(|(k, _)| k == field)
                .map(|(_, t)| t);
            match spec_ty {
                None => {
                    return Err(at(format!("'{kind}' has undeclared field '{field}'")));
                }
                Some(t) => {
                    let ty = t
                        .as_str()
                        .ok_or_else(|| at("schema type must be a string".into()))?;
                    if !type_matches(v, ty) {
                        return Err(at(format!(
                            "'{kind}' field '{field}' is not of type {ty}: {v:?}"
                        )));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_gpu_sim::DeviceProfile;

    #[test]
    fn disabled_handle_records_nothing_and_returns_none() {
        let tel = Telemetry::disabled();
        let dev = GpuDevice::new(DeviceProfile::v100());
        assert!(!tel.is_enabled());
        let ph = tel.phase_start(&dev);
        assert!(ph.is_none());
        assert!(tel.phase_end(&dev, ph, "x").is_none());
        tel.count_store_rows(5, 5);
        tel.count_sdc(1, 1, 1);
        tel.record_calibration(vec![]);
        tel.set_realized(1.0);
        assert!(tel
            .build_report("fw", "simd", 0.0, &SimReport::default(), &[], &[], 0, 0)
            .is_none());
    }

    #[test]
    fn spans_capture_clock_and_counter_deltas() {
        use apsp_gpu_sim::{KernelCost, LaunchConfig, Pinning};
        let tel = Telemetry::enabled();
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let s = dev.default_stream();
        let mut buf = dev.alloc::<u32>(256).unwrap();
        let ph = tel.phase_start(&dev);
        dev.h2d(s, &[1u32; 256], &mut buf, 0, Pinning::Pinned);
        dev.launch(
            s,
            "work",
            LaunchConfig::saturating(),
            KernelCost::regular(1e9, 0.0),
        );
        let dur = tel.phase_end(&dev, ph, "p1").unwrap();
        assert!(dur > 0.0);
        let report = tel
            .build_report("fw", "simd", dur, &dev.report(), dev.trace(), &[], 0, 0)
            .unwrap();
        assert_eq!(report.spans.len(), 1);
        let span = &report.spans[0];
        assert_eq!(span.name, "p1");
        assert_eq!(span.bytes_h2d, 1024);
        assert_eq!(span.bytes_d2h, 0);
        assert_eq!(span.kernel_launches, 1);
        assert!((span.seconds() - dur).abs() < 1e-15);
    }

    #[test]
    fn realized_seconds_land_on_the_latest_batch() {
        let tel = Telemetry::enabled();
        let rec = |alg: &'static str, filtered: bool| CalibrationRecord {
            algorithm: alg,
            predicted_s: if filtered { None } else { Some(1.0) },
            seed_predicted_s: if filtered { None } else { Some(1.0) },
            filter_reason: filtered.then(|| "filtered".to_string()),
            selected: false,
            realized_s: None,
        };
        tel.record_calibration(vec![rec("johnson", false), rec("fw", false)]);
        tel.set_realized(2.0);
        tel.record_calibration(vec![rec("fw", false), rec("boundary", true)]);
        tel.set_realized(3.0);
        let report = tel
            .build_report("fw", "simd", 3.0, &SimReport::default(), &[], &[], 0, 0)
            .unwrap();
        let realized: Vec<Option<f64>> = report.calibration.iter().map(|c| c.realized_s).collect();
        assert_eq!(realized, vec![Some(2.0), Some(2.0), Some(3.0), None]);
    }

    #[test]
    fn jsonl_is_deterministic_and_marks_empty_timelines() {
        let tel = Telemetry::enabled();
        let report = tel
            .build_report("fw", "simd", 0.0, &SimReport::default(), &[], &[], 0, 0)
            .unwrap();
        let a = report.to_jsonl();
        let b = report.to_jsonl();
        assert_eq!(a, b);
        assert!(
            a.lines().next().unwrap().contains(EMPTY_TIMELINE),
            "empty run must carry the shared empty-timeline marker: {a}"
        );
    }

    #[test]
    fn parser_round_trips_a_report_line() {
        let v = parse_json(
            "{\"record\":\"phase\",\"name\":\"fw.diagonal\",\"seconds\":1.25,\
             \"ok\":true,\"why\":null,\"xs\":[1,2.5,-3e-2]}",
        )
        .unwrap();
        assert_eq!(v.get("record").unwrap().as_str(), Some("phase"));
        assert_eq!(v.get("seconds").unwrap().as_f64(), Some(1.25));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("why"), Some(&JsonValue::Null));
        assert_eq!(
            v.get("xs"),
            Some(&JsonValue::Array(vec![
                JsonValue::Number(1.0),
                JsonValue::Number(2.5),
                JsonValue::Number(-0.03),
            ]))
        );
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn schema_validation_accepts_good_and_rejects_bad_lines() {
        let schema = parse_json(
            "{\"records\":{\"run\":{\"required\":{\"record\":\"string\",\
             \"sim_seconds\":\"number\",\"phases\":\"integer\"},\
             \"optional\":{\"note\":\"string\"}}}}",
        )
        .unwrap();
        validate_jsonl(
            "{\"record\":\"run\",\"sim_seconds\":1.5,\"phases\":3}",
            &schema,
        )
        .unwrap();
        // Missing required field.
        assert!(validate_jsonl("{\"record\":\"run\",\"phases\":3}", &schema).is_err());
        // Wrong type.
        assert!(validate_jsonl(
            "{\"record\":\"run\",\"sim_seconds\":\"x\",\"phases\":3}",
            &schema
        )
        .is_err());
        // Undeclared field.
        assert!(validate_jsonl(
            "{\"record\":\"run\",\"sim_seconds\":1.0,\"phases\":3,\"extra\":1}",
            &schema
        )
        .is_err());
        // Unknown record type.
        assert!(validate_jsonl("{\"record\":\"nope\"}", &schema).is_err());
    }
}

//! Simulated clock: streams, engines, events and makespan.
//!
//! The model mirrors how CUDA devices actually schedule the operations the
//! suite issues: one kernel engine, one DMA engine per copy direction.
//! Each operation belongs to a stream; it starts when both its stream and
//! its engine are free and occupies both until it completes. Overlap
//! between compute and copies (and between opposite copy directions)
//! arises exactly when operations sit on different streams — which is how
//! the paper's double-buffering optimization gains its 12.7–29.1%.

/// A point in simulated time, in seconds from device creation.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Seconds as `f64`.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl std::ops::Add<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: f64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl std::ops::Sub for SimTime {
    type Output = f64;
    #[inline]
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

/// Hardware engines that serialize work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Kernel execution engine (one grid at a time in this model).
    Compute,
    /// Host→device DMA engine.
    CopyH2D,
    /// Device→host DMA engine.
    CopyD2H,
}

impl Engine {
    const COUNT: usize = 3;

    #[inline]
    fn index(self) -> usize {
        match self {
            Engine::Compute => 0,
            Engine::CopyH2D => 1,
            Engine::CopyD2H => 2,
        }
    }
}

/// Identifier of a stream created on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub(crate) usize);

/// A recorded event: a timestamp another stream can wait on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event(pub(crate) SimTime);

impl Event {
    /// When the event fires.
    pub fn time(&self) -> SimTime {
        self.0
    }
}

/// The device clock: per-engine and per-stream availability times.
#[derive(Debug, Clone)]
pub struct Timeline {
    engine_free: [SimTime; Engine::COUNT],
    stream_free: Vec<SimTime>,
    engine_busy_total: [f64; Engine::COUNT],
}

impl Timeline {
    /// New timeline with one (default) stream.
    pub fn new() -> Self {
        Timeline {
            engine_free: [SimTime::ZERO; Engine::COUNT],
            stream_free: vec![SimTime::ZERO],
            engine_busy_total: [0.0; Engine::COUNT],
        }
    }

    /// The default stream (stream 0).
    pub fn default_stream(&self) -> StreamId {
        StreamId(0)
    }

    /// Create a new stream, available immediately.
    pub fn create_stream(&mut self) -> StreamId {
        self.stream_free.push(SimTime::ZERO);
        StreamId(self.stream_free.len() - 1)
    }

    /// Schedule an operation of `duration` seconds on `stream` using
    /// `engine`. Returns the operation's `(start, end)` times.
    pub fn schedule(
        &mut self,
        stream: StreamId,
        engine: Engine,
        duration: f64,
    ) -> (SimTime, SimTime) {
        assert!(duration >= 0.0, "durations cannot be negative");
        assert!(stream.0 < self.stream_free.len(), "unknown stream");
        let e = engine.index();
        let start = self.engine_free[e].max(self.stream_free[stream.0]);
        let end = start + duration;
        self.engine_free[e] = end;
        self.stream_free[stream.0] = end;
        self.engine_busy_total[e] += duration;
        (start, end)
    }

    /// Record an event on a stream: fires when all work so far on that
    /// stream has completed.
    pub fn record_event(&self, stream: StreamId) -> Event {
        Event(self.stream_free[stream.0])
    }

    /// Make `stream` wait for `event` before running anything further.
    pub fn wait_event(&mut self, stream: StreamId, event: Event) {
        self.stream_free[stream.0] = self.stream_free[stream.0].max(event.0);
    }

    /// Block until everything completes; returns the makespan.
    pub fn synchronize(&mut self) -> SimTime {
        let mut t = SimTime::ZERO;
        for &e in &self.engine_free {
            t = t.max(e);
        }
        for &s in &self.stream_free {
            t = t.max(s);
        }
        // After a device-wide sync every engine/stream resumes from `t`.
        for e in &mut self.engine_free {
            *e = t;
        }
        for s in &mut self.stream_free {
            *s = t;
        }
        t
    }

    /// Current makespan without synchronizing.
    pub fn now(&self) -> SimTime {
        let mut t = SimTime::ZERO;
        for &e in &self.engine_free {
            t = t.max(e);
        }
        for &s in &self.stream_free {
            t = t.max(s);
        }
        t
    }

    /// Total busy seconds accumulated on an engine (for utilization
    /// reports).
    pub fn engine_busy(&self, engine: Engine) -> f64 {
        self.engine_busy_total[engine.index()]
    }
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_stream_serializes_across_engines() {
        let mut tl = Timeline::new();
        let s = tl.default_stream();
        let (a0, a1) = tl.schedule(s, Engine::Compute, 1.0);
        let (b0, b1) = tl.schedule(s, Engine::CopyD2H, 2.0);
        assert_eq!(a0.seconds(), 0.0);
        assert_eq!(a1.seconds(), 1.0);
        assert_eq!(b0.seconds(), 1.0); // waits for the kernel despite a free DMA engine
        assert_eq!(b1.seconds(), 3.0);
        assert_eq!(tl.now().seconds(), 3.0);
    }

    #[test]
    fn different_streams_overlap_on_different_engines() {
        let mut tl = Timeline::new();
        let s0 = tl.default_stream();
        let s1 = tl.create_stream();
        tl.schedule(s0, Engine::Compute, 2.0);
        let (c0, c1) = tl.schedule(s1, Engine::CopyD2H, 2.0);
        assert_eq!(c0.seconds(), 0.0); // fully overlapped
        assert_eq!(c1.seconds(), 2.0);
        assert_eq!(tl.synchronize().seconds(), 2.0);
    }

    #[test]
    fn same_engine_serializes_across_streams() {
        let mut tl = Timeline::new();
        let s0 = tl.default_stream();
        let s1 = tl.create_stream();
        tl.schedule(s0, Engine::Compute, 2.0);
        let (c0, _) = tl.schedule(s1, Engine::Compute, 1.0);
        assert_eq!(c0.seconds(), 2.0); // only one kernel engine
    }

    #[test]
    fn events_synchronize_streams() {
        let mut tl = Timeline::new();
        let s0 = tl.default_stream();
        let s1 = tl.create_stream();
        tl.schedule(s0, Engine::Compute, 3.0);
        let ev = tl.record_event(s0);
        tl.wait_event(s1, ev);
        let (c0, _) = tl.schedule(s1, Engine::CopyD2H, 1.0);
        assert_eq!(c0.seconds(), 3.0);
    }

    #[test]
    fn double_buffering_overlaps_as_expected() {
        // Classic pipeline: N chunks, compute 1 s + copy-out 1 s each,
        // alternating between two streams ⇒ makespan ≈ N + 1 instead of 2N.
        let mut tl = Timeline::new();
        let s = [tl.default_stream(), tl.create_stream()];
        let n = 8;
        for i in 0..n {
            let stream = s[i % 2];
            tl.schedule(stream, Engine::Compute, 1.0);
            tl.schedule(stream, Engine::CopyD2H, 1.0);
        }
        let makespan = tl.synchronize().seconds();
        assert!(
            (makespan - (n as f64 + 1.0)).abs() < 1e-9,
            "makespan = {makespan}"
        );
    }

    #[test]
    fn busy_totals_accumulate() {
        let mut tl = Timeline::new();
        let s = tl.default_stream();
        tl.schedule(s, Engine::Compute, 1.5);
        tl.schedule(s, Engine::Compute, 0.5);
        tl.schedule(s, Engine::CopyH2D, 0.25);
        assert_eq!(tl.engine_busy(Engine::Compute), 2.0);
        assert_eq!(tl.engine_busy(Engine::CopyH2D), 0.25);
        assert_eq!(tl.engine_busy(Engine::CopyD2H), 0.0);
    }

    #[test]
    fn synchronize_aligns_all_clocks() {
        let mut tl = Timeline::new();
        let s0 = tl.default_stream();
        let s1 = tl.create_stream();
        tl.schedule(s0, Engine::Compute, 5.0);
        let t = tl.synchronize();
        // After sync, new work on the other stream starts at the barrier.
        let (c0, _) = tl.schedule(s1, Engine::CopyH2D, 1.0);
        assert_eq!(c0, t);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn rejects_negative_duration() {
        let mut tl = Timeline::new();
        let s = tl.default_stream();
        tl.schedule(s, Engine::Compute, -1.0);
    }
}

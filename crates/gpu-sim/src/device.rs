//! The simulated GPU device: allocation, transfers, kernel launches,
//! events and profiling.

use crate::kernel::{KernelCost, LaunchConfig};
use crate::memory::{DeviceBuffer, DeviceReservation, MemoryPool, OutOfDeviceMemory, Pinning};
use crate::profile::DeviceProfile;
use crate::timeline::{Engine, Event, SimTime, StreamId, Timeline};
use std::collections::BTreeMap;

/// Accumulated statistics for one kernel name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Number of launches.
    pub launches: u64,
    /// Total simulated seconds spent.
    pub seconds: f64,
}

/// Profiling snapshot of a device (the suite's `nvprof`).
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Per-kernel totals, in kernel-name order, so every sum over them
    /// takes the same order in every process.
    pub kernels: BTreeMap<String, KernelStats>,
    /// Bytes copied host→device.
    pub bytes_h2d: u64,
    /// Bytes copied device→host.
    pub bytes_d2h: u64,
    /// Number of H2D transfer calls.
    pub transfers_h2d: u64,
    /// Number of D2H transfer calls.
    pub transfers_d2h: u64,
    /// Busy seconds of the compute engine.
    pub compute_busy: f64,
    /// Busy seconds of the H2D copy engine.
    pub h2d_busy: f64,
    /// Busy seconds of the D2H copy engine.
    pub d2h_busy: f64,
    /// Makespan at the time of the report.
    pub elapsed: f64,
    /// Peak device memory in use, bytes.
    pub peak_memory: u64,
    /// Number of device allocations performed.
    pub allocations: u64,
}

impl SimReport {
    /// Total kernel seconds across all kernels, summed in kernel-name
    /// order.
    pub fn total_kernel_seconds(&self) -> f64 {
        self.kernels.values().map(|k| k.seconds).sum()
    }

    /// Fraction of the makespan spent on D2H+H2D engine work — the
    /// paper's "data transfer overhead" percentage. The two copy engines
    /// run concurrently on different streams, so the *sum* of their busy
    /// seconds can legitimately exceed the makespan and the ratio can
    /// exceed 1. The true ratio is returned unclamped: clamping would
    /// hide both real copy/copy overlap and accounting bugs. On a
    /// serialized timeline (every operation on one stream) each engine's
    /// busy time is bounded by the makespan and the ratio stays ≤ 1.
    pub fn transfer_fraction(&self) -> f64 {
        if self.elapsed <= 0.0 {
            0.0
        } else {
            (self.h2d_busy + self.d2h_busy) / self.elapsed
        }
    }
}

/// Monotone operation counters of a device, cheap to snapshot. The
/// telemetry layer diffs two snapshots to attribute bytes and launches
/// to a phase without touching the timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Bytes copied host→device so far.
    pub bytes_h2d: u64,
    /// Bytes copied device→host so far.
    pub bytes_d2h: u64,
    /// Number of H2D transfer calls so far.
    pub transfers_h2d: u64,
    /// Number of D2H transfer calls so far.
    pub transfers_d2h: u64,
    /// Number of kernel launches so far.
    pub kernel_launches: u64,
}

/// A simulated GPU.
///
/// Kernels and transfers execute *eagerly on the host* (the data is always
/// current), while their cost is charged to the device [`Timeline`] in
/// stream order — so results are bit-exact and timing reflects the device
/// model, including compute/copy overlap across streams.
///
/// ```
/// use apsp_gpu_sim::{DeviceProfile, GpuDevice, KernelCost, LaunchConfig, Pinning};
///
/// let mut dev = GpuDevice::new(DeviceProfile::v100());
/// let s = dev.default_stream();
/// let mut buf = dev.alloc::<u32>(1024).unwrap();
/// dev.h2d(s, &[7; 1024], &mut buf, 0, Pinning::Pinned);
/// dev.launch(s, "my_kernel", LaunchConfig::saturating(),
///            KernelCost::regular(1.4e9, 0.0)); // ~1 ms of modeled compute
/// let mut out = vec![0u32; 1024];
/// dev.d2h(s, &buf, 0..1024, &mut out, Pinning::Pinned);
/// let makespan = dev.synchronize();
/// assert_eq!(out[0], 7);                       // data is real
/// assert!(makespan.seconds() > 1e-3);          // time is modeled
/// ```
#[derive(Debug)]
pub struct GpuDevice {
    profile: DeviceProfile,
    pool: MemoryPool,
    timeline: Timeline,
    kernels: BTreeMap<String, KernelStats>,
    bytes_h2d: u64,
    bytes_d2h: u64,
    transfers_h2d: u64,
    transfers_d2h: u64,
    kernel_launches: u64,
    efficiency_divisor: f64,
    trace: Option<Vec<crate::trace::TraceEvent>>,
    kernel_stall: Option<(u64, f64)>,
    /// Pending bit-flip faults: `(countdown over non-empty H2D
    /// transfers, bit index)`. Multiple entries count down concurrently,
    /// mirroring the pool's alloc-failure countdowns.
    bit_flips: Vec<(u64, u64)>,
}

impl GpuDevice {
    /// Create a device from a profile.
    pub fn new(profile: DeviceProfile) -> Self {
        let pool = MemoryPool::new(profile.memory_bytes);
        GpuDevice {
            profile,
            pool,
            timeline: Timeline::new(),
            kernels: BTreeMap::new(),
            bytes_h2d: 0,
            bytes_d2h: 0,
            transfers_h2d: 0,
            transfers_d2h: 0,
            kernel_launches: 0,
            efficiency_divisor: 1.0,
            trace: None,
            kernel_stall: None,
            bit_flips: Vec::new(),
        }
    }

    /// Start recording every operation into a trace (see [`crate::trace`]).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The recorded trace (empty slice when tracing is off).
    pub fn trace(&self) -> &[crate::trace::TraceEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    fn record_trace(
        &mut self,
        name: &str,
        engine: Engine,
        stream: StreamId,
        span: (SimTime, SimTime),
    ) {
        if let Some(t) = self.trace.as_mut() {
            t.push(crate::trace::TraceEvent {
                name: name.to_string(),
                engine,
                stream: stream.0,
                start: span.0.seconds(),
                end: span.1.seconds(),
            });
        }
    }

    /// Set the kernel-efficiency context: subsequent kernel durations are
    /// multiplied by `divisor` (≥ 1). Implementations whose kernels run
    /// measurably below the profile's anchor efficiency — e.g. chains of
    /// skinny panel multiplies with extraction overheads — declare their
    /// measured divisor around their launches. Transfers are unaffected.
    pub fn set_kernel_efficiency_divisor(&mut self, divisor: f64) {
        assert!(divisor >= 1.0, "divisor must be at least 1");
        self.efficiency_divisor = divisor;
    }

    /// The device's profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Bytes currently allocated.
    pub fn used_memory(&self) -> u64 {
        self.pool.in_use()
    }

    /// Bytes still available (zero when an injected shrink put capacity
    /// below current usage).
    pub fn free_memory(&self) -> u64 {
        self.pool.capacity().saturating_sub(self.pool.in_use())
    }

    /// Fault injection: make the `kth` subsequent non-empty allocation
    /// (1 = the very next one) fail with [`OutOfDeviceMemory`] regardless
    /// of remaining capacity, then clear the fault. Models spurious
    /// mid-run allocation failures (fragmentation, a competing context).
    pub fn inject_alloc_failure(&self, kth: u64) {
        self.pool.inject_alloc_failure(kth);
    }

    /// Disarm a pending [`Self::inject_alloc_failure`] fault.
    pub fn clear_alloc_failure(&self) {
        self.pool.clear_alloc_failure();
    }

    /// Fault injection: make the `kth` subsequent kernel launch (1 = the
    /// very next one) take `extra_seconds` longer on the timeline, then
    /// clear the fault. The kernel still runs and produces correct data —
    /// only its modeled duration stretches, so a hung/slow kernel is
    /// observable purely through the simulated clock (and thus through a
    /// supervisor's progress budget).
    pub fn inject_kernel_stall(&mut self, kth: u64, extra_seconds: f64) {
        assert!(kth >= 1, "kth is 1-based");
        assert!(extra_seconds >= 0.0, "a stall cannot shorten a kernel");
        self.kernel_stall = Some((kth, extra_seconds));
    }

    /// Seconds of injected stall owed by the current launch (one-shot).
    fn take_stall_penalty(&mut self) -> f64 {
        if let Some((k, extra)) = &mut self.kernel_stall {
            *k -= 1;
            if *k == 0 {
                let extra = *extra;
                self.kernel_stall = None;
                return extra;
            }
        }
        0.0
    }

    /// Fault injection: flip a bit in the destination region of the
    /// `kth` subsequent non-empty host→device transfer (1 = the very
    /// next one), then clear the fault. The flip lands *after* the copy,
    /// so the host source stays clean while the device-resident tile is
    /// silently corrupted — the soft-error failure mode the SDC guards
    /// exist to catch. `bit` wraps modulo the region's bit width.
    /// Multiple armed flips count down concurrently. Only arm this when
    /// the transfers carry plain integer elements (all of this suite's
    /// do); see [`DeviceBuffer::flip_bit`].
    pub fn inject_bit_flip(&mut self, kth: u64, bit: u64) {
        assert!(kth >= 1, "transfer ordinals are 1-based");
        self.bit_flips.push((kth, bit));
    }

    /// Disarm all pending [`Self::inject_bit_flip`] faults.
    pub fn clear_bit_flips(&mut self) {
        self.bit_flips.clear();
    }

    /// Count one non-empty H2D transfer against every armed flip; fired
    /// bit indices are returned and their entries consumed.
    fn take_fired_bit_flips(&mut self) -> Vec<u64> {
        let mut fired = Vec::new();
        for (countdown, bit) in self.bit_flips.iter_mut() {
            *countdown -= 1;
            if *countdown == 0 {
                fired.push(*bit);
            }
        }
        self.bit_flips.retain(|(c, _)| *c > 0);
        fired
    }

    /// Fault injection: change usable device memory at runtime. Shrinking
    /// below `used_memory()` is allowed — live buffers stay valid, new
    /// allocations fail until enough is freed. Both the pool and the
    /// profile observe the new size, so algorithms that re-read
    /// `profile().memory_bytes` re-plan against the shrunken device.
    pub fn set_memory_bytes(&mut self, bytes: u64) {
        self.profile.memory_bytes = bytes;
        self.pool.set_capacity(bytes);
    }

    /// The default stream.
    pub fn default_stream(&self) -> StreamId {
        self.timeline.default_stream()
    }

    /// Create an additional stream.
    pub fn create_stream(&mut self) -> StreamId {
        self.timeline.create_stream()
    }

    /// Allocate a zero-initialized device buffer of `len` elements.
    pub fn alloc<T: Copy + Default>(
        &self,
        len: usize,
    ) -> Result<DeviceBuffer<T>, OutOfDeviceMemory> {
        DeviceBuffer::new(len, self.pool.clone())
    }

    /// Reserve `bytes` of device memory with no host storage behind it.
    /// Counts as an allocation, fault injection included.
    pub fn reserve(&self, bytes: u64) -> Result<DeviceReservation, OutOfDeviceMemory> {
        DeviceReservation::new(bytes, self.pool.clone())
    }

    /// Copy `src` into `dst[offset .. offset + src.len()]` (host→device)
    /// on `stream`, charging `latency + bytes / rate(pinning)`.
    pub fn h2d<T: Copy>(
        &mut self,
        stream: StreamId,
        src: &[T],
        dst: &mut DeviceBuffer<T>,
        offset: usize,
        pinning: Pinning,
    ) {
        assert!(
            offset + src.len() <= dst.len(),
            "h2d range {}..{} exceeds buffer of {}",
            offset,
            offset + src.len(),
            dst.len()
        );
        dst.as_mut_slice()[offset..offset + src.len()].copy_from_slice(src);
        if !src.is_empty() && !self.bit_flips.is_empty() {
            for bit in self.take_fired_bit_flips() {
                dst.flip_bit(offset..offset + src.len(), bit);
            }
        }
        let bytes = std::mem::size_of_val(src) as u64;
        let rate = self.profile.transfer_rate(true, pinning == Pinning::Pinned);
        let dur = self.profile.transfer_latency + bytes as f64 / rate;
        let span = self.timeline.schedule(stream, Engine::CopyH2D, dur);
        self.record_trace("h2d", Engine::CopyH2D, stream, span);
        self.bytes_h2d += bytes;
        self.transfers_h2d += 1;
    }

    /// Copy `src[range]` into `dst` (device→host) on `stream`.
    pub fn d2h<T: Copy>(
        &mut self,
        stream: StreamId,
        src: &DeviceBuffer<T>,
        range: std::ops::Range<usize>,
        dst: &mut [T],
        pinning: Pinning,
    ) {
        assert!(range.end <= src.len(), "d2h range out of bounds");
        assert_eq!(range.len(), dst.len(), "d2h destination size mismatch");
        dst.copy_from_slice(&src.as_slice()[range]);
        self.charge_d2h(stream, std::mem::size_of_val(dst) as u64, pinning);
    }

    /// Charge a device→host copy of `bytes` on `stream` without moving
    /// data, for output the host already holds: one transfer, priced as
    /// [`Self::d2h`] prices it.
    pub fn charge_d2h(&mut self, stream: StreamId, bytes: u64, pinning: Pinning) {
        let rate = self
            .profile
            .transfer_rate(false, pinning == Pinning::Pinned);
        let dur = self.profile.transfer_latency + bytes as f64 / rate;
        let span = self.timeline.schedule(stream, Engine::CopyD2H, dur);
        self.record_trace("d2h", Engine::CopyD2H, stream, span);
        self.bytes_d2h += bytes;
        self.transfers_d2h += 1;
    }

    /// Charge a kernel execution on `stream`. The caller performs the
    /// actual host-side computation on its buffers; this accounts for the
    /// device time.
    pub fn launch(&mut self, stream: StreamId, name: &str, launch: LaunchConfig, cost: KernelCost) {
        let dur = cost.duration(&self.profile, launch) * self.efficiency_divisor
            + self.take_stall_penalty();
        let span = self.timeline.schedule(stream, Engine::Compute, dur);
        self.record_trace(name, Engine::Compute, stream, span);
        self.kernel_launches += 1;
        let entry = self.kernels.entry(name.to_string()).or_default();
        entry.launches += 1;
        entry.seconds += dur;
    }

    /// Charge a kernel that additionally performs `child_launches`
    /// device-side (dynamic-parallelism) launches.
    pub fn launch_with_children(
        &mut self,
        stream: StreamId,
        name: &str,
        launch: LaunchConfig,
        cost: KernelCost,
        child_launches: u64,
    ) {
        let dur = cost.duration(&self.profile, launch) * self.efficiency_divisor
            + child_launches as f64 * self.profile.dynamic_launch_overhead
            + self.take_stall_penalty();
        let span = self.timeline.schedule(stream, Engine::Compute, dur);
        self.record_trace(name, Engine::Compute, stream, span);
        self.kernel_launches += 1;
        let entry = self.kernels.entry(name.to_string()).or_default();
        entry.launches += 1;
        entry.seconds += dur;
    }

    /// Record an event on a stream.
    pub fn record_event(&self, stream: StreamId) -> Event {
        self.timeline.record_event(stream)
    }

    /// Make `stream` wait on `event`.
    pub fn wait_event(&mut self, stream: StreamId, event: Event) {
        self.timeline.wait_event(stream, event);
    }

    /// Device-wide barrier; returns the makespan so far.
    pub fn synchronize(&mut self) -> SimTime {
        self.timeline.synchronize()
    }

    /// Current makespan without a barrier.
    pub fn elapsed(&self) -> SimTime {
        self.timeline.now()
    }

    /// Cheap snapshot of the monotone operation counters (no timeline
    /// access, no allocation).
    pub fn counters(&self) -> DeviceCounters {
        DeviceCounters {
            bytes_h2d: self.bytes_h2d,
            bytes_d2h: self.bytes_d2h,
            transfers_h2d: self.transfers_h2d,
            transfers_d2h: self.transfers_d2h,
            kernel_launches: self.kernel_launches,
        }
    }

    /// Profiling snapshot.
    pub fn report(&self) -> SimReport {
        let report = SimReport {
            kernels: self.kernels.clone(),
            bytes_h2d: self.bytes_h2d,
            bytes_d2h: self.bytes_d2h,
            transfers_h2d: self.transfers_h2d,
            transfers_d2h: self.transfers_d2h,
            compute_busy: self.timeline.engine_busy(Engine::Compute),
            h2d_busy: self.timeline.engine_busy(Engine::CopyH2D),
            d2h_busy: self.timeline.engine_busy(Engine::CopyD2H),
            elapsed: self.timeline.now().seconds(),
            peak_memory: self.pool.peak(),
            allocations: self.pool.alloc_count(),
        };
        // Each engine serializes its own operations, so no single
        // engine's busy time can exceed the makespan. A violation means
        // the timeline's accounting is broken, which `.min(1.0)` used to
        // mask.
        debug_assert!(
            report.compute_busy <= report.elapsed + 1e-9,
            "compute engine busy {} exceeds makespan {}",
            report.compute_busy,
            report.elapsed
        );
        debug_assert!(
            report.h2d_busy <= report.elapsed + 1e-9,
            "h2d engine busy {} exceeds makespan {}",
            report.h2d_busy,
            report.elapsed
        );
        debug_assert!(
            report.d2h_busy <= report.elapsed + 1e-9,
            "d2h engine busy {} exceeds makespan {}",
            report.d2h_busy,
            report.elapsed
        );
        report
    }

    /// The paper measures PCIe throughput by timing a 1M-integer D2H copy
    /// under `nvprof`; this replicates that measurement on the simulated
    /// link and returns bytes/second (pinned). On artificially tiny
    /// devices the probe shrinks to half the free memory.
    pub fn measure_transfer_throughput(&mut self) -> f64 {
        let stream = self.default_stream();
        let len = (self.free_memory() as usize / 8).clamp(1, 1_000_000);
        let buf: DeviceBuffer<u32> = self.alloc(len).expect("probe sized to available memory");
        let mut host = vec![0u32; len];
        let before = self.elapsed();
        self.d2h(stream, &buf, 0..len, &mut host, Pinning::Pinned);
        let after = self.synchronize();
        let bytes = 4.0 * len as f64;
        bytes / (after - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> GpuDevice {
        GpuDevice::new(DeviceProfile::v100())
    }

    /// Kernel seconds whose float sum depends on the order it is taken
    /// in. Maps built in many insertion orders (and, for a hashed map,
    /// with a fresh hasher each) must all give the bits of the sum in
    /// kernel-name order.
    #[test]
    fn total_kernel_seconds_has_one_value_per_report() {
        let seconds = [1.0, 1e-16, 1e-16, 1e-16, 0.1, 0.2, 0.3, 7e-17];
        let forward: f64 = seconds.iter().sum();
        let backward: f64 = seconds.iter().rev().sum();
        assert_ne!(forward.to_bits(), backward.to_bits(), "order must matter");
        let k = seconds.len();
        for rotation in 0..64 {
            let report = SimReport {
                kernels: (0..k)
                    .map(|i| (i * 3 + rotation) % k)
                    .map(|i| {
                        let stats = KernelStats {
                            launches: 1,
                            seconds: seconds[i],
                        };
                        (format!("kernel-{i}"), stats)
                    })
                    .collect(),
                ..Default::default()
            };
            assert_eq!(
                report.total_kernel_seconds().to_bits(),
                forward.to_bits(),
                "insertion order {rotation}"
            );
        }
    }

    #[test]
    fn transfers_move_data_and_time() {
        let mut d = dev();
        let s = d.default_stream();
        let mut buf: DeviceBuffer<u32> = d.alloc(8).unwrap();
        d.h2d(s, &[1, 2, 3, 4], &mut buf, 2, Pinning::Pinned);
        assert_eq!(&buf.as_slice()[..8], &[0, 0, 1, 2, 3, 4, 0, 0]);
        let mut out = vec![0u32; 2];
        d.d2h(s, &buf, 3..5, &mut out, Pinning::Pinned);
        assert_eq!(out, vec![2, 3]);
        assert!(d.elapsed().seconds() > 0.0);
        let r = d.report();
        assert_eq!(r.bytes_h2d, 16);
        assert_eq!(r.bytes_d2h, 8);
        assert_eq!(r.transfers_h2d, 1);
        assert_eq!(r.transfers_d2h, 1);
    }

    #[test]
    fn a_charged_d2h_costs_what_a_copy_costs() {
        let (mut copied, mut charged) = (dev(), dev());
        let s = copied.default_stream();
        let buf: DeviceBuffer<u32> = copied.alloc(1000).unwrap();
        let mut out = vec![0u32; 1000];
        copied.d2h(s, &buf, 0..1000, &mut out, Pinning::Pageable);
        charged.charge_d2h(s, 4000, Pinning::Pageable);
        assert_eq!(copied.counters(), charged.counters());
        assert_eq!(copied.elapsed(), charged.elapsed());
    }

    #[test]
    fn pageable_transfers_cost_more() {
        let mut d1 = dev();
        let mut d2 = dev();
        let s = d1.default_stream();
        let buf1: DeviceBuffer<u32> = d1.alloc(1 << 20).unwrap();
        let buf2: DeviceBuffer<u32> = d2.alloc(1 << 20).unwrap();
        let mut out = vec![0u32; 1 << 20];
        d1.d2h(s, &buf1, 0..1 << 20, &mut out, Pinning::Pinned);
        let t_pinned = d1.synchronize().seconds();
        d2.d2h(s, &buf2, 0..1 << 20, &mut out, Pinning::Pageable);
        let t_pageable = d2.synchronize().seconds();
        assert!(t_pageable > t_pinned * 1.5, "{t_pageable} vs {t_pinned}");
    }

    #[test]
    fn kernel_launch_accounts_time_by_name() {
        let mut d = dev();
        let s = d.default_stream();
        let cost = KernelCost::regular(1.4e12, 0.0); // ~1 s
        d.launch(s, "minplus", LaunchConfig::saturating(), cost);
        d.launch(s, "minplus", LaunchConfig::saturating(), cost);
        let r = d.report();
        let k = &r.kernels["minplus"];
        assert_eq!(k.launches, 2);
        assert!((k.seconds - 2.0).abs() < 0.01);
        assert!((r.compute_busy - 2.0).abs() < 0.01);
    }

    #[test]
    fn dynamic_children_add_overhead() {
        let mut d = dev();
        let s = d.default_stream();
        let cost = KernelCost::regular(0.0, 0.0);
        d.launch_with_children(s, "mssp", LaunchConfig::saturating(), cost, 1000);
        let expect =
            d.profile().kernel_launch_overhead + 1000.0 * d.profile().dynamic_launch_overhead;
        assert!((d.elapsed().seconds() - expect).abs() < 1e-9);
    }

    #[test]
    fn overlap_requires_streams() {
        // Same work, one stream vs two: the two-stream version must be
        // faster because compute overlaps the copy-out.
        let run = |two_streams: bool| -> f64 {
            let mut d = dev();
            let s0 = d.default_stream();
            let s1 = if two_streams { d.create_stream() } else { s0 };
            let buf: DeviceBuffer<u32> = d.alloc(1 << 22).unwrap();
            let mut host = vec![0u32; 1 << 22];
            // Kernel time (~1.4 ms) comparable to the 16 MB copy (~1.4 ms)
            // so overlap has something to win.
            let cost = KernelCost::regular(2.0e9, 0.0);
            for i in 0..8 {
                let s = if i % 2 == 0 { s0 } else { s1 };
                d.launch(s, "work", LaunchConfig::saturating(), cost);
                d.d2h(s, &buf, 0..1 << 22, &mut host, Pinning::Pinned);
            }
            d.synchronize().seconds()
        };
        let serial = run(false);
        let overlapped = run(true);
        assert!(
            overlapped < serial * 0.85,
            "overlapped {overlapped} vs serial {serial}"
        );
    }

    #[test]
    fn memory_exhaustion_propagates() {
        let d = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(1024));
        assert!(d.alloc::<u64>(100).is_ok());
        assert!(d.alloc::<u64>(200).is_err());
    }

    #[test]
    fn injected_alloc_failure_is_one_shot() {
        let d = dev();
        d.inject_alloc_failure(1);
        let err = d.alloc::<u32>(16).unwrap_err();
        assert_eq!(err.available, 0);
        assert!(d.alloc::<u32>(16).is_ok(), "fault must clear after firing");
    }

    #[test]
    fn injected_kernel_stall_is_one_shot_and_timeline_only() {
        let mut d = dev();
        let s = d.default_stream();
        let cost = KernelCost::regular(1.4e12, 0.0); // ~1 s
        d.inject_kernel_stall(2, 5.0);
        d.launch(s, "work", LaunchConfig::saturating(), cost);
        let after_first = d.synchronize().seconds();
        assert!(after_first < 1.5, "first launch unaffected: {after_first}");
        d.launch(s, "work", LaunchConfig::saturating(), cost);
        let after_second = d.synchronize().seconds();
        assert!(
            after_second - after_first > 5.0,
            "second launch absorbs the stall: {after_second}"
        );
        d.launch(s, "work", LaunchConfig::saturating(), cost);
        let after_third = d.synchronize().seconds();
        assert!(
            after_third - after_second < 1.5,
            "fault must clear after firing: {after_third}"
        );
        assert_eq!(d.report().kernels["work"].launches, 3);
    }

    #[test]
    fn injected_bit_flip_corrupts_device_not_host() {
        let mut d = dev();
        let s = d.default_stream();
        let mut buf: DeviceBuffer<u32> = d.alloc(8).unwrap();
        let src = [5u32; 4];
        // Second transfer, bit 1 of its destination region (element 0).
        d.inject_bit_flip(2, 1);
        d.h2d(s, &src, &mut buf, 0, Pinning::Pinned);
        assert_eq!(&buf.as_slice()[..4], &[5, 5, 5, 5], "first is clean");
        d.h2d(s, &src, &mut buf, 4, Pinning::Pinned);
        assert_eq!(src, [5; 4], "host source untouched");
        assert_eq!(
            &buf.as_slice()[4..],
            &[5 ^ 2, 5, 5, 5],
            "device region carries the flip"
        );
        // One-shot: the next transfer is clean again.
        d.h2d(s, &src, &mut buf, 0, Pinning::Pinned);
        assert_eq!(&buf.as_slice()[..4], &[5, 5, 5, 5]);
    }

    #[test]
    fn bit_flips_count_down_concurrently_and_clear() {
        let mut d = dev();
        let s = d.default_stream();
        let mut buf: DeviceBuffer<u32> = d.alloc(1).unwrap();
        d.inject_bit_flip(1, 0);
        d.inject_bit_flip(2, 0);
        d.h2d(s, &[0u32], &mut buf, 0, Pinning::Pinned);
        assert_eq!(buf.as_slice(), &[1], "first flip fired");
        d.h2d(s, &[0u32], &mut buf, 0, Pinning::Pinned);
        assert_eq!(buf.as_slice(), &[1], "second flip fired");
        d.inject_bit_flip(1, 0);
        d.clear_bit_flips();
        d.h2d(s, &[0u32], &mut buf, 0, Pinning::Pinned);
        assert_eq!(buf.as_slice(), &[0], "disarmed before firing");
        // Empty transfers never consume a countdown.
        d.inject_bit_flip(1, 0);
        d.h2d(s, &[] as &[u32], &mut buf, 0, Pinning::Pinned);
        d.h2d(s, &[0u32], &mut buf, 0, Pinning::Pinned);
        assert_eq!(buf.as_slice(), &[1]);
    }

    #[test]
    fn shrunken_memory_updates_profile_and_pool() {
        let mut d = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(1 << 20));
        let held = d.alloc::<u8>(1 << 19).unwrap();
        d.set_memory_bytes(1 << 18);
        assert_eq!(d.profile().memory_bytes, 1 << 18);
        assert_eq!(d.free_memory(), 0);
        assert!(d.alloc::<u8>(1).is_err());
        drop(held);
        assert!(d.alloc::<u8>(1 << 17).is_ok());
    }

    #[test]
    fn throughput_measurement_matches_profile() {
        let mut d = dev();
        let measured = d.measure_transfer_throughput();
        let expected = d.profile().d2h_bytes_per_sec;
        // Latency skews it slightly below the asymptotic rate.
        assert!(
            measured > 0.9 * expected && measured <= expected,
            "measured {measured} vs {expected}"
        );
    }

    #[test]
    fn trace_records_ops_in_timeline_order() {
        let mut d = dev();
        d.enable_trace();
        let s = d.default_stream();
        let buf: DeviceBuffer<u32> = d.alloc(1024).unwrap();
        let mut host = vec![0u32; 1024];
        d.launch(
            s,
            "work",
            LaunchConfig::saturating(),
            KernelCost::regular(1e9, 0.0),
        );
        d.d2h(s, &buf, 0..1024, &mut host, Pinning::Pinned);
        let trace = d.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].name, "work");
        assert_eq!(trace[1].name, "d2h");
        // Same stream: the copy starts when the kernel ends.
        assert!((trace[1].start - trace[0].end).abs() < 1e-12);
        // And the Gantt renders.
        let chart = crate::trace::render_gantt(trace, 40);
        assert!(chart.contains("compute |"));
    }

    #[test]
    fn trace_off_by_default() {
        let mut d = dev();
        let s = d.default_stream();
        d.launch(
            s,
            "work",
            LaunchConfig::saturating(),
            KernelCost::regular(1.0, 0.0),
        );
        assert!(d.trace().is_empty());
    }

    #[test]
    fn transfer_fraction_is_bounded_on_a_serialized_timeline() {
        // Everything on one stream: each engine's busy time is a subset
        // of the makespan, so the unclamped ratio must stay within 1.
        let mut d = dev();
        let s = d.default_stream();
        let mut buf: DeviceBuffer<u32> = d.alloc(1024).unwrap();
        let mut out = vec![0u32; 1024];
        d.h2d(s, &[3u32; 1024], &mut buf, 0, Pinning::Pinned);
        d.launch(
            s,
            "work",
            LaunchConfig::saturating(),
            KernelCost::regular(1e9, 0.0),
        );
        d.d2h(s, &buf, 0..1024, &mut out, Pinning::Pinned);
        d.synchronize();
        let r = d.report();
        assert!(
            r.transfer_fraction() > 0.0 && r.transfer_fraction() <= 1.0,
            "serialized timeline must keep the ratio in (0, 1]: {}",
            r.transfer_fraction()
        );
    }

    #[test]
    fn transfer_fraction_reports_true_ratio_under_copy_overlap() {
        // H2D on one stream, D2H on another: the copy engines run
        // concurrently, so their combined busy time exceeds the makespan
        // and the honest ratio exceeds 1. The old `.min(1.0)` clamp hid
        // exactly this case.
        let mut d = dev();
        let s0 = d.default_stream();
        let s1 = d.create_stream();
        let mut buf: DeviceBuffer<u32> = d.alloc(1 << 20).unwrap();
        let src = vec![1u32; 1 << 20];
        let mut out = vec![0u32; 1 << 20];
        for _ in 0..4 {
            d.h2d(s0, &src, &mut buf, 0, Pinning::Pinned);
            d.d2h(s1, &buf, 0..1 << 20, &mut out, Pinning::Pinned);
        }
        d.synchronize();
        let r = d.report();
        assert!(
            r.transfer_fraction() > 1.0,
            "concurrent copy engines must push the ratio past 1: {}",
            r.transfer_fraction()
        );
    }

    #[test]
    fn counters_snapshot_tracks_operations() {
        let mut d = dev();
        let s = d.default_stream();
        assert_eq!(d.counters(), DeviceCounters::default());
        let mut buf: DeviceBuffer<u32> = d.alloc(16).unwrap();
        let mut out = vec![0u32; 16];
        d.h2d(s, &[1u32; 16], &mut buf, 0, Pinning::Pinned);
        d.launch(
            s,
            "work",
            LaunchConfig::saturating(),
            KernelCost::regular(1.0, 0.0),
        );
        d.launch_with_children(
            s,
            "mssp",
            LaunchConfig::saturating(),
            KernelCost::regular(1.0, 0.0),
            4,
        );
        d.d2h(s, &buf, 0..16, &mut out, Pinning::Pinned);
        let c = d.counters();
        assert_eq!(c.bytes_h2d, 64);
        assert_eq!(c.bytes_d2h, 64);
        assert_eq!(c.transfers_h2d, 1);
        assert_eq!(c.transfers_d2h, 1);
        assert_eq!(c.kernel_launches, 2);
    }
}

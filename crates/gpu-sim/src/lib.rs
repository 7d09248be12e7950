//! Discrete-event GPU device simulator.
//!
//! The paper runs on NVIDIA V100/K80 GPUs; this environment has no GPU, so
//! the suite substitutes a *simulated device*: kernels execute on the host
//! (bit-exact results, fully testable) while a timeline model charges
//! **simulated time** derived from a [`DeviceProfile`] — effective compute
//! throughput, device memory bandwidth, PCIe H2D/D2H throughput, kernel
//! launch overheads and per-transfer latency.
//!
//! Everything the out-of-core algorithms depend on is modeled:
//!
//! * **capacity-limited device memory** ([`memory`]) — allocation fails
//!   past the profile's capacity, which is what forces the out-of-core
//!   block/batch sizing formulas (`n_d`, `bat`, `N_row`) to engage;
//! * **streams + copy/compute engines** ([`timeline`]) — one compute
//!   engine and one copy engine per direction; operations on the same
//!   stream serialize, operations on different streams overlap up to
//!   engine contention, so double-buffered transfer/compute overlap (the
//!   paper's Fig 8 optimization) falls out of the makespan computation;
//! * **kernel cost model** ([`kernel`]) — duration =
//!   `launch_overhead + max(flops/compute, bytes/bandwidth) ·
//!   irregularity / occupancy`, where occupancy penalizes kernels that
//!   launch fewer blocks than the device can host (the effect the paper's
//!   dynamic-parallelism optimization attacks);
//! * **pinned vs pageable transfers and per-transfer latency** — the
//!   effects the paper's transfer batching attacks;
//! * a **profiler** ([`device::SimReport`]) with per-kernel and per-engine
//!   breakdowns, mirroring what the authors extracted from `nvprof`.
//!
//! Two stock profiles mirror the paper's Table II hardware
//! ([`DeviceProfile::v100`], [`DeviceProfile::k80`]); the PCIe throughputs
//! are the paper's own measured values (11.75 and 7.23 GB/s).

pub mod device;
pub mod kernel;
pub mod memory;
pub mod profile;
pub mod timeline;
pub mod trace;

pub use device::{DeviceCounters, GpuDevice, SimReport};
pub use kernel::{KernelCost, LaunchConfig};
pub use memory::{DeviceBuffer, DeviceReservation, OutOfDeviceMemory, Pinning};
pub use profile::DeviceProfile;
pub use timeline::{Engine, Event, SimTime, StreamId, Timeline};
pub use trace::TraceEvent;

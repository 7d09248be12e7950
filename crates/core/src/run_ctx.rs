//! [`RunCtx`]: the optional context every out-of-core driver's `run`
//! takes next to its graph, store and options. Each driver module also
//! exports a four-argument form that passes `&RunCtx::default()`.

use crate::checkpoint::Checkpoint;
use crate::error::ApspError;
use crate::supervisor::Supervisor;
use crate::tile_store::TileStore;
use std::borrow::Cow;

/// What arms one driver run beyond its options. `RunCtx::default()` is
/// unsupervised and not checkpointed.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCtx<'a> {
    /// Arms the barrier checks (deadline, progress watchdog,
    /// cancellation), the retry policy and telemetry. Without one the
    /// run answers to [`Supervisor::unarmed`].
    pub supervisor: Option<&'a Supervisor>,
    /// Arms resume from a committed manifest, a commit at every natural
    /// barrier, and the clear on success.
    pub checkpoint: Option<&'a Checkpoint>,
}

impl<'a> RunCtx<'a> {
    /// The supervisor the run answers to: the caller's, or an unarmed one.
    pub(crate) fn supervisor(&self) -> Cow<'a, Supervisor> {
        match self.supervisor {
            Some(sup) => Cow::Borrowed(sup),
            None => Cow::Owned(Supervisor::unarmed()),
        }
    }

    /// Clear the checkpoint once the run succeeded. A failed run keeps
    /// its last commit, so a later call resumes instead of starting
    /// over.
    pub(crate) fn finish<S>(&self, result: Result<S, ApspError>) -> Result<S, ApspError> {
        let stats = result?;
        if let Some(ckpt) = self.checkpoint {
            ckpt.clear()?;
        }
        Ok(stats)
    }
}

/// A checkpointed, unsupervised context — the tests' shorthand.
#[cfg(test)]
pub(crate) fn durable(ckpt: &Checkpoint) -> RunCtx<'_> {
    RunCtx {
        checkpoint: Some(ckpt),
        ..Default::default()
    }
}

/// A store whose dimension does not match the graph is bad input — a
/// typed [`ApspError::InvalidInput`], never a panic.
pub(crate) fn check_store(store: &TileStore, n: usize) -> Result<(), ApspError> {
    if store.n() != n {
        return Err(ApspError::InvalidInput(format!(
            "tile store holds a {0}×{0} matrix but the graph has {n} vertices",
            store.n()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{BoundaryOptions, FwOptions, JohnsonOptions};
    use crate::tile_store::StorageBackend;
    use crate::{multi_gpu, ooc_boundary, ooc_fw, ooc_johnson, ApspErrorKind};
    use apsp_gpu_sim::{DeviceProfile, GpuDevice};
    use apsp_graph::generators::{grid_2d, GridOptions, WeightRange};

    #[test]
    fn every_run_rejects_a_wrong_sized_store_typed() {
        let g = grid_2d(6, 6, GridOptions::default(), WeightRange::default(), 1);
        let dir = std::env::temp_dir().join(format!("apsp_run_ctx_dim-{}", std::process::id()));
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let dev = || GpuDevice::new(DeviceProfile::v100());
        let bo = BoundaryOptions::default();
        for ctx in [RunCtx::default(), durable(&ckpt)] {
            let mut store = TileStore::new(35, &StorageBackend::Memory).unwrap();
            let results = [
                ooc_fw::run(&mut dev(), &g, &mut store, &FwOptions::default(), &ctx).err(),
                ooc_johnson::run(&mut dev(), &g, &mut store, &JohnsonOptions::default(), &ctx)
                    .err(),
                ooc_boundary::run(&mut dev(), &g, &mut store, &bo, &ctx).err(),
                multi_gpu::run(&mut [dev(), dev()], &g, &mut store, &bo, &ctx).err(),
            ];
            for err in results {
                let err = err.expect("a 35×35 store cannot hold a 36-vertex graph");
                assert_eq!(err.kind(), ApspErrorKind::InvalidInput, "{err}");
                assert!(err.to_string().contains("36 vertices"), "{err}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

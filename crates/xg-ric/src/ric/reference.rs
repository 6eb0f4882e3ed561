//! The cache-and-rebuild E2 view, kept as a test oracle.
//!
//! Before [`Ric`] kept one persistent [`Indication`], each step stored
//! the latest report per cell in a `cache` map, the period it arrived in
//! in a `last_seen` map, and rebuilt a fresh `Vec<CellView>` (a clone of
//! every cached report) for the xApps. [`CacheAndRebuild`] is that step,
//! verbatim but for the profiler, and the proptest below holds
//! [`Ric::step`] to it: the same view and the same outcome after every
//! period.

use super::*;
use crate::xapps::{BurstGuard, DemandSlicer, McsCapper};
use std::collections::BTreeMap;
use xg_net::e2::{SliceReport, UeReport};
use xg_net::slice::Snssai;
use xg_prop::prelude::*;

pub(super) struct CacheAndRebuild {
    seed: u64,
    period_s: f64,
    seq: u64,
    xapps: Vec<Registered>,
    cache: BTreeMap<u32, CellIndication>,
    last_seen: BTreeMap<u32, u64>,
}

impl CacheAndRebuild {
    pub(super) fn new(seed: u64, period_s: f64) -> Self {
        CacheAndRebuild {
            seed,
            period_s,
            seq: 0,
            xapps: Vec::new(),
            cache: BTreeMap::new(),
            last_seen: BTreeMap::new(),
        }
    }

    pub(super) fn register<A: XApp + 'static>(&mut self, app: A) -> &mut Self {
        let index = self.xapps.len();
        self.xapps.push(Registered {
            app: Box::new(app),
            ctx: XAppCtx::new(xapp_seed(self.seed, index)),
        });
        self
    }

    /// One period: the view the xApps read, and the step's outcome.
    pub(super) fn step(
        &mut self,
        fresh: Vec<CellIndication>,
        t_s: f64,
    ) -> (Indication, RicOutcome) {
        self.seq += 1;
        for ind in fresh {
            self.last_seen.insert(ind.cell, self.seq);
            self.cache.insert(ind.cell, ind);
        }
        let cells: Vec<CellView> = self
            .cache
            .values()
            .map(|report| {
                let seen = self.last_seen.get(&report.cell).copied().unwrap_or(0);
                CellView {
                    stale: seen != self.seq,
                    age_periods: self.seq.saturating_sub(seen),
                    report: report.clone(),
                }
            })
            .collect();
        let stale_cells: Vec<u32> = cells
            .iter()
            .filter(|c| c.stale)
            .map(|c| c.report.cell)
            .collect();
        let indication = Indication {
            seq: self.seq,
            t_s,
            period_s: self.period_s,
            cells,
        };
        let mut emitted = Vec::new();
        for (index, reg) in self.xapps.iter_mut().enumerate() {
            let name = reg.app.name();
            for action in reg.app.on_indication(&mut reg.ctx, &indication) {
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
                held += 1;
            } else {
                actions.push((e.xapp, e.action));
            }
        }
        let outcome = RicOutcome {
            actions,
            stale_cells,
            held,
        };
        (indication, outcome)
    }
}

/// Acts on every cell in the view, stale ones included, with a weight
/// drawn from its age and the xApp's private stream, so a wrong age, a
/// wrong staleness flag or a wrong hold shows in the outcome.
#[derive(Debug, Clone)]
struct EveryCell;

impl XApp for EveryCell {
    fn name(&self) -> &'static str {
        "every-cell"
    }

    fn on_indication(&mut self, ctx: &mut XAppCtx, ind: &Indication) -> Vec<RicAction> {
        ind.cells
            .iter()
            .map(|c| RicAction::SetPfWeight {
                cell: c.report.cell,
                ue: c.age_periods as u32 % 3,
                weight: 1.0 + c.age_periods as f64 + ctx.next_f64(),
            })
            .collect()
    }
}

/// A two-slice (mIoT, eMBB) report whose demand and HARQ numbers come
/// from `draw`, so the built-in xApps have something to act on.
fn report(cell: u32, draw: u32) -> CellIndication {
    let d = f64::from(draw);
    let slice = |slice: u16, snssai: Snssai, share: f64, demand: f64| SliceReport {
        slice,
        snssai,
        prb_share: share,
        quota_prbs: (share * 106.0) as u32,
        granted_prb_ttis: (share * 50_000.0) as u64,
        capacity_prb_ttis: (share * 106_000.0) as u64,
        offered_bits: demand,
        served_bits: demand * 0.7,
        queued_bits: demand * 0.3,
    };
    let ue = |ue: u32, slice: u16| UeReport {
        ue,
        slice,
        granted_prb_ttis: 1_000 + u64::from(draw % 977),
        sched_ttis: 500,
        served_bits: d * 1e3,
        queued_bits: d * 10.0,
        cqi: (draw % 15) as u8 + 1,
        harq_nack_rate: f64::from(draw % 7) / 10.0,
    };
    CellIndication {
        cell,
        window_s: 1.0,
        ul_slots: 1_000,
        total_prbs: 106,
        ues: vec![ue(0, 0), ue(1, 1)],
        slices: vec![
            slice(0, Snssai::miot(1), 0.5, 8e6 + d * 1e4),
            slice(1, Snssai::embb(1), 0.5, 8e6 + f64::from(draw % 101) * 1e6),
        ],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random runs of fresh and missing cells — cells that first report
    /// late, cells that drop out and come back, cells never seen again
    /// after their last period, duplicate reports in one period — give
    /// the persistent view and the cache-and-rebuild oracle the same
    /// `Indication` (seq, every view's `stale`, `age_periods` and
    /// report) and the same `RicOutcome` after every step.
    #[test]
    fn persistent_view_matches_cache_and_rebuild(
        seed in 0u64..u64::MAX,
        // Per cell: first and last period it may report in.
        windows in xg_prop::collection::vec((0u32..12, 0u32..12), 1..7),
        periods in xg_prop::collection::vec(
            xg_prop::collection::vec((0u32..7, 0u32..1_000), 0..9),
            1..16,
        ),
    ) {
        let mut ric = Ric::new(seed, 1.0);
        let mut oracle = CacheAndRebuild::new(seed, 1.0);
        ric.register(DemandSlicer::try_new(0.1, 0.5).unwrap())
            .register(BurstGuard::new(Snssai::miot(1)))
            .register(McsCapper::try_new(7.4).unwrap())
            .register(EveryCell);
        oracle
            .register(DemandSlicer::try_new(0.1, 0.5).unwrap())
            .register(BurstGuard::new(Snssai::miot(1)))
            .register(McsCapper::try_new(7.4).unwrap())
            .register(EveryCell);
        for (p, draws) in periods.into_iter().enumerate() {
            let p = p as u32;
            // Unsorted cell ids, as a fleet drain in any order would give.
            let fresh: Vec<CellIndication> = draws
                .into_iter()
                .filter(|&(cell, _)| {
                    windows
                        .get(cell as usize)
                        .is_some_and(|&(a, b)| (a.min(b)..=a.max(b)).contains(&p))
                })
                .map(|(cell, draw)| report(cell * 3 % 7, draw))
                .collect();
            let t_s = f64::from(p) + 0.5;
            let got = ric.step(fresh.clone(), t_s);
            let (want_view, want) = oracle.step(fresh, t_s);
            prop_assert_eq!(&ric.view, &want_view, "period {}: {:?} != {:?}", p, ric.view, want_view);
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "period {}", p);
        }
    }
}

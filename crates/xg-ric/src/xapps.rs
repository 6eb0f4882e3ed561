//! Built-in xApps.
//!
//! Three control applications ship with the RIC, mirroring the paper's
//! dynamic-control future-work item (§5) at three timescales:
//!
//! * [`DemandSlicer`] — demand-proportional slice re-apportionment
//!   (wraps [`DynamicSlicer`] per cell, fed from measured E2 telemetry
//!   instead of ground-truth offered load).
//! * [`BurstGuard`] — overload protection for one S-NSSAI (the mIoT
//!   telemetry slice): when total measured demand exceeds the cell's
//!   measured serving capacity, it pins the protected slice a share
//!   sized to its own demand plus margin, so an eMBB burst (pest-camera
//!   image upload) cannot starve sensor telemetry.
//! * [`McsCapper`] — per-UE link-adaptation cap driven by the HARQ
//!   retransmission proxy: persistent deep fades get a conservative
//!   MCS ceiling derived from the reported CQI, lifted once the channel
//!   clears.

use crate::action::RicAction;
use crate::ric::{Indication, XApp, XAppCtx};
use std::collections::BTreeMap;
use xg_net::dynslice::DynamicSlicer;
use xg_net::e2::cqi_to_eff;
use xg_net::error::{NetError, Result};
use xg_net::slice::Snssai;

/// Demand-proportional slice re-apportionment over measured telemetry.
///
/// Maintains one [`DynamicSlicer`] per cell (built lazily from the
/// cell's reported slice table) and feeds it each slice's measured
/// demand — bits offered during the window plus bits still queued at
/// window close. Emits a [`RicAction::ReapportionSlices`] only when the
/// recomputed apportionment moves any share by more than
/// [`epsilon`](DemandSlicer::epsilon), so a balanced cell is left alone.
#[derive(Debug, Clone)]
pub struct DemandSlicer {
    min_share: f64,
    alpha: f64,
    /// Minimum share movement that triggers a re-apportionment (default
    /// 0.02 — smaller drifts are noise, not demand shifts).
    pub epsilon: f64,
    slicers: BTreeMap<u32, DynamicSlicer>,
    applied: BTreeMap<u32, Vec<f64>>,
}

impl DemandSlicer {
    /// Create the xApp. `min_share` is the per-slice floor and `alpha`
    /// the EWMA smoothing factor handed to each per-cell
    /// [`DynamicSlicer`]; both are validated here (a floor infeasible
    /// for a *specific* cell's slice count is caught per cell, which is
    /// then skipped).
    pub fn try_new(min_share: f64, alpha: f64) -> Result<Self> {
        if min_share.is_nan() || !(0.0..1.0).contains(&min_share) {
            return Err(NetError::InvalidParameter(format!(
                "demand slicer min_share must be in [0, 1), got {min_share}"
            )));
        }
        if alpha.is_nan() || alpha <= 0.0 || alpha > 1.0 {
            return Err(NetError::InvalidParameter(format!(
                "demand slicer alpha must be in (0, 1], got {alpha}"
            )));
        }
        Ok(DemandSlicer {
            min_share,
            alpha,
            epsilon: 0.02,
            slicers: BTreeMap::new(),
            applied: BTreeMap::new(),
        })
    }
}

impl XApp for DemandSlicer {
    fn name(&self) -> &'static str {
        "demand-slicer"
    }

    fn on_indication(&mut self, _ctx: &mut XAppCtx, ind: &Indication) -> Vec<RicAction> {
        let mut out = Vec::new();
        for view in ind.fresh_cells() {
            let report = &view.report;
            let cell = report.cell;
            if report.slices.len() < 2 {
                continue;
            }
            let snssais = || report.slices.iter().map(|s| s.snssai);
            let up_to_date = matches!(self.slicers.get(&cell),
                Some(s) if s.snssais().iter().copied().eq(snssais()));
            if !up_to_date {
                // (Re)build on first sight or when the slice table changed.
                let Ok(slicer) =
                    DynamicSlicer::try_new(snssais().collect(), self.min_share, self.alpha)
                else {
                    continue; // floors infeasible for this cell's slice count
                };
                self.slicers.insert(cell, slicer);
                self.applied.remove(&cell);
            }
            let Some(slicer) = self.slicers.get_mut(&cell) else {
                continue;
            };
            for (i, s) in report.slices.iter().enumerate() {
                slicer.observe(i, s.offered_bits + s.queued_bits);
            }
            let shares = slicer.shares();
            let drift = |baseline: &mut dyn Iterator<Item = f64>| {
                (shares.iter().zip(baseline))
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max)
            };
            let delta = match self.applied.get(&cell) {
                Some(applied) => drift(&mut applied.iter().copied()),
                None => drift(&mut report.slices.iter().map(|s| s.prb_share)),
            };
            if delta > self.epsilon {
                self.applied.insert(cell, shares.clone());
                out.push(RicAction::ReapportionSlices {
                    cell,
                    shares: snssais().zip(shares).collect(),
                });
            }
        }
        out
    }
}

/// Overload protection for one slice during a traffic burst.
///
/// Compares each cell's total measured demand (offered + queued bits
/// across every slice) against the measurement-derived capacity estimate
/// ([`CellIndication::capacity_bits_estimate`]). When demand exceeds
/// `headroom × capacity` the guard *engages*: the protected slice is
/// pinned a share sized to carry its own demand times
/// [`margin`](BurstGuard::margin) (clamped to
/// `[min_protected_share, max_protected_share]`), and the remainder is
/// split across the other slices proportionally to their demand. The
/// guard keeps steering while engaged and releases — returning control
/// to lower-priority xApps — once demand falls below 70% of the engage
/// threshold (hysteresis, so a demand hovering at the threshold does
/// not flap the slice table).
///
/// Register it *after* [`DemandSlicer`]: last-registered wins conflict
/// resolution, so the guard overrides the proportional controller only
/// while engaged.
///
/// [`CellIndication::capacity_bits_estimate`]: xg_net::e2::CellIndication::capacity_bits_estimate
#[derive(Debug, Clone)]
pub struct BurstGuard {
    protected: Snssai,
    /// Floor for the protected slice's pinned share (default 0.2).
    pub min_protected_share: f64,
    /// Ceiling for the protected slice's pinned share (default 0.6) —
    /// the burst still has to get through, just not at the sensors'
    /// expense.
    pub max_protected_share: f64,
    /// Fraction of measured capacity at which the guard engages
    /// (default 0.9).
    pub headroom: f64,
    /// Demand multiplier when sizing the protected share (default 1.5:
    /// room to drain queue backlog, not just keep pace).
    pub margin: f64,
    engaged: std::collections::BTreeSet<u32>,
}

impl BurstGuard {
    /// Guard the slice carrying `protected` with default tuning.
    pub fn new(protected: Snssai) -> Self {
        BurstGuard {
            protected,
            min_protected_share: 0.2,
            max_protected_share: 0.6,
            headroom: 0.9,
            margin: 1.5,
            engaged: std::collections::BTreeSet::new(),
        }
    }
}

impl XApp for BurstGuard {
    fn name(&self) -> &'static str {
        "burst-guard"
    }

    fn on_indication(&mut self, _ctx: &mut XAppCtx, ind: &Indication) -> Vec<RicAction> {
        let mut out = Vec::new();
        for view in ind.fresh_cells() {
            let report = &view.report;
            let cell = report.cell;
            if report.slices.len() < 2 {
                continue;
            }
            let Some(protected) = report.slice(self.protected) else {
                self.engaged.remove(&cell);
                continue;
            };
            let Some(capacity) = report.capacity_bits_estimate() else {
                continue; // nothing granted yet: no measurement, no action
            };
            if capacity <= 0.0 {
                continue;
            }
            let demand: f64 = report
                .slices
                .iter()
                .map(|s| s.offered_bits + s.queued_bits)
                .sum();
            let engage_at = self.headroom * capacity;
            if demand > engage_at {
                self.engaged.insert(cell);
            } else if demand < 0.7 * engage_at {
                self.engaged.remove(&cell);
            }
            if !self.engaged.contains(&cell) {
                continue;
            }
            let protected_demand = protected.offered_bits + protected.queued_bits;
            let p = (protected_demand * self.margin / capacity)
                .clamp(self.min_protected_share, self.max_protected_share);
            let free = 1.0 - p;
            let other_demand: f64 = report
                .slices
                .iter()
                .filter(|s| s.snssai != self.protected)
                .map(|s| s.offered_bits + s.queued_bits)
                .sum();
            let others = (report.slices.len() - 1) as f64;
            let shares: Vec<(Snssai, f64)> = report
                .slices
                .iter()
                .map(|s| {
                    let share = if s.snssai == self.protected {
                        p
                    } else if other_demand > 0.0 {
                        free * (s.offered_bits + s.queued_bits) / other_demand
                    } else {
                        free / others
                    };
                    (s.snssai, share)
                })
                .collect();
            out.push(RicAction::ReapportionSlices { cell, shares });
        }
        out
    }
}

/// CQI-aware per-UE MCS capping driven by the HARQ retransmission proxy.
///
/// A UE whose reported NACK fraction exceeds
/// [`nack_threshold`](McsCapper::nack_threshold) gets its link
/// adaptation capped at `cqi_to_eff(reported CQI) × backoff` — the
/// scheduler stops betting on a peak rate the channel keeps rejecting.
/// The cap is re-tightened if the channel keeps degrading (reported CQI
/// is measured *before* the cap applies, so the capper never feeds back
/// on itself) and lifted once the NACK fraction falls below
/// [`clear_threshold`](McsCapper::clear_threshold).
#[derive(Debug, Clone)]
pub struct McsCapper {
    max_eff: f64,
    /// NACK fraction above which a cap is applied (default 0.15).
    pub nack_threshold: f64,
    /// NACK fraction below which an existing cap is lifted (default
    /// 0.05; the gap to `nack_threshold` is the hysteresis band).
    pub clear_threshold: f64,
    /// Safety backoff applied to the CQI-derived ceiling (default 0.8).
    pub backoff: f64,
    capped: BTreeMap<(u32, u32), f64>,
}

impl McsCapper {
    /// Create the capper. `max_eff` is the cell's link-adaptation
    /// ceiling in bits per resource element, the scale the CQI maps back
    /// onto.
    pub fn try_new(max_eff: f64) -> Result<Self> {
        if !max_eff.is_finite() || max_eff <= 0.0 {
            return Err(NetError::InvalidParameter(format!(
                "mcs capper max_eff must be finite and positive, got {max_eff}"
            )));
        }
        Ok(McsCapper {
            max_eff,
            nack_threshold: 0.15,
            clear_threshold: 0.05,
            backoff: 0.8,
            capped: BTreeMap::new(),
        })
    }
}

impl XApp for McsCapper {
    fn name(&self) -> &'static str {
        "mcs-capper"
    }

    fn on_indication(&mut self, _ctx: &mut XAppCtx, ind: &Indication) -> Vec<RicAction> {
        let mut out = Vec::new();
        for view in ind.fresh_cells() {
            let cell = view.report.cell;
            for ue in &view.report.ues {
                if ue.cqi == 0 {
                    continue; // never scheduled this window: no measurement
                }
                let key = (cell, ue.ue);
                if ue.harq_nack_rate > self.nack_threshold {
                    let cap = cqi_to_eff(ue.cqi, self.max_eff) * self.backoff;
                    let tighter = match self.capped.get(&key) {
                        Some(&applied) => cap < applied - 1e-9,
                        None => true,
                    };
                    if tighter {
                        self.capped.insert(key, cap);
                        out.push(RicAction::CapUeMcs {
                            cell,
                            ue: ue.ue,
                            max_eff: Some(cap),
                        });
                    }
                } else if ue.harq_nack_rate < self.clear_threshold
                    && self.capped.remove(&key).is_some()
                {
                    out.push(RicAction::CapUeMcs {
                        cell,
                        ue: ue.ue,
                        max_eff: None,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ric::{CellView, Ric};
    use xg_net::e2::{CellIndication, SliceReport, UeReport};

    const PER_PRB_TTI: f64 = 471.7; // ≈ 50 Mbit/s over 106 PRBs × 1000 TTIs

    /// Build a 106-PRB, 1000-UL-slot cell indication from
    /// `(snssai, prb_share, offered_bits, queued_bits)` rows. Grants are
    /// sized so the measured capacity estimate lands at ≈ 50 Mbit.
    fn report(cell: u32, rows: &[(Snssai, f64, f64, f64)]) -> CellIndication {
        let slices = rows
            .iter()
            .enumerate()
            .map(|(i, &(snssai, prb_share, offered_bits, queued_bits))| {
                let capacity = (prb_share * 106.0).floor() as u64 * 1000;
                SliceReport {
                    slice: i as u16,
                    snssai,
                    prb_share,
                    quota_prbs: (prb_share * 106.0).floor() as u32,
                    granted_prb_ttis: capacity,
                    capacity_prb_ttis: capacity,
                    offered_bits,
                    served_bits: capacity as f64 * PER_PRB_TTI,
                    queued_bits,
                }
            })
            .collect();
        CellIndication {
            cell,
            window_s: 1.0,
            ul_slots: 1000,
            total_prbs: 106,
            ues: Vec::new(),
            slices,
        }
    }

    fn indication(seq: u64, reports: Vec<CellIndication>) -> Indication {
        Indication {
            seq,
            t_s: seq as f64,
            period_s: 1.0,
            cells: reports
                .into_iter()
                .map(|report| CellView {
                    stale: false,
                    age_periods: 0,
                    report,
                })
                .collect(),
        }
    }

    fn ctx() -> XAppCtx {
        XAppCtx::new(crate::ric::xapp_seed(0, 0))
    }

    #[test]
    fn demand_slicer_follows_measured_demand_with_a_dead_band() {
        let mut app = DemandSlicer::try_new(0.1, 0.5).unwrap();
        let mut c = ctx();
        let skewed = || {
            indication(
                1,
                vec![report(
                    0,
                    &[
                        (Snssai::miot(1), 0.5, 10e6, 0.0),
                        (Snssai::embb(1), 0.5, 90e6, 0.0),
                    ],
                )],
            )
        };
        let actions = app.on_indication(&mut c, &skewed());
        assert_eq!(actions.len(), 1);
        let RicAction::ReapportionSlices { cell, shares } = &actions[0] else {
            panic!("expected reapportion, got {actions:?}");
        };
        assert_eq!(*cell, 0);
        // 90% of demand on eMBB: 0.1 floor + 0.8 × 0.9 = 0.82.
        assert!((shares[1].1 - 0.82).abs() < 0.01, "{shares:?}");
        assert!(shares[0].1 >= 0.1);
        // Same demand again: apportionment unchanged, inside the dead
        // band, so nothing is emitted.
        let actions = app.on_indication(&mut c, &skewed());
        assert!(actions.is_empty(), "{actions:?}");
    }

    #[test]
    fn demand_slicer_rejects_bad_tuning() {
        assert!(DemandSlicer::try_new(-0.1, 0.5).is_err());
        assert!(DemandSlicer::try_new(1.0, 0.5).is_err());
        assert!(DemandSlicer::try_new(f64::NAN, 0.5).is_err());
        assert!(DemandSlicer::try_new(0.1, 0.0).is_err());
        assert!(DemandSlicer::try_new(0.1, 1.5).is_err());
    }

    #[test]
    fn demand_slicer_skips_infeasible_cells() {
        // 0.4 floor × 3 slices > 1: the cell is skipped, not panicked on.
        let mut app = DemandSlicer::try_new(0.4, 0.5).unwrap();
        let mut c = ctx();
        let ind = indication(
            1,
            vec![report(
                0,
                &[
                    (Snssai::miot(1), 0.3, 1e6, 0.0),
                    (Snssai::embb(1), 0.3, 1e6, 0.0),
                    (Snssai::embb(2), 0.4, 1e6, 0.0),
                ],
            )],
        );
        assert!(app.on_indication(&mut c, &ind).is_empty());
    }

    #[test]
    fn burst_guard_engages_steers_and_releases_with_hysteresis() {
        let mut app = BurstGuard::new(Snssai::miot(1));
        let mut c = ctx();
        let cell = |embb_offered: f64, embb_queued: f64| {
            indication(
                1,
                vec![report(
                    0,
                    &[
                        (Snssai::miot(1), 0.5, 8e6, 0.0),
                        (Snssai::embb(1), 0.5, embb_offered, embb_queued),
                    ],
                )],
            )
        };
        // Calm: total demand 16 Mbit < 0.9 × 50 Mbit. No action.
        assert!(app.on_indication(&mut c, &cell(8e6, 0.0)).is_empty());
        assert!(app.engaged.is_empty());
        // Burst: 88 Mbit demand > 45 Mbit threshold. Guard engages and
        // pins the protected slice 8 × 1.5 / 50 = 0.24 of the grid.
        let actions = app.on_indication(&mut c, &cell(80e6, 0.0));
        assert_eq!(actions.len(), 1);
        let RicAction::ReapportionSlices { shares, .. } = &actions[0] else {
            panic!("expected reapportion");
        };
        assert!((shares[0].1 - 0.24).abs() < 0.01, "{shares:?}");
        assert!((shares[0].1 + shares[1].1 - 1.0).abs() < 1e-9);
        assert!(app.engaged.iter().eq([&0]));
        // Demand drops into the hysteresis band (31.5..45 Mbit): the
        // guard keeps steering.
        assert_eq!(app.on_indication(&mut c, &cell(32e6, 0.0)).len(), 1);
        // Demand collapses below 70% of the threshold: guard releases.
        assert!(app.on_indication(&mut c, &cell(8e6, 0.0)).is_empty());
        assert!(app.engaged.is_empty());
    }

    #[test]
    fn burst_guard_clamps_protected_share() {
        let mut app = BurstGuard::new(Snssai::miot(1));
        let mut c = ctx();
        // Protected slice itself is the heavy one: 60 Mbit × 1.5 / 50
        // would be 1.8 — clamped to max_protected_share.
        let ind = indication(
            1,
            vec![report(
                0,
                &[
                    (Snssai::miot(1), 0.5, 60e6, 0.0),
                    (Snssai::embb(1), 0.5, 40e6, 0.0),
                ],
            )],
        );
        let actions = app.on_indication(&mut c, &ind);
        let RicAction::ReapportionSlices { shares, .. } = &actions[0] else {
            panic!("expected reapportion");
        };
        assert!((shares[0].1 - 0.6).abs() < 1e-9, "{shares:?}");
    }

    #[test]
    fn mcs_capper_caps_tightens_and_clears() {
        let mut app = McsCapper::try_new(7.4).unwrap();
        let mut c = ctx();
        let ue = |cqi: u8, nack: f64| {
            let mut r = report(
                0,
                &[
                    (Snssai::miot(1), 0.5, 1e6, 0.0),
                    (Snssai::embb(1), 0.5, 1e6, 0.0),
                ],
            );
            r.ues.push(UeReport {
                ue: 2,
                slice: 0,
                granted_prb_ttis: 1000,
                sched_ttis: 500,
                served_bits: 1e6,
                queued_bits: 0.0,
                cqi,
                harq_nack_rate: nack,
            });
            indication(1, vec![r])
        };
        // Deep fade: cap at cqi_to_eff(10) × 0.8.
        let actions = app.on_indication(&mut c, &ue(10, 0.3));
        assert_eq!(actions.len(), 1);
        let expected = cqi_to_eff(10, 7.4) * 0.8;
        assert!(matches!(
            actions[0],
            RicAction::CapUeMcs { max_eff: Some(e), .. } if (e - expected).abs() < 1e-9
        ));
        assert!(app.capped.keys().eq([&(0, 2)]));
        // Still failing at the same CQI: cap unchanged, no re-emission.
        assert!(app.on_indication(&mut c, &ue(10, 0.3)).is_empty());
        // Channel keeps degrading: cap tightens.
        let actions = app.on_indication(&mut c, &ue(5, 0.3));
        assert!(matches!(
            actions[0],
            RicAction::CapUeMcs { max_eff: Some(e), .. } if e < expected
        ));
        // Hysteresis band: nothing happens.
        assert!(app.on_indication(&mut c, &ue(5, 0.1)).is_empty());
        // Channel cleared: cap lifted.
        let actions = app.on_indication(&mut c, &ue(12, 0.01));
        assert!(matches!(
            actions[0],
            RicAction::CapUeMcs { max_eff: None, .. }
        ));
        assert!(app.capped.is_empty());
        // Tuning validation.
        assert!(McsCapper::try_new(0.0).is_err());
        assert!(McsCapper::try_new(f64::NAN).is_err());
    }

    #[test]
    fn burst_guard_overrides_demand_slicer_in_the_engine() {
        let mut ric = Ric::new(42, 1.0);
        ric.register(DemandSlicer::try_new(0.1, 0.5).unwrap());
        ric.register(BurstGuard::new(Snssai::miot(1)));
        let overloaded = report(
            0,
            &[
                (Snssai::miot(1), 0.5, 8e6, 0.0),
                (Snssai::embb(1), 0.5, 80e6, 0.0),
            ],
        );
        let out = ric.step(vec![overloaded], 1.0);
        // Both xApps emit a reapportionment for cell 0; the guard
        // (registered later) wins the knob.
        assert_eq!(out.actions.len(), 1);
        let (xapp, RicAction::ReapportionSlices { shares, .. }) = &out.actions[0] else {
            panic!("expected reapportion, got {:?}", out.actions);
        };
        assert_eq!(*xapp, "burst-guard");
        assert!((shares[0].1 - 0.24).abs() < 0.01, "{shares:?}");
    }
}

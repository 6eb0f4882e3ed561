//! Typed RIC control actions and the conflict-resolution rules that
//! merge the per-period action streams of every xApp.

use std::collections::BTreeMap;
use xg_net::slice::Snssai;

/// A control action a RIC emits toward the RAN. Each maps onto one
/// runtime mutation of the live fleet: `set_slices`, `set_pf_weight`,
/// or `set_mcs_cap`.
#[derive(Debug, Clone, PartialEq)]
pub enum RicAction {
    /// Re-apportion a cell's slice PRB ratios. `shares` lists every
    /// slice of the cell (partial tables are not expressible: a PDU
    /// session may never lose its slice).
    ReapportionSlices {
        /// Target cell.
        cell: u32,
        /// `(snssai, prb_share)` for every slice, in table order.
        shares: Vec<(Snssai, f64)>,
    },
    /// Retune one UE's proportional-fair scheduler weight.
    SetPfWeight {
        /// Target cell.
        cell: u32,
        /// Cell-local UE id.
        ue: u32,
        /// New PF weight (must be positive and finite; 1.0 = neutral).
        weight: f64,
    },
    /// Cap (or uncap) one UE's link adaptation.
    CapUeMcs {
        /// Target cell.
        cell: u32,
        /// Cell-local UE id.
        ue: u32,
        /// Spectral-efficiency ceiling; `None` removes the cap.
        max_eff: Option<f64>,
    },
}

impl RicAction {
    /// The cell this action targets.
    pub(crate) fn cell(&self) -> u32 {
        match *self {
            RicAction::ReapportionSlices { cell, .. }
            | RicAction::SetPfWeight { cell, .. }
            | RicAction::CapUeMcs { cell, .. } => cell,
        }
    }

    /// The deterministic merge key: two actions with the same key touch
    /// the same control knob and must be conflict-resolved.
    pub(crate) fn key(&self) -> ActionKey {
        match *self {
            RicAction::ReapportionSlices { cell, .. } => ActionKey {
                kind: 0,
                cell,
                ue: u32::MAX,
            },
            RicAction::SetPfWeight { cell, ue, .. } => ActionKey { kind: 1, cell, ue },
            RicAction::CapUeMcs { cell, ue, .. } => ActionKey { kind: 2, cell, ue },
        }
    }

    /// A compact human-readable rendering for timeline events and logs.
    pub fn describe(&self) -> String {
        match self {
            RicAction::ReapportionSlices { cell, shares } => {
                let parts: Vec<String> = shares
                    .iter()
                    .map(|(s, share)| format!("sst{}/sd{}={share:.3}", s.sst, s.sd))
                    .collect();
                format!("reapportion cell {cell}: {}", parts.join(" "))
            }
            RicAction::SetPfWeight { cell, ue, weight } => {
                format!("pf-weight cell {cell} ue {ue} -> {weight:.3}")
            }
            RicAction::CapUeMcs { cell, ue, max_eff } => match max_eff {
                Some(e) => format!("mcs-cap cell {cell} ue {ue} -> {e:.3} b/RE"),
                None => format!("mcs-cap cell {cell} ue {ue} -> cleared"),
            },
        }
    }
}

/// Identity of the control knob an action touches. Orders actions
/// deterministically: by kind, then cell, then UE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ActionKey {
    /// Knob kind (0 = slice table, 1 = PF weight, 2 = MCS cap).
    pub kind: u8,
    /// Target cell.
    pub cell: u32,
    /// Target UE (`u32::MAX` for cell-scope knobs).
    pub ue: u32,
}

/// One xApp's emitted action, tagged with its registration index and
/// name (for conflict resolution and timeline attribution).
#[derive(Debug, Clone)]
pub(crate) struct Emitted {
    /// Registration index of the emitting xApp.
    pub xapp_index: usize,
    /// The emitting xApp's name.
    pub xapp: &'static str,
    /// The action itself.
    pub action: RicAction,
}

/// Merge the per-period action stream into one action per control knob.
///
/// Rules (documented in DESIGN.md §RIC):
///
/// * Per [`ActionKey`], the **last-registered** xApp wins — later
///   registrations are higher-priority overrides by contract.
/// * Exception: `CapUeMcs` resolves to the **most restrictive** cap
///   (the smallest `Some`; a `Some` always beats a `None` clear) —
///   a safety cap must not be silently lifted by a lower-priority peer.
///
/// Output is in `ActionKey` order, so the merged stream is independent
/// of emission order within a period.
pub(crate) fn resolve_conflicts(emitted: Vec<Emitted>) -> Vec<Emitted> {
    let mut merged: BTreeMap<ActionKey, Emitted> = BTreeMap::new();
    for e in emitted {
        let key = e.action.key();
        match merged.get_mut(&key) {
            None => {
                merged.insert(key, e);
            }
            Some(prev) => {
                let keep_prev = match (&prev.action, &e.action) {
                    (
                        RicAction::CapUeMcs {
                            max_eff: prev_cap, ..
                        },
                        RicAction::CapUeMcs {
                            max_eff: new_cap, ..
                        },
                    ) => match (prev_cap, new_cap) {
                        // Most restrictive cap wins, regardless of
                        // registration order.
                        (Some(p), Some(n)) => p <= n,
                        (Some(_), None) => true,
                        (None, _) => false,
                    },
                    // Last-registered xApp wins (emission order within a
                    // period follows registration order).
                    _ => prev.xapp_index > e.xapp_index,
                };
                if !keep_prev {
                    *prev = e;
                }
            }
        }
    }
    merged.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit(idx: usize, action: RicAction) -> Emitted {
        Emitted {
            xapp_index: idx,
            xapp: "test",
            action,
        }
    }

    #[test]
    fn last_registered_wins_per_key() {
        let a = emit(
            0,
            RicAction::SetPfWeight {
                cell: 1,
                ue: 2,
                weight: 1.0,
            },
        );
        let b = emit(
            1,
            RicAction::SetPfWeight {
                cell: 1,
                ue: 2,
                weight: 3.0,
            },
        );
        let out = resolve_conflicts(vec![a, b]);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0].action,
            RicAction::SetPfWeight { weight, .. } if weight == 3.0
        ));
        // Different UEs are different knobs: both survive.
        let c = emit(
            0,
            RicAction::SetPfWeight {
                cell: 1,
                ue: 3,
                weight: 2.0,
            },
        );
        let d = emit(
            1,
            RicAction::SetPfWeight {
                cell: 1,
                ue: 2,
                weight: 3.0,
            },
        );
        assert_eq!(resolve_conflicts(vec![c, d]).len(), 2);
    }

    #[test]
    fn mcs_cap_resolves_most_restrictive() {
        let loose = emit(
            1,
            RicAction::CapUeMcs {
                cell: 0,
                ue: 0,
                max_eff: Some(5.0),
            },
        );
        let tight = emit(
            0,
            RicAction::CapUeMcs {
                cell: 0,
                ue: 0,
                max_eff: Some(2.0),
            },
        );
        let clear = emit(
            2,
            RicAction::CapUeMcs {
                cell: 0,
                ue: 0,
                max_eff: None,
            },
        );
        let out = resolve_conflicts(vec![loose.clone(), tight.clone(), clear.clone()]);
        assert_eq!(out.len(), 1);
        assert!(
            matches!(out[0].action, RicAction::CapUeMcs { max_eff: Some(e), .. } if e == 2.0),
            "tightest cap must win even against a later clear"
        );
        // A lone clear survives.
        let out = resolve_conflicts(vec![clear]);
        assert!(matches!(
            out[0].action,
            RicAction::CapUeMcs { max_eff: None, .. }
        ));
    }

    #[test]
    fn output_is_in_key_order() {
        let out = resolve_conflicts(vec![
            emit(
                0,
                RicAction::CapUeMcs {
                    cell: 0,
                    ue: 1,
                    max_eff: None,
                },
            ),
            emit(
                0,
                RicAction::ReapportionSlices {
                    cell: 2,
                    shares: vec![],
                },
            ),
            emit(
                0,
                RicAction::SetPfWeight {
                    cell: 1,
                    ue: 0,
                    weight: 1.0,
                },
            ),
        ]);
        let kinds: Vec<u8> = out.iter().map(|e| e.action.key().kind).collect();
        assert_eq!(kinds, vec![0, 1, 2]);
    }

    #[test]
    fn describe_is_compact() {
        let a = RicAction::ReapportionSlices {
            cell: 3,
            shares: vec![(Snssai::miot(1), 0.25), (Snssai::embb(1), 0.75)],
        };
        assert!(a.describe().contains("cell 3"));
        assert!(a.describe().contains("sst3/sd1=0.250"));
        assert_eq!(a.cell(), 3);
        let b = RicAction::CapUeMcs {
            cell: 1,
            ue: 4,
            max_eff: None,
        };
        assert!(b.describe().contains("cleared"));
    }
}

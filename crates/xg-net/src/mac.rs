//! Per-TTI uplink MAC scheduler.
//!
//! Each transmission time interval, the scheduler divides every slice's PRB
//! quota among the backlogged UEs admitted to that slice. Two disciplines
//! are provided: round-robin (equal split with rotating remainder — srsRAN's
//! default) and proportional fair (weights by instantaneous channel quality
//! over EWMA throughput). The Fig. 5 "uneven user allocation" observation is
//! reproduced by proportional fair under asymmetric UE channels; the slicing
//! isolation of Fig. 6 is enforced here by allocating strictly within slice
//! quotas.

/// Scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Equal PRB split among backlogged UEs, rotating the remainder.
    RoundRobin,
    /// Proportional fair: PRBs ∝ instantaneous rate / average throughput.
    ProportionalFair,
}

/// A UE requesting uplink resources this TTI.
#[derive(Debug, Clone, Copy)]
pub struct UlRequest {
    /// UE identifier.
    pub ue: u32,
    /// Instantaneous achievable spectral efficiency (bits per resource
    /// element) given the UE's current channel. Used by proportional fair.
    pub inst_eff: f64,
    /// Multiplicative bias on the proportional-fair metric (1.0 =
    /// neutral). A RIC retunes this to favor or de-prioritize a UE
    /// without touching slice quotas. Ignored by round-robin.
    pub weight: f64,
}

/// EWMA smoothing factor for the proportional-fair average-rate tracker.
const PF_EWMA: f64 = 0.05;
/// Floor on the tracked average to avoid division blow-ups at start-up.
const PF_FLOOR: f64 = 1e-6;
/// The largest proportional-fair weight a UE may carry. With the average
/// floored at `PF_FLOOR` and efficiencies of a few bits per resource
/// element, every share `weight · eff / avg` and their sum stay finite
/// (~10¹³ at most), so the apportionment never divides by infinity.
pub(crate) const MAX_PF_WEIGHT: f64 = 1e6;

/// Per-cell MAC scheduler state.
#[derive(Debug, Clone)]
pub struct MacScheduler {
    kind: SchedulerKind,
    /// Rotation offset for round-robin remainder assignment.
    rr_turn: u64,
    /// EWMA of served bits per TTI (proportional fair), indexed by the
    /// dense cell-local UE id; a UE never observed, or removed, reads 0.
    avg_bits: Vec<f64>,
    /// Proportional-fair scratch kept across TTIs: each request's exact
    /// PRB share, and the request indices by descending fractional share.
    pf_exact: Vec<f64>,
    pf_order: Vec<usize>,
}

impl MacScheduler {
    /// Create a scheduler of the given discipline.
    pub fn new(kind: SchedulerKind) -> Self {
        MacScheduler {
            kind,
            rr_turn: 0,
            avg_bits: Vec::new(),
            pf_exact: Vec::new(),
            pf_order: Vec::new(),
        }
    }

    /// Divide `quota` PRBs among the requesting UEs into a caller-owned
    /// buffer (cleared first), as `(ue, prbs)` pairs in request order:
    /// the TTI hot loop reuses one grants vector across slots.
    ///
    /// The sum of granted PRBs never exceeds `quota`, and equals `quota`
    /// whenever any UE is backlogged.
    pub fn allocate_into(&mut self, quota: u32, requests: &[UlRequest], out: &mut Vec<(u32, u32)>) {
        out.clear();
        if requests.is_empty() || quota == 0 {
            return;
        }
        match (requests, self.kind) {
            // A lone requester takes the whole quota under either
            // discipline: what the round-robin split and the
            // proportional-fair apportionment (`e / e · quota`, exact for
            // a finite positive share) both compute, without their
            // divisions, vectors and sort.
            ([only], _) => out.push((only.ue, quota)),
            (_, SchedulerKind::RoundRobin) => self.allocate_rr_into(quota, requests, out),
            (_, SchedulerKind::ProportionalFair) => self.allocate_pf_into(quota, requests, out),
        }
        self.rr_turn = self.rr_turn.wrapping_add(1);
        debug_check_fits(out, quota);
    }

    fn allocate_rr_into(&self, quota: u32, requests: &[UlRequest], out: &mut Vec<(u32, u32)>) {
        let n = requests.len() as u32;
        let base = quota / n;
        let remainder = quota % n;
        let offset = (self.rr_turn % n as u64) as u32;
        out.extend(requests.iter().enumerate().map(|(i, r)| {
            // Rotate which UEs receive the remainder PRBs.
            let extra = if ((i as u32 + n - offset) % n) < remainder {
                1
            } else {
                0
            };
            (r.ue, base + extra)
        }));
    }

    fn allocate_pf_into(&mut self, quota: u32, requests: &[UlRequest], out: &mut Vec<(u32, u32)>) {
        let (avg_bits, exact, order) = (&self.avg_bits, &mut self.pf_exact, &mut self.pf_order);
        exact.clear();
        exact.extend(requests.iter().map(|r| {
            let avg = avg_bits.get(r.ue as usize).copied().unwrap_or(0.0);
            r.weight.max(0.0) * r.inst_eff.max(1e-9) / avg.max(PF_FLOOR)
        }));
        let mut total: f64 = exact.iter().sum();
        if !(total > 0.0 && total.is_finite()) {
            // Every requester was weighted to zero, or the shares
            // overflowed (a weight past `MAX_PF_WEIGHT`, or an infinite
            // efficiency, on a caller that skips the simulator's check):
            // degrade to an equal split rather than apportioning by NaN.
            exact.fill(1.0);
            total = requests.len() as f64;
        }
        // Largest-remainder apportionment of the quota by weight.
        for (r, e) in requests.iter().zip(exact.iter_mut()) {
            *e = *e / total * quota as f64;
            out.push((r.ue, e.floor() as u32));
        }
        let assigned: u32 = out.iter().map(|&(_, g)| g).sum();
        order.clear();
        order.extend(0..requests.len());
        order.sort_by(|&a, &b| {
            let fa = exact[a] - exact[a].floor();
            let fb = exact[b] - exact[b].floor();
            fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
        });
        for &i in order.iter().take(quota.saturating_sub(assigned) as usize) {
            out[i].1 += 1;
        }
    }

    /// Record the bits actually served to a UE this TTI (drives the
    /// proportional-fair average, a vector the dense UE id indexes).
    pub fn observe(&mut self, ue: u32, bits: f64) {
        // Round-robin never reads the averages, so it keeps none.
        if self.kind == SchedulerKind::RoundRobin {
            return;
        }
        let i = ue as usize;
        if i >= self.avg_bits.len() {
            self.avg_bits.resize(i + 1, 0.0);
        }
        self.avg_bits[i] = (1.0 - PF_EWMA) * self.avg_bits[i] + PF_EWMA * bits;
    }
}

/// Debug builds check that a grant fits its quota; release builds
/// compile the check out.
#[expect(
    clippy::disallowed_macros,
    reason = "a debug-build check that the grant fits the quota; release builds compile it out"
)]
fn debug_check_fits(grants: &[(u32, u32)], quota: u32) {
    debug_assert!(
        grants.iter().map(|&(_, p)| p).sum::<u32>() <= quota,
        "scheduler over-allocated"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use xg_prop::prelude::*;

    /// [`MacScheduler::allocate_into`] into a fresh vector.
    fn allocate(s: &mut MacScheduler, quota: u32, requests: &[UlRequest]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        s.allocate_into(quota, requests, &mut out);
        out
    }

    fn reqs(n: u32) -> Vec<UlRequest> {
        (0..n)
            .map(|ue| UlRequest {
                ue,
                inst_eff: 3.0,
                weight: 1.0,
            })
            .collect()
    }

    #[test]
    fn empty_requests_grant_nothing() {
        let mut s = MacScheduler::new(SchedulerKind::RoundRobin);
        assert!(allocate(&mut s, 100, &[]).is_empty());
        assert!(allocate(&mut s, 0, &reqs(2)).is_empty());
    }

    #[test]
    fn single_ue_gets_all() {
        let mut s = MacScheduler::new(SchedulerKind::RoundRobin);
        let g = allocate(&mut s, 106, &reqs(1));
        assert_eq!(g, vec![(0, 106)]);
    }

    #[test]
    fn rr_split_is_even() {
        let mut s = MacScheduler::new(SchedulerKind::RoundRobin);
        let g = allocate(&mut s, 100, &reqs(2));
        assert_eq!(g.iter().map(|&(_, p)| p).sum::<u32>(), 100);
        assert_eq!(g[0].1, 50);
        assert_eq!(g[1].1, 50);
    }

    #[test]
    fn rr_remainder_rotates() {
        let mut s = MacScheduler::new(SchedulerKind::RoundRobin);
        // 101 PRBs / 2 UEs: one UE gets 51, alternating over TTIs.
        let mut got_extra = [0u32; 2];
        for _ in 0..10 {
            let g = allocate(&mut s, 101, &reqs(2));
            assert_eq!(g.iter().map(|&(_, p)| p).sum::<u32>(), 101);
            for (ue, p) in g {
                if p == 51 {
                    got_extra[ue as usize] += 1;
                }
            }
        }
        assert_eq!(got_extra[0], 5, "remainder must rotate fairly");
        assert_eq!(got_extra[1], 5);
    }

    #[test]
    fn pf_full_quota_used() {
        let mut s = MacScheduler::new(SchedulerKind::ProportionalFair);
        let g = allocate(&mut s, 106, &reqs(3));
        assert_eq!(g.iter().map(|&(_, p)| p).sum::<u32>(), 106);
    }

    #[test]
    fn pf_favors_starved_ue() {
        let mut s = MacScheduler::new(SchedulerKind::ProportionalFair);
        // UE 0 has been served heavily; UE 1 not at all.
        for _ in 0..50 {
            s.observe(0, 10_000.0);
        }
        let g = allocate(&mut s, 100, &reqs(2));
        let g0 = g.iter().find(|&&(ue, _)| ue == 0).unwrap().1;
        let g1 = g.iter().find(|&&(ue, _)| ue == 1).unwrap().1;
        assert!(g1 > g0, "starved UE must be favored: {g0} vs {g1}");
    }

    #[test]
    fn pf_uneven_under_asymmetric_channels() {
        // The Fig. 5 "uneven user allocation": with one UE on a much better
        // channel and equal averages, PF gives it more PRBs.
        let mut s = MacScheduler::new(SchedulerKind::ProportionalFair);
        s.observe(0, 1000.0);
        s.observe(1, 1000.0);
        let requests = [
            UlRequest {
                ue: 0,
                inst_eff: 5.0,
                weight: 1.0,
            },
            UlRequest {
                ue: 1,
                inst_eff: 1.0,
                weight: 1.0,
            },
        ];
        let g = allocate(&mut s, 120, &requests);
        let g0 = g.iter().find(|&&(ue, _)| ue == 0).unwrap().1;
        let g1 = g.iter().find(|&&(ue, _)| ue == 1).unwrap().1;
        assert!(g0 > 3 * g1, "high-SNR UE should dominate: {g0} vs {g1}");
    }

    #[test]
    fn pf_weight_biases_allocation() {
        // Identical channels and averages, but UE 1 carries a 4x RIC
        // weight: it must receive visibly more PRBs.
        let mut s = MacScheduler::new(SchedulerKind::ProportionalFair);
        s.observe(0, 1000.0);
        s.observe(1, 1000.0);
        let requests = [
            UlRequest {
                ue: 0,
                inst_eff: 3.0,
                weight: 1.0,
            },
            UlRequest {
                ue: 1,
                inst_eff: 3.0,
                weight: 4.0,
            },
        ];
        let g = allocate(&mut s, 100, &requests);
        let g0 = g.iter().find(|&&(ue, _)| ue == 0).unwrap().1;
        let g1 = g.iter().find(|&&(ue, _)| ue == 1).unwrap().1;
        assert_eq!(g0 + g1, 100);
        assert!(g1 >= 3 * g0, "weighted UE should dominate: {g0} vs {g1}");
    }

    #[test]
    fn all_zero_weights_degrade_to_equal_split() {
        let mut s = MacScheduler::new(SchedulerKind::ProportionalFair);
        let requests = [
            UlRequest {
                ue: 0,
                inst_eff: 3.0,
                weight: 0.0,
            },
            UlRequest {
                ue: 1,
                inst_eff: 3.0,
                weight: 0.0,
            },
        ];
        let g = allocate(&mut s, 100, &requests);
        assert_eq!(g.iter().map(|&(_, p)| p).sum::<u32>(), 100);
    }

    #[test]
    fn never_over_allocates() {
        for kind in [SchedulerKind::RoundRobin, SchedulerKind::ProportionalFair] {
            let mut s = MacScheduler::new(kind);
            for quota in [1u32, 7, 51, 106] {
                for n in 1..=5 {
                    let g = allocate(&mut s, quota, &reqs(n));
                    assert!(g.iter().map(|&(_, p)| p).sum::<u32>() <= quota);
                }
            }
        }
    }

    /// Proportional fair as it read before the dense average vector and
    /// the kept scratch — a `BTreeMap` of averages, four fresh vectors per
    /// allocation — every expression in place: the oracle
    /// `pf_matches_the_map_based_original` holds the scheduler to.
    #[derive(Default)]
    struct MapPf {
        avg_bits: BTreeMap<u32, f64>,
    }

    impl MapPf {
        fn allocate(&self, quota: u32, requests: &[UlRequest]) -> Vec<(u32, u32)> {
            if requests.is_empty() || quota == 0 {
                return Vec::new();
            }
            let mut weights: Vec<f64> = requests
                .iter()
                .map(|r| {
                    let avg = self.avg_bits.get(&r.ue).copied().unwrap_or(0.0);
                    r.weight.max(0.0) * r.inst_eff.max(1e-9) / avg.max(PF_FLOOR)
                })
                .collect();
            if weights.iter().sum::<f64>() <= 0.0 {
                weights.iter_mut().for_each(|w| *w = 1.0);
            }
            let total: f64 = weights.iter().sum();
            let exact: Vec<f64> = weights.iter().map(|w| w / total * quota as f64).collect();
            let mut grants: Vec<u32> = exact.iter().map(|e| e.floor() as u32).collect();
            let assigned: u32 = grants.iter().sum();
            let mut order: Vec<usize> = (0..grants.len()).collect();
            order.sort_by(|&a, &b| {
                let fa = exact[a] - exact[a].floor();
                let fb = exact[b] - exact[b].floor();
                fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
            });
            for &i in order.iter().take(quota.saturating_sub(assigned) as usize) {
                grants[i] += 1;
            }
            requests
                .iter()
                .zip(grants)
                .map(|(r, g)| (r.ue, g))
                .collect()
        }

        fn observe(&mut self, ue: u32, bits: f64) {
            let avg = self.avg_bits.entry(ue).or_insert(0.0);
            *avg = (1.0 - PF_EWMA) * *avg + PF_EWMA * bits;
        }
    }

    /// Round-robin as it read before the lone-requester grant, every `%`
    /// in place: the oracle `rr_matches_the_original` holds the scheduler
    /// to.
    struct ParentRr {
        rr_turn: u64,
    }

    impl ParentRr {
        fn allocate(&mut self, quota: u32, requests: &[UlRequest]) -> Vec<(u32, u32)> {
            let mut out = Vec::new();
            if requests.is_empty() || quota == 0 {
                return out;
            }
            let n = requests.len() as u32;
            let base = quota / n;
            let remainder = quota % n;
            let offset = (self.rr_turn % n as u64) as u32;
            out.extend(requests.iter().enumerate().map(|(i, r)| {
                // Rotate which UEs receive the remainder PRBs.
                let extra = if ((i as u32 + n - offset) % n) < remainder {
                    1
                } else {
                    0
                };
                (r.ue, base + extra)
            }));
            self.rr_turn = self.rr_turn.wrapping_add(1);
            out
        }
    }

    #[test]
    fn a_huge_pf_weight_keeps_the_grant_contract() {
        // A share total past f64::MAX degrades to an equal split: by NaN
        // shares the largest-remainder pass would grant 2 of 53 PRBs here.
        for weight in [MAX_PF_WEIGHT, 1e305, f64::MAX] {
            let heavy = UlRequest {
                ue: 0,
                inst_eff: 7.4,
                weight,
            };
            let light = UlRequest {
                ue: 1,
                inst_eff: 3.0,
                weight: 1.0,
            };
            let mut s = MacScheduler::new(SchedulerKind::ProportionalFair);
            assert_eq!(allocate(&mut s, 53, &[heavy]), vec![(0, 53)]);
            let g = allocate(&mut s, 53, &[heavy, light]);
            assert_eq!(
                g.iter().map(|&(_, p)| p).sum::<u32>(),
                53,
                "{weight:e}: {g:?}"
            );
            // Within the bound, the weight still decides the split.
            if weight == MAX_PF_WEIGHT {
                assert_eq!(g, vec![(0, 53), (1, 0)]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random TTIs of 0–40 requesters (lone ones included) from a
        /// drawn rotation, wrap-around included: every round-robin grant,
        /// and the rotation it leaves, matches the original's.
        #[test]
        fn rr_matches_the_original(
            rr_turn in prop_oneof![0u64..1_000, (u64::MAX - 50)..=u64::MAX],
            ttis in xg_prop::collection::vec((0u32..=273, 0u32..=40), 1..40),
        ) {
            let mut sched = MacScheduler::new(SchedulerKind::RoundRobin);
            sched.rr_turn = rr_turn;
            let mut original = ParentRr { rr_turn };
            for (quota, n) in ttis {
                let requests = reqs(n);
                prop_assert_eq!(allocate(&mut sched, quota, &requests), original.allocate(quota, &requests));
                prop_assert_eq!(sched.rr_turn, original.rr_turn);
            }
        }

        /// Random TTIs over a sparse UE population: a subset requests with
        /// drawn efficiencies and weights (zero weights and exact ties
        /// included), a quarter of the TTIs with a lone requester, the
        /// grants are served at drawn rates. Every allocation matches the
        /// original's.
        #[test]
        fn pf_matches_the_map_based_original(
            quota in 1u32..=273,
            ttis in xg_prop::collection::vec(
                (
                    xg_prop::collection::vec((0u32..40, 0u32..4, 0u32..3), 1..12),
                    0u32..1_000,
                    0u32..4,
                ),
                1..40,
            ),
        ) {
            let mut sched = MacScheduler::new(SchedulerKind::ProportionalFair);
            let mut original = MapPf::default();
            for (draws, rate, lone) in ttis {
                let draws = if lone == 0 { &draws[..1] } else { &draws[..] };
                let mut requests: Vec<UlRequest> = Vec::new();
                for &(ue, eff, weight) in draws {
                    if requests.iter().all(|r| r.ue != ue) {
                        requests.push(UlRequest {
                            ue,
                            inst_eff: eff as f64 * 1.7,
                            weight: weight as f64 * 0.5,
                        });
                    }
                }
                let grants = allocate(&mut sched, quota, &requests);
                prop_assert_eq!(&grants, &original.allocate(quota, &requests));
                for (ue, prbs) in grants {
                    let bits = (prbs * rate) as f64 * 0.37;
                    sched.observe(ue, bits);
                    original.observe(ue, bits);
                }
            }
        }

        /// The contract that made a per-TTI occupancy histogram a constant:
        /// with a non-zero quota and any request, either discipline grants
        /// one entry per request summing to exactly the quota — over drawn
        /// efficiencies, weights (all zero, ties, the largest the simulator
        /// accepts, and ones whose shares overflow), PF history, and more
        /// requesters than PRBs. A scheduler that under-allocated would fail
        /// here, and show per window in E2's granted/capacity.
        #[test]
        fn grants_sum_to_exactly_the_quota(
            pf in xg_prop::bool::ANY,
            quota in prop_oneof![1u32..=8, 1u32..=273],
            zero_weights in xg_prop::bool::ANY,
            ttis in xg_prop::collection::vec(
                (xg_prop::collection::vec((0u32..64, 0u32..6, 0usize..6), 1..24), 0u32..1_000),
                1..30,
            ),
        ) {
            let kind = if pf {
                SchedulerKind::ProportionalFair
            } else {
                SchedulerKind::RoundRobin
            };
            let mut sched = MacScheduler::new(kind);
            for (draws, rate) in ttis {
                let mut requests: Vec<UlRequest> = Vec::new();
                for (ue, eff, weight) in draws {
                    if requests.iter().all(|r| r.ue != ue) {
                        requests.push(UlRequest {
                            ue,
                            inst_eff: eff as f64 * 1.7,
                            weight: if zero_weights {
                                0.0
                            } else {
                                [0.0, 0.5, 1.0, MAX_PF_WEIGHT, 1e305, f64::MAX][weight]
                            },
                        });
                    }
                }
                let grants = allocate(&mut sched, quota, &requests);
                prop_assert_eq!(grants.len(), requests.len());
                let granted: u32 = grants.iter().map(|&(_, prbs)| prbs).sum();
                prop_assert_eq!(granted, quota, "{:?}: {:?}", kind, requests);
                for (ue, prbs) in grants {
                    sched.observe(ue, (prbs * rate) as f64 * 0.37);
                }
            }
        }
    }
}

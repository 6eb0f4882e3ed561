//! The slot kernel the memoised one replaced and the stepped walk around
//! it, kept as the test oracle: every TTI walked, every value computed
//! where the original computed it — a power spread and an efficiency per
//! request, a power spread per grant, a `sqrt` per channel step — no memo,
//! no spread table, no idle skip. `Advance::advance_to`, `measure_second`
//! and `measure_burst_latency_ms` must leave a simulator in the same state
//! as these, bit for bit, and count the same uplink TTIs; the proptest at
//! the bottom holds them to it, so nothing here is ever "optimised".
//!
//! Nor does it share the code it checks. It draws its normals with its own
//! ziggurat loop and reads the efficiency curve by a binary search of the
//! grid instead of index arithmetic; only the tables themselves
//! (`xg_sim::normal::LAYER_*`, `phy::SHANNON_BITS`) and `xg_sim::math` are
//! common, and those are held to std's libm by their own accuracy tests.
//! The MAC scheduler is the production one (`mac::tests` holds it to its
//! own original).

use super::*;
use crate::phy::{
    SHANNON_BITS, SHANNON_BITS_PER_DB, SHANNON_MAX_DB, SHANNON_MIN_DB, SHANNON_PER_DB,
};
use xg_sim::{math, normal};

/// A standard normal, written out from the ziggurat's definition over the
/// production tables: the low byte of a word picks the layer, bit 11 the
/// sign, the top 52 bits the magnitude; inside the next layer's edge it is
/// accepted outright, else layer 0 goes to the tail and the others test
/// their wedge against the density.
fn normal_naive(rng: &mut Rng) -> f64 {
    loop {
        let word = rng.next_u64();
        let layer = (word % 256) as usize;
        let negative = (word >> 11) & 1 == 1;
        let magnitude = ((word >> 12) as f64 + 0.5) / (1u64 << 52) as f64;
        let width = magnitude * normal::LAYER_X[layer];
        let x = if negative { -width } else { width };
        if width < normal::LAYER_X[layer + 1] {
            return x;
        }
        if layer == 0 {
            loop {
                let a = math::ln(1.0 - rng.next_f64()) / normal::TAIL_START;
                let b = math::ln(1.0 - rng.next_f64());
                if a * a <= -2.0 * b {
                    let tail = normal::TAIL_START - a;
                    return if negative { -tail } else { tail };
                }
            }
        }
        let (low, high) = (normal::LAYER_F[layer], normal::LAYER_F[layer + 1]);
        let height = low + rng.next_f64() * (high - low);
        if height < math::exp(-0.5 * x * x) {
            return x;
        }
    }
}

/// Spectral efficiency by bisecting the table's grid for the point at or
/// below `snr`, then interpolating.
fn efficiency_by_search(la: &LinkAdaptation, snr: Db) -> f64 {
    let pos = (snr.0 - SHANNON_MIN_DB) * SHANNON_PER_DB;
    let last = SHANNON_BITS.len() - 1;
    let bits = if pos.is_nan() || pos < 0.0 {
        0.0
    } else if pos >= last as f64 {
        SHANNON_BITS[last] + (snr.0 - SHANNON_MAX_DB) * SHANNON_BITS_PER_DB
    } else {
        let (mut lo, mut hi) = (0, last);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if mid as f64 <= pos {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        SHANNON_BITS[lo] + (pos - lo as f64) * (SHANNON_BITS[hi] - SHANNON_BITS[lo])
    };
    (la.alpha * bits).clamp(0.0, la.max_eff)
}

impl LinkSimulator {
    /// TDD power offset applicable to a UE (0 on FDD carriers).
    fn tdd_offset(&self, ue: &UeContext) -> f64 {
        match self.cell.duplex {
            Duplex::Fdd => 0.0,
            Duplex::Tdd(_) => ue.profile.tdd_power_offset.0,
        }
    }

    /// Advance one slot, computing everything afresh.
    fn step_slot_reference(&mut self) {
        let ul_frac = self.slot_ul_fraction();
        self.slot += 1;
        self.e2.slots += 1;
        if ul_frac == 0.0 {
            return;
        }
        self.e2.ul_slots += 1;
        if let Some(o) = &self.obs {
            o.slots.inc();
        }
        let prb_mhz = self.prb_mhz();
        let re_per_prb = res_per_prb_slot() as f64;
        let mut members: Vec<u32> = Vec::new();
        let mut requests = std::mem::take(&mut self.scratch_requests);
        let mut grants = std::mem::take(&mut self.scratch_grants);
        for slice_idx in 0..self.quotas.len() {
            let quota = self.quotas[slice_idx];
            self.e2.slices[slice_idx].capacity += quota as u64;
            members.clear();
            members.extend(
                self.ues
                    .iter()
                    .filter(|u| Self::wants_uplink(u) && u.slice.0 as usize == slice_idx)
                    .map(|u| u.id),
            );
            if members.is_empty() || quota == 0 {
                continue;
            }
            let share = (quota / members.len() as u32).max(1);
            requests.clear();
            for &id in &members {
                let u = &mut self.ues[id as usize];
                let tdd_off = match self.cell.duplex {
                    Duplex::Fdd => 0.0,
                    Duplex::Tdd(_) => u.profile.tdd_power_offset.0,
                };
                let snr = Db(u.profile.power.snr(share).0 + tdd_off + self.snr_offset_db);
                let eff = efficiency_by_search(&self.link_adapt, snr);
                u.e2_eff_sum += eff;
                u.e2_eff_ttis += 1;
                let inst_eff = match u.mcs_cap {
                    Some(cap) => eff.min(cap),
                    None => eff,
                };
                requests.push(UlRequest {
                    ue: id,
                    inst_eff,
                    weight: u.pf_weight,
                });
            }
            self.scheds[slice_idx].allocate_into(quota, &requests, &mut grants);
            for &(ue_id, prbs) in &grants {
                if prbs == 0 {
                    continue;
                }
                let tdd_off = self.tdd_offset(&self.ues[ue_id as usize]);
                let snr_fault = self.snr_offset_db;
                let u = &mut self.ues[ue_id as usize];
                let w = normal_naive(&mut self.rng);
                let fast_w = normal_naive(&mut self.rng);
                let jitter = u.channel.step_unfolded(calib::SHADOW_SIGMA_DB, w, fast_w);
                let snr = Db(u.profile.power.snr(prbs).0 + tdd_off + jitter.0 + snr_fault);
                let mut eff = efficiency_by_search(&self.link_adapt, snr);
                if let Some(cap) = u.mcs_cap {
                    eff = eff.min(cap);
                }
                let modem = u.profile.modem_factor(prbs as f64 * prb_mhz);
                let capacity = prbs as f64 * re_per_prb * eff * ul_frac * modem;
                let bits = if matches!(u.traffic, TrafficModel::FullBuffer) {
                    capacity
                } else {
                    let served = capacity.min(u.pending_bits);
                    u.pending_bits -= served;
                    served
                };
                u.window_bits += bits;
                u.e2_granted_prb_ttis += prbs as u64;
                u.e2_sched_ttis += 1;
                u.e2_served_bits += bits;
                if jitter.0 + snr_fault <= HARQ_NACK_FADE_DB {
                    u.e2_nack_ttis += 1;
                }
                self.e2.slices[slice_idx].granted += prbs as u64;
                self.e2.slices[slice_idx].served += bits;
                self.scheds[slice_idx].observe(ue_id, bits);
            }
        }
        self.scratch_requests = requests;
        self.scratch_grants = grants;
    }

    /// Stepped reference engine: byte-for-byte the pre-event-engine
    /// behaviour, walking every TTI with no idle skipping.
    fn advance_to_stepped(&mut self, t: SimNs) {
        let target = t.0 / self.slot_ns();
        let per_second = self.cell.scs.slots_per_second() as u64;
        while self.slot < target {
            if self.slot.is_multiple_of(per_second) {
                self.enqueue_offered();
            }
            self.step_counting_active();
        }
    }

    /// `measure_second` on the stepped walk: one up-front enqueue, a
    /// second of TTIs, the window flush.
    fn measure_second_stepped(&mut self) -> Vec<(UeHandle, f64)> {
        self.enqueue_offered();
        for _ in 0..self.cell.scs.slots_per_second() {
            self.step_counting_active();
        }
        self.flush_second_window(1.0)
    }

    /// `measure_burst_latency_ms` on the reference kernel.
    fn measure_burst_latency_ms_stepped(
        &mut self,
        ue: UeHandle,
        payload_bytes: usize,
    ) -> Result<f64> {
        let u = self
            .ues
            .get_mut(ue.0 as usize)
            .ok_or(NetError::UnknownUe(ue.0))?;
        if matches!(u.traffic, TrafficModel::FullBuffer) {
            return Err(NetError::InvalidSessionState(
                "burst latency needs a finite traffic model".into(),
            ));
        }
        u.pending_bits += payload_bytes as f64 * 8.0;
        let slot_ms = 1_000.0 / self.cell.scs.slots_per_second() as f64;
        let mut elapsed = 0.0;
        for _ in 0..self.cell.scs.slots_per_second() * 10 {
            self.step_slot_reference();
            elapsed += slot_ms;
            if self.ues[ue.0 as usize].pending_bits <= 0.0 {
                return Ok(elapsed);
            }
        }
        Err(NetError::InvalidSessionState(
            "burst did not drain within 10 s".into(),
        ))
    }

    fn step_counting_active(&mut self) {
        let active = self.any_wants_uplink();
        self.step_slot_reference();
        if active {
            self.active_slots += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::SchedulerKind;
    use crate::rat::Rat;
    use crate::slice::{SliceConfig, SliceProfile};
    use crate::units::MHz;
    use xg_prop::prelude::*;

    /// Everything a simulator carries from one call to the next — RNG,
    /// every UE (queue, window, channel, E2 counters, caps and weights),
    /// the E2 accumulator, each scheduler's turn and PF averages, quotas,
    /// clock — as text. `{:?}` prints an `f64` so that it reads back
    /// exactly, so equal text is equal bits. The request memo is blanked:
    /// the reference never fills it, and it is a cache, not state.
    fn whole_state(sim: &LinkSimulator) -> String {
        let mut ues = sim.ues.clone();
        for u in &mut ues {
            (u.req_share, u.req_eff) = (0, 0.0);
        }
        let clock = (sim.slot, sim.active_slots, sim.snr_offset_db);
        format!(
            "{:?}",
            (&sim.rng, clock, &ues, &sim.e2, &sim.scheds, &sim.quotas)
        )
    }

    /// The text around the first place the two engines' states differ,
    /// `None` when they are the same.
    fn state_difference(event: &LinkSimulator, stepped: &LinkSimulator) -> Option<String> {
        let (a, b) = (whole_state(event), whole_state(stepped));
        if a == b {
            return None;
        }
        let at = a.bytes().zip(b.bytes()).position(|(x, y)| x != y);
        let from = at.unwrap_or(0).saturating_sub(120);
        let near = |s: &str| s.chars().skip(from).take(200).collect::<String>();
        Some(format!("event   …{}…\nstepped …{}…", near(&a), near(&b)))
    }

    /// What a simulator's RAN instruments hold — the uplink-TTI count and
    /// the goodput histogram — as text, so equal text is equal bits.
    fn instruments(obs: &Obs) -> (u64, String) {
        let reg = obs.registry().unwrap();
        let goodput = reg.histogram("ran.ue.goodput_mbps").snapshot();
        (reg.counter("ran.tti.slots").get(), format!("{goodput:?}"))
    }

    /// `n` slices (S-NSSAIs `miot(1..=n)`) with shares that leave some
    /// quotas a PRB or two wide, so zero-PRB grants occur.
    fn slice_table(n: usize, variant: u32) -> SliceConfig {
        const SHARES: [[f64; 3]; 4] = [
            [0.5, 0.3, 0.2],
            [0.02, 0.58, 0.4],
            [0.34, 0.33, 0.33],
            [0.7, 0.01, 0.2],
        ];
        let row = SHARES[variant as usize % SHARES.len()];
        let profiles = (0..n)
            .map(|i| SliceProfile {
                snssai: Snssai::miot(i as u32 + 1),
                prb_share: row[i],
            })
            .collect();
        SliceConfig::new(profiles).unwrap()
    }

    /// All four traffic models, under- and over-loaded.
    fn traffic(pick: u32) -> TrafficModel {
        match pick % 6 {
            0 => TrafficModel::FullBuffer,
            1 => TrafficModel::Periodic {
                payload_bytes: 48,
                interval_s: 1.0,
            },
            2 => TrafficModel::Periodic {
                payload_bytes: 1_200,
                interval_s: 3.0,
            },
            3 => TrafficModel::Cbr { rate_mbps: 2.0 },
            4 => TrafficModel::Cbr { rate_mbps: 40.0 },
            _ => TrafficModel::pest_camera(0.5, 20.0, 1.0, 2.0),
        }
    }

    /// Attach one UE of a drawn kind to both simulators alike.
    fn attach(sims: [&mut LinkSimulator; 2], device: u32, slice: u32, weak: bool) -> bool {
        let device = DeviceClass::all()[device as usize % 3];
        let variation = if weak {
            UnitVariation::rpi_unit_a()
        } else {
            UnitVariation::default()
        };
        let [a, b] = sims.map(|sim| {
            sim.attach_with(
                device,
                Modem::paper_default(device, Rat::Nr5g),
                Snssai::miot(slice % 3 + 1),
                variation,
            )
            .is_ok()
        });
        assert_eq!(a, b);
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The headline equivalence, over everything that can invalidate
        /// the memo or move a grant: a drawn cell (FDD or TDD, RR or PF,
        /// 1–3 slices) is driven through a drawn script of time advances,
        /// measured seconds, burst-latency measurements, indication drains
        /// and control-plane calls, once on the event engine and once on
        /// the reference, and after every step the two hold the same
        /// state, bit for bit — which fails if the RNG streams part by one
        /// draw — and their instruments read alike: the event engine's
        /// once-per-advance `ran.tti.slots` equals the reference's per-TTI
        /// count.
        #[test]
        fn event_engine_is_bitwise_identical_to_stepped(
            seed in 0u64..u64::MAX,
            cell in (xg_prop::bool::ANY, xg_prop::bool::ANY, 1usize..=3, 0u32..4),
            ues in xg_prop::collection::vec(
                (0u32..3, 0u32..3, xg_prop::bool::ANY, 0u32..6),
                1..5,
            ),
            script in xg_prop::collection::vec((0u32..17, 0u32..10_000, 0u32..1_000), 4..14),
        ) {
            let (tdd, pf, n_slices, shares) = cell;
            let duplex = if tdd { Duplex::tdd_default() } else { Duplex::Fdd };
            let scheduler = if pf {
                SchedulerKind::ProportionalFair
            } else {
                SchedulerKind::RoundRobin
            };
            let config = CellConfig::new(Rat::Nr5g, duplex, MHz(20.0))
                .with_slices(slice_table(n_slices, shares))
                .with_scheduler(scheduler);
            let mut event = LinkSimulator::try_new(config.clone(), seed).unwrap();
            let mut stepped = LinkSimulator::try_new(config, seed).unwrap();
            let (event_obs, stepped_obs) = (Obs::enabled(), Obs::enabled());
            event.set_obs(&event_obs);
            stepped.set_obs(&stepped_obs);
            let mut attached = 0u32;
            for (device, slice, weak, model) in ues {
                if attach([&mut event, &mut stepped], device, slice % n_slices as u32, weak) {
                    for sim in [&mut event, &mut stepped] {
                        sim.set_traffic(UeHandle(attached), traffic(model)).unwrap();
                    }
                    attached += 1;
                }
            }
            for (step, (op, a, b)) in script.into_iter().enumerate() {
                let ue = UeHandle(a % attached.max(1));
                let pick = b as usize;
                match op {
                    // Time: short hops, and jumps across second boundaries.
                    0..=4 => {
                        let ms = if op == 0 { a % 2_500 } else { a % 300 } as u64 + 1;
                        let t = SimNs(event.now().0 + ms * 1_000_000);
                        event.advance_to(t).unwrap();
                        stepped.advance_to_stepped(t);
                    }
                    5 => {
                        let (x, y) = (event.measure_second(), stepped.measure_second_stepped());
                        prop_assert_eq!(format!("{x:?}"), format!("{y:?}"), "step {}", step);
                    }
                    6 => {
                        let (x, y) = (event.take_indication(a), stepped.take_indication(a));
                        prop_assert_eq!(format!("{x:?}"), format!("{y:?}"), "step {}", step);
                    }
                    7 => {
                        if attach([&mut event, &mut stepped], a, b, a % 2 == 0) {
                            attached += 1;
                        }
                    }
                    16 => {
                        let bytes = a as usize % 4_000;
                        let x = event.measure_burst_latency_ms(ue, bytes);
                        let y = stepped.measure_burst_latency_ms_stepped(ue, bytes);
                        prop_assert_eq!(format!("{x:?}"), format!("{y:?}"), "step {}", step);
                    }
                    // Control plane: both engines take the same call and
                    // answer alike, errors included (an S-NSSAI the new
                    // table lost).
                    op => {
                        let [x, y] = [&mut event, &mut stepped].map(|sim| match op {
                            8 | 9 => {
                                sim.set_snr_offset_db([-25.0, -12.5, -3.0, 0.0, 4.0][pick % 5]);
                                true
                            }
                            10 => sim.set_slices(slice_table(a as usize % 3 + 1, b)).is_ok(),
                            12 => {
                                let cap = [None, Some(0.8), Some(3.0), Some(9.0)][pick % 4];
                                sim.set_mcs_cap(ue, cap).is_ok()
                            }
                            13 => sim.set_pf_weight(ue, [0.25, 1.0, 6.0][pick % 3]).is_ok(),
                            14 => sim.set_traffic(ue, traffic(b)).is_ok(),
                            _ => sim.set_backlogged(ue, b % 2 == 0).is_ok(),
                        });
                        prop_assert_eq!(x, y, "step {} (op {})", step, op);
                    }
                }
                let diff = state_difference(&event, &stepped);
                prop_assert!(diff.is_none(), "after step {} (op {}):\n{}", step, op, diff.unwrap());
                prop_assert_eq!(
                    instruments(&event_obs),
                    instruments(&stepped_obs),
                    "after step {} (op {})",
                    step,
                    op
                );
            }
            // One more measured second on each engine from where the
            // script left them.
            let (x, y) = (event.measure_second(), stepped.measure_second_stepped());
            prop_assert_eq!(format!("{x:?}"), format!("{y:?}"));
            let diff = state_difference(&event, &stepped);
            prop_assert!(diff.is_none(), "after the script:\n{}", diff.unwrap());
            prop_assert_eq!(instruments(&event_obs), instruments(&stepped_obs));
        }
    }

    /// The grant path's tabulated power spread gives `UplinkPower::snr`
    /// for every grant width of every grid the PRB tables define,
    /// power-limited and saturated alike.
    #[test]
    fn spread_table_matches_uplink_power_bit_for_bit() {
        let lte = [1.4, 3.0, 5.0, 10.0, 15.0, 20.0];
        let nr = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 50.0];
        let grids = lte
            .iter()
            .map(|&bw| (Rat::Lte4g, Duplex::Fdd, bw))
            .chain(nr.iter().map(|&bw| (Rat::Nr5g, Duplex::Fdd, bw)))
            .chain(nr.iter().map(|&bw| (Rat::Nr5g, Duplex::tdd_default(), bw)));
        let mut widths = 0;
        for (rat, duplex, bw) in grids {
            let sim = LinkSimulator::try_new(CellConfig::new(rat, duplex, MHz(bw)), 0).unwrap();
            assert_eq!(sim.prb_spread_db.len(), sim.total_prbs as usize + 1);
            for device in DeviceClass::all() {
                let power = RadioProfile::lookup(device, Modem::Integrated, rat).power;
                for n in 1..=sim.total_prbs {
                    let tabulated = power.snr_at_spread(sim.prb_spread_db[n as usize]);
                    assert_eq!(
                        tabulated.0.to_bits(),
                        power.snr(n).0.to_bits(),
                        "{rat:?} {bw} MHz, {n} PRBs"
                    );
                    widths += 1;
                }
            }
        }
        assert!(widths > 5_000, "{widths}");
    }
}

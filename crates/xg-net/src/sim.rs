//! TTI-level uplink link simulator.
//!
//! [`LinkSimulator`] binds a [`CellConfig`], a [`Core5g`] control plane, and
//! a set of attached UEs, then steps the system one slot at a time. Every
//! simulated second it emits one throughput sample per UE — the unit the
//! paper's iperf3 experiments collect 100 of per configuration.

use crate::calib;
use crate::cell::CellConfig;
use crate::channel::ShadowingChannel;
use crate::core5g::{Core5g, SimCard};
use crate::device::{DeviceClass, Modem, RadioProfile, UnitVariation};
use crate::e2::{eff_to_cqi, CellIndication, SliceReport, UeReport};
use crate::error::{NetError, Result};
use crate::iperf::IperfRun;
use crate::mac::{MacScheduler, UlRequest, MAX_PF_WEIGHT};
use crate::phy::{power_spread_db, res_per_prb_slot, LinkAdaptation, Scs};
use crate::rat::{Duplex, SlotDir, SPECIAL_SLOT_UL_FRACTION};
use crate::slice::{SliceId, Snssai};
use crate::traffic::TrafficModel;
use crate::ue::UeContext;
use crate::units::Db;
use std::sync::Arc;
use xg_obs::{Counter, Histogram, Obs};
use xg_sim::rng::Rng;
use xg_sim::{Advance, SimNs};

/// Opaque handle to an attached UE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UeHandle(pub(crate) u32);

impl UeHandle {
    /// Numeric id within the cell (stable for the UE's lifetime; useful
    /// as a map key or label when recording results).
    pub fn id(self) -> u32 {
        self.0
    }

    /// Rebuild a handle from a cell-local UE id carried through an
    /// external control channel (an E2 report, a RIC action). Validity is
    /// checked by whichever simulator API the handle is passed to — an
    /// id no UE owns yields `NetError::UnknownUe`, not a panic.
    pub fn from_id(id: u32) -> Self {
        UeHandle(id)
    }
}

/// Pre-resolved RAN instruments (resolved once at attach time).
#[derive(Debug, Clone)]
struct RanObs {
    /// Per-UE uplink goodput samples, Mbps, one per simulated second.
    goodput_mbps: Arc<Histogram>,
    /// Uplink-capable TTIs simulated, added once per advance: the slot
    /// loop itself carries no instrument.
    slots: Arc<Counter>,
    /// Currently applied cell-wide SNR offset (dB); 0 when nominal, so an
    /// SLO or dashboard can correlate goodput dips with injected fades.
    snr_offset_db: Arc<xg_obs::Gauge>,
}

impl RanObs {
    fn new(obs: &Obs) -> Option<Self> {
        let reg = obs.registry()?;
        Some(RanObs {
            goodput_mbps: reg.histogram("ran.ue.goodput_mbps"),
            slots: reg.counter("ran.tti.slots"),
            snr_offset_db: reg.gauge("ran.snr_offset_db"),
        })
    }
}

/// Fast-fade depth (dB, relative to the link-adaptation operating point)
/// below which a scheduled TTI is counted as an initial-transmission
/// failure — the HARQ retransmission proxy reported over E2.
const HARQ_NACK_FADE_DB: f64 = -6.0;

/// Per-cell E2 accumulator: everything [`LinkSimulator::take_indication`]
/// drains. Updated with plain arithmetic only — no RNG draws — so
/// collecting indications cannot perturb the simulation.
#[derive(Debug, Clone, Default)]
struct E2Acc {
    /// Slots stepped since the last drain (window length).
    slots: u64,
    /// Uplink-capable slots since the last drain.
    ul_slots: u64,
    /// The window's per-slice counters, by slice index.
    slices: Vec<SliceAcc>,
}

/// One slice's counters in the E2 window.
#[derive(Debug, Clone, Copy, Default)]
struct SliceAcc {
    /// PRB·TTIs granted.
    granted: u64,
    /// PRB·TTIs offered by the quota (quota × uplink slots).
    capacity: u64,
    /// Bits entering uplink queues.
    offered: f64,
    /// MAC bits served.
    served: f64,
}

/// The uplink link-level simulator for one cell.
pub struct LinkSimulator {
    cell: CellConfig,
    core: Core5g,
    ues: Vec<UeContext>,
    scheds: Vec<MacScheduler>,
    link_adapt: LinkAdaptation,
    rng: Rng,
    slot: u64,
    next_sim_index: u32,
    total_prbs: u32,
    /// `power_spread_db(n)`, the `10·log10(n)` dB `UplinkPower::snr`
    /// subtracts, by grant width `n` in `1..=total_prbs`: what the request
    /// and grant paths read instead of computing it. Entry 0 is never
    /// read: a zero-PRB grant or share is skipped.
    prb_spread_db: Vec<f64>,
    quotas: Vec<u32>,
    /// Cell-wide SNR offset (dB) for fault injection: a negative value
    /// models RAN degradation (interference, weather, detuned antenna)
    /// that collapses every UE's MCS without detaching anyone.
    snr_offset_db: f64,
    /// E2 indication window accumulator.
    e2: E2Acc,
    obs: Option<RanObs>,
    /// Slots on which scheduler work actually executed (somebody wanted
    /// uplink) as opposed to idle-skipped — the O(events) counter the
    /// event-engine tests gate on.
    active_slots: u64,
    /// Scratch buffers reused across TTIs so the hot loop performs no
    /// per-slot allocations.
    scratch_requests: Vec<UlRequest>,
    scratch_grants: Vec<(u32, u32)>,
}

/// Staged construction of a fully configured [`LinkSimulator`]:
/// cell → slices → obs → seed, validated once at [`build`].
///
/// The builder folds what used to be post-hoc `set_slices`/`set_obs`
/// wiring into construction, so a simulator is complete the moment it
/// exists; the runtime setters remain for *mutation* (fault injection,
/// dynamic re-slicing), not initial configuration.
///
/// ```
/// use xg_net::prelude::*;
/// let sim = LinkSimulator::builder(CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0)))
///     .seed(42)
///     .build()
///     .expect("20 MHz is a valid NR FDD bandwidth");
/// assert_eq!(sim.total_prbs(), 106);
/// ```
///
/// [`build`]: LinkSimulatorBuilder::build
#[derive(Debug, Clone)]
pub struct LinkSimulatorBuilder {
    cell: CellConfig,
    seed: u64,
    obs: Obs,
}

impl LinkSimulatorBuilder {
    /// Start from a cell configuration.
    pub(crate) fn new(cell: CellConfig) -> Self {
        LinkSimulatorBuilder {
            cell,
            seed: 0,
            obs: Obs::disabled(),
        }
    }

    /// Attach an observability handle at construction (per-UE goodput
    /// and the uplink TTI count land in its registry). A disabled handle
    /// is a no-op.
    pub fn obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Set the deterministic RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validate the configuration and construct the simulator.
    pub fn build(self) -> Result<LinkSimulator> {
        let mut sim = LinkSimulator::try_new(self.cell, self.seed)?;
        sim.set_obs(&self.obs);
        Ok(sim)
    }
}

impl LinkSimulator {
    /// Start a staged [`LinkSimulatorBuilder`] for `cell`.
    pub fn builder(cell: CellConfig) -> LinkSimulatorBuilder {
        LinkSimulatorBuilder::new(cell)
    }

    /// Create a simulator for `cell`, seeded deterministically, surfacing
    /// an invalid cell (a bandwidth outside the 3GPP tables for its
    /// RAT/SCS combination) as a typed error instead of a panic —
    /// matching the `XgFabric::try_new` convention.
    pub fn try_new(cell: CellConfig, seed: u64) -> Result<Self> {
        let total_prbs = cell.total_prbs()?;
        let quotas = cell.slices.prb_quotas(total_prbs);
        let scheds = (0..cell.slices.len())
            .map(|_| MacScheduler::new(cell.scheduler))
            .collect();
        let link_adapt = LinkAdaptation::for_rat(cell.rat);
        let e2 = E2Acc {
            slices: vec![SliceAcc::default(); cell.slices.len()],
            ..E2Acc::default()
        };
        Ok(LinkSimulator {
            cell,
            core: Core5g::new(),
            ues: Vec::new(),
            scheds,
            link_adapt,
            rng: Rng::seed_from_u64(seed),
            slot: 0,
            next_sim_index: 0,
            total_prbs,
            prb_spread_db: (0..=total_prbs).map(power_spread_db).collect(),
            quotas,
            snr_offset_db: 0.0,
            e2,
            obs: None,
            active_slots: 0,
            scratch_requests: Vec::new(),
            scratch_grants: Vec::new(),
        })
    }

    /// Attach an observability handle: per-UE goodput and the uplink TTI
    /// count land in its registry. A disabled handle detaches.
    pub(crate) fn set_obs(&mut self, obs: &Obs) {
        self.obs = RanObs::new(obs);
        if let Some(o) = &self.obs {
            o.snr_offset_db.set(self.snr_offset_db);
        }
    }

    /// Apply a cell-wide SNR offset in dB (fault injection). Negative
    /// values degrade every UE's link adaptation; `0.0` restores nominal
    /// operation.
    pub fn set_snr_offset_db(&mut self, offset_db: f64) {
        self.snr_offset_db = offset_db;
        // Every memoised request efficiency was computed under the old one.
        for u in &mut self.ues {
            u.req_share = 0;
        }
        if let Some(o) = &self.obs {
            o.snr_offset_db.set(offset_db);
        }
    }

    /// The cell configuration.
    pub fn cell(&self) -> &CellConfig {
        &self.cell
    }

    /// Total uplink PRBs of the configured grid.
    pub fn total_prbs(&self) -> u32 {
        self.total_prbs
    }

    /// Reconfigure the slice table at runtime (dynamic slicing, §5).
    ///
    /// The new table must contain the S-NSSAI of every currently attached
    /// UE (a live PDU session cannot lose its slice); slice ids are
    /// re-derived from the new table. Scheduler state is preserved per
    /// slice index where possible.
    pub fn set_slices(&mut self, slices: crate::slice::SliceConfig) -> Result<()> {
        // Every attached UE's slice must still be admitted.
        let mut new_ids = Vec::with_capacity(self.ues.len());
        for u in &self.ues {
            let snssai = self.cell.slices.profile(u.slice)?.snssai;
            let new_id = slices
                .admit(snssai)
                .ok_or(NetError::UnknownSlice(u.slice.0))?;
            new_ids.push(new_id);
        }
        for (u, id) in self.ues.iter_mut().zip(new_ids) {
            u.slice = id;
        }
        self.quotas = slices.prb_quotas(self.total_prbs);
        // Grow or shrink the per-slice scheduler set.
        self.scheds
            .resize_with(slices.len(), || MacScheduler::new(self.cell.scheduler));
        // Keep the E2 accumulator aligned with the slice table; counters
        // accumulated so far stay attached to their slice index (the
        // window closes at the next indication drain anyway).
        self.e2.slices.resize(slices.len(), SliceAcc::default());
        self.cell.slices = slices;
        Ok(())
    }

    /// Access the core-network control plane.
    pub fn core(&self) -> &Core5g {
        &self.core
    }

    /// Attach a UE on the cell's first slice with no unit variation.
    pub fn attach(&mut self, device: DeviceClass, modem: Modem) -> Result<UeHandle> {
        let snssai = self.cell.slices.profile(SliceId(0))?.snssai;
        self.attach_with(device, modem, snssai, UnitVariation::default())
    }

    /// Attach a UE on the slice identified by `snssai`, applying the given
    /// unit variation. Performs the full control-plane sequence: SIM
    /// provisioning, registration, slice admission, PDU session.
    pub fn attach_with(
        &mut self,
        device: DeviceClass,
        modem: Modem,
        snssai: Snssai,
        variation: UnitVariation,
    ) -> Result<UeHandle> {
        if !modem.supports(self.cell.rat) {
            return Err(NetError::DuplexMismatch(format!(
                "{modem:?} does not support {:?}",
                self.cell.rat
            )));
        }
        if self.ues.len() >= self.cell.max_ues {
            return Err(NetError::CellFull);
        }
        let slice = self
            .cell
            .slices
            .admit(snssai)
            .ok_or(NetError::UnknownSlice(u16::MAX))?;
        let sim = SimCard::provision(self.next_sim_index);
        self.next_sim_index += 1;
        self.core.provision(sim.clone(), vec![snssai]);
        self.core.register(&sim)?;
        self.core.establish_session(&sim.imsi, snssai, "internet")?;
        let mut profile = RadioProfile::lookup(device, modem, self.cell.rat);
        if matches!(self.cell.duplex, Duplex::Fdd) {
            // A UE's TDD power offset applies on TDD carriers only.
            profile.tdd_power_offset = Db(0.0);
        }
        let id = self.ues.len() as u32;
        let channel = ShadowingChannel::new(
            calib::SHADOW_RHO,
            calib::SHADOW_SIGMA_DB,
            calib::FAST_FADE_SIGMA_DB,
        );
        self.ues.push(UeContext::new(
            id, device, profile, variation, slice, channel,
        ));
        Ok(UeHandle(id))
    }

    /// Set whether a UE has uplink traffic pending.
    pub fn set_backlogged(&mut self, ue: UeHandle, backlogged: bool) -> Result<()> {
        self.ues
            .get_mut(ue.0 as usize)
            .ok_or(NetError::UnknownUe(ue.0))?
            .backlogged = backlogged;
        Ok(())
    }

    /// Set a UE's offered-traffic model (default: full buffer).
    pub fn set_traffic(&mut self, ue: UeHandle, traffic: TrafficModel) -> Result<()> {
        let u = self
            .ues
            .get_mut(ue.0 as usize)
            .ok_or(NetError::UnknownUe(ue.0))?;
        u.traffic = traffic;
        u.pending_bits = 0.0;
        Ok(())
    }

    /// Set a UE's proportional-fair scheduler weight (RIC control).
    /// Must be positive and at most `MAX_PF_WEIGHT`, so the
    /// scheduler's shares stay finite; 1.0 restores the neutral weight.
    pub fn set_pf_weight(&mut self, ue: UeHandle, weight: f64) -> Result<()> {
        if !(weight > 0.0 && weight <= MAX_PF_WEIGHT) {
            return Err(NetError::InvalidParameter(format!(
                "PF weight must be in (0, {MAX_PF_WEIGHT:e}], got {weight}"
            )));
        }
        self.ues
            .get_mut(ue.0 as usize)
            .ok_or(NetError::UnknownUe(ue.0))?
            .pf_weight = weight;
        Ok(())
    }

    /// A UE's current proportional-fair scheduler weight.
    pub fn pf_weight(&self, ue: UeHandle) -> Result<f64> {
        Ok(self
            .ues
            .get(ue.0 as usize)
            .ok_or(NetError::UnknownUe(ue.0))?
            .pf_weight)
    }

    /// Cap a UE's link adaptation at `max_eff` bits per resource element
    /// (RIC MCS cap); `None` removes the cap.
    pub fn set_mcs_cap(&mut self, ue: UeHandle, max_eff: Option<f64>) -> Result<()> {
        if let Some(cap) = max_eff {
            if !cap.is_finite() || cap <= 0.0 {
                return Err(NetError::InvalidParameter(format!(
                    "MCS cap must be positive and finite, got {cap}"
                )));
            }
        }
        self.ues
            .get_mut(ue.0 as usize)
            .ok_or(NetError::UnknownUe(ue.0))?
            .mcs_cap = max_eff;
        Ok(())
    }

    /// A UE's current MCS cap (spectral-efficiency ceiling), if any.
    pub fn mcs_cap(&self, ue: UeHandle) -> Result<Option<f64>> {
        Ok(self
            .ues
            .get(ue.0 as usize)
            .ok_or(NetError::UnknownUe(ue.0))?
            .mcs_cap)
    }

    /// Drain the E2 indication window accumulated since the previous
    /// drain (or construction) into a [`CellIndication`] stamped with
    /// `cell`. Pure reads and resets — no RNG draws — so a run that
    /// collects indications is bitwise identical to one that does not.
    pub(crate) fn take_indication(&mut self, cell: u32) -> CellIndication {
        let window_s = self.e2.slots as f64 / self.cell.scs.slots_per_second() as f64;
        // Slice ids are table positions; queue depths are summed in below,
        // in UE order, before each UE's counters reset.
        let mut slices: Vec<SliceReport> = self
            .cell
            .slices
            .iter()
            .map(|(id, p)| {
                let i = id.0 as usize;
                SliceReport {
                    slice: id.0,
                    snssai: p.snssai,
                    prb_share: p.prb_share,
                    quota_prbs: self.quotas[i],
                    granted_prb_ttis: self.e2.slices[i].granted,
                    capacity_prb_ttis: self.e2.slices[i].capacity,
                    offered_bits: self.e2.slices[i].offered,
                    served_bits: self.e2.slices[i].served,
                    queued_bits: 0.0,
                }
            })
            .collect();
        let max_eff = self.link_adapt.max_eff;
        let ues: Vec<UeReport> = self
            .ues
            .iter_mut()
            .map(|u| {
                let cqi = if u.e2_eff_ttis > 0 {
                    eff_to_cqi(u.e2_eff_sum / u.e2_eff_ttis as f64, max_eff)
                } else {
                    0
                };
                let harq_nack_rate = if u.e2_sched_ttis > 0 {
                    u.e2_nack_ttis as f64 / u.e2_sched_ttis as f64
                } else {
                    0.0
                };
                let queued_bits = if matches!(u.traffic, TrafficModel::FullBuffer) {
                    0.0
                } else {
                    if let Some(s) = slices.get_mut(u.slice.0 as usize) {
                        s.queued_bits += u.pending_bits;
                    }
                    u.pending_bits
                };
                let report = UeReport {
                    ue: u.id,
                    slice: u.slice.0,
                    granted_prb_ttis: u.e2_granted_prb_ttis,
                    sched_ttis: u.e2_sched_ttis,
                    served_bits: u.e2_served_bits,
                    queued_bits,
                    cqi,
                    harq_nack_rate,
                };
                u.reset_e2();
                report
            })
            .collect();
        let indication = CellIndication {
            cell,
            window_s,
            ul_slots: self.e2.ul_slots,
            total_prbs: self.total_prbs,
            ues,
            slices,
        };
        // Open a fresh window in place, over the same slice table.
        (self.e2.slots, self.e2.ul_slots) = (0, 0);
        self.e2.slices.fill(SliceAcc::default());
        indication
    }

    /// Current simulated time (s) derived from the slot counter.
    pub(crate) fn now_s(&self) -> f64 {
        self.slot as f64 / self.cell.scs.slots_per_second() as f64
    }

    /// Whether a UE wants uplink resources in the current slot.
    fn wants_uplink(u: &UeContext) -> bool {
        u.backlogged && (matches!(u.traffic, TrafficModel::FullBuffer) || u.pending_bits > 0.0)
    }

    /// Measure the uplink serialization latency of a burst: enqueue
    /// `payload_bytes` on an otherwise idle periodic/CBR UE and step slots
    /// until the queue drains. Returns the drain time in ms (the
    /// RAN-level component of the paper's end-to-end message latency).
    pub fn measure_burst_latency_ms(&mut self, ue: UeHandle, payload_bytes: usize) -> Result<f64> {
        {
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
        }
        let slot_ms = 1_000.0 / self.cell.scs.slots_per_second() as f64;
        let ul_before = self.e2.ul_slots;
        let mut elapsed = 0.0;
        let mut drained = None;
        // Bound the wait at 10 simulated seconds.
        let max_slots = self.cell.scs.slots_per_second() * 10;
        for _ in 0..max_slots {
            self.step_slot();
            elapsed += slot_ms;
            if self.ues[ue.0 as usize].pending_bits <= 0.0 {
                drained = Some(elapsed);
                break;
            }
        }
        if let Some(o) = &self.obs {
            o.slots.add(self.e2.ul_slots - ul_before);
        }
        drained
            .ok_or_else(|| NetError::InvalidSessionState("burst did not drain within 10 s".into()))
    }

    /// Uplink capacity fraction of the current slot.
    fn slot_ul_fraction(&self) -> f64 {
        match &self.cell.duplex {
            Duplex::Fdd => 1.0,
            Duplex::Tdd(pattern) => match pattern.slot(self.slot as usize) {
                SlotDir::Uplink => 1.0,
                SlotDir::Special => SPECIAL_SLOT_UL_FRACTION,
                SlotDir::Downlink => 0.0,
            },
        }
    }

    /// PRB bandwidth in MHz for the cell's numerology.
    fn prb_mhz(&self) -> f64 {
        match self.cell.scs {
            Scs::Khz15 => 0.180,
            Scs::Khz30 => 0.360,
        }
    }

    /// Advance one slot.
    fn step_slot(&mut self) {
        let ul_frac = self.slot_ul_fraction();
        self.slot += 1;
        self.e2.slots += 1;
        if ul_frac == 0.0 {
            return;
        }
        self.e2.ul_slots += 1;
        let prb_mhz = self.prb_mhz();
        let re_per_prb = res_per_prb_slot() as f64;
        let snr_fault = self.snr_offset_db;
        // Scratch buffers are moved out for the duration of the slot so
        // the borrow checker lets the loop mutate `self.ues` alongside.
        let mut requests = std::mem::take(&mut self.scratch_requests);
        let mut grants = std::mem::take(&mut self.scratch_grants);
        for slice_idx in 0..self.quotas.len() {
            let quota = self.quotas[slice_idx];
            self.e2.slices[slice_idx].capacity += quota as u64;
            // Backlogged UEs of this slice request with an efficiency
            // estimate at their expected share (for proportional fair).
            let member = |u: &UeContext| Self::wants_uplink(u) && u.slice.0 as usize == slice_idx;
            let members = self.ues.iter().filter(|u| member(u)).count();
            if members == 0 || quota == 0 {
                continue;
            }
            let share = (quota / members as u32).max(1);
            requests.clear();
            for u in self.ues.iter_mut().filter(|u| member(u)) {
                // The estimate depends on nothing a TTI changes: the
                // profile is fixed at attach, and setting the cell SNR
                // offset clears the memo.
                if u.req_share != share {
                    let spread = self.prb_spread_db[share as usize];
                    let power = u.profile.power.snr_at_spread(spread).0;
                    let snr = Db(power + u.profile.tdd_power_offset.0 + snr_fault);
                    u.req_eff = self.link_adapt.efficiency(snr);
                    u.req_share = share;
                }
                let eff = u.req_eff;
                // CQI reports the raw channel; the RIC's MCS cap only
                // constrains what the scheduler may use (a capped report
                // would make the capper feed back on itself).
                u.e2_eff_sum += eff;
                u.e2_eff_ttis += 1;
                requests.push(UlRequest {
                    ue: u.id,
                    inst_eff: u.mcs_cap.map_or(eff, |cap| eff.min(cap)),
                    weight: u.pf_weight,
                });
            }
            self.scheds[slice_idx].allocate_into(quota, &requests, &mut grants);
            for &(ue_id, prbs) in &grants {
                if prbs == 0 {
                    continue;
                }
                let u = &mut self.ues[ue_id as usize];
                let jitter = u.channel.step(&mut self.rng);
                let spread = self.prb_spread_db[prbs as usize];
                let power = u.profile.power.snr_at_spread(spread).0;
                let snr = Db(power + u.profile.tdd_power_offset.0 + jitter.0 + snr_fault);
                let eff = self.link_adapt.efficiency(snr);
                let eff = u.mcs_cap.map_or(eff, |cap| eff.min(cap));
                let modem = u.profile.modem_factor(prbs as f64 * prb_mhz);
                let capacity = prbs as f64 * re_per_prb * eff * ul_frac * modem;
                // Finite traffic models serve at most their queue.
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

    /// Enqueue each UE's offered traffic for the second starting now.
    fn enqueue_offered(&mut self) {
        let t = self.now_s();
        let e2 = &mut self.e2;
        for u in &mut self.ues {
            if let Some(bits) = u.traffic.offered_bits(t) {
                u.pending_bits += bits;
                if let Some(s) = e2.slices.get_mut(u.slice.0 as usize) {
                    s.offered += bits;
                }
            }
        }
    }

    /// Whether any UE wants uplink in the current slot (the slot is
    /// *active*: scheduler work, and possibly RNG draws, will happen).
    fn any_wants_uplink(&self) -> bool {
        self.ues.iter().any(Self::wants_uplink)
    }

    /// The next integer second at or after `from_s` at which any UE's
    /// traffic model enqueues a positive number of bits.
    fn next_traffic_second(&self, from_s: f64) -> Option<f64> {
        let mut best: Option<f64> = None;
        for u in &self.ues {
            if let Some(s) = u.traffic.next_positive_arrival_s(from_s) {
                best = Some(match best {
                    Some(b) if b <= s => b,
                    _ => s,
                });
            }
        }
        best
    }

    /// Batch bookkeeping for `n` slots during which no UE wants uplink.
    ///
    /// An idle pass of [`step_slot`](Self::step_slot) touches additive
    /// counters only — no RNG draw, no scheduler mutation — so the whole
    /// run collapses to O(1) arithmetic. This is the idle skip that makes
    /// a quiet cell O(events) instead of O(slots); the stepped-vs-event
    /// proptest pins bitwise equivalence.
    fn skip_idle_slots(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let ul_slots = match &self.cell.duplex {
            Duplex::Fdd => n,
            Duplex::Tdd(pattern) => {
                // Count non-downlink slots in [slot, slot + n) from the
                // periodic pattern without walking all n of them.
                let period = pattern.period() as u64;
                let phase = self.slot % period;
                let rem = n % period;
                let mut per_period = 0u64;
                let mut partial = 0u64;
                for i in 0..period {
                    let dir = pattern.slot(((phase + i) % period) as usize);
                    if !matches!(dir, SlotDir::Downlink) {
                        per_period += 1;
                        if i < rem {
                            partial += 1;
                        }
                    }
                }
                (n / period) * per_period + partial
            }
        };
        self.slot += n;
        self.e2.slots += n;
        if ul_slots == 0 {
            return;
        }
        self.e2.ul_slots += ul_slots;
        for slice_idx in 0..self.quotas.len() {
            self.e2.slices[slice_idx].capacity += self.quotas[slice_idx] as u64 * ul_slots;
        }
    }

    /// The event engine: advance `n` TTIs, executing active slots one by
    /// one and idle-skipping the rest in O(1). `enqueue` controls whether
    /// offered traffic is enqueued at elapsed second boundaries (the
    /// `advance_to` contract); the `measure_second` window enqueues once
    /// up front instead and passes `false`.
    fn advance_slots(&mut self, n: u64, enqueue: bool) {
        let per_second = self.cell.scs.slots_per_second() as u64;
        let end = self.slot + n;
        let ul_before = self.e2.ul_slots;
        while self.slot < end {
            if enqueue && self.slot.is_multiple_of(per_second) {
                self.enqueue_offered();
            }
            if self.any_wants_uplink() {
                self.step_slot();
                self.active_slots += 1;
                continue;
            }
            // Idle: nothing can create uplink work before the next
            // positive traffic arrival, and arrivals only land on
            // enqueued second boundaries. Skip there in one step.
            let skip_to = if enqueue {
                let from_s = (self.slot / per_second + 1) as f64;
                match self.next_traffic_second(from_s) {
                    Some(s) => ((s as u64) * per_second).clamp(self.slot + 1, end),
                    None => end,
                }
            } else {
                end
            };
            self.skip_idle_slots(skip_to - self.slot);
        }
        // One add per advance keeps the slot loop free of instruments.
        if let Some(o) = &self.obs {
            o.slots.add(self.e2.ul_slots - ul_before);
        }
    }

    /// Nanoseconds per TTI for this cell's numerology (1 ms at 15 kHz
    /// SCS, 0.5 ms at 30 kHz).
    pub fn slot_ns(&self) -> u64 {
        1_000_000_000 / self.cell.scs.slots_per_second() as u64
    }

    /// TTIs elapsed (stepped or skipped) since construction.
    pub fn slots_elapsed(&self) -> u64 {
        self.slot
    }

    /// Slots on which scheduler work executed — the O(events) measure of
    /// the event engine (idle-skipped slots don't count).
    pub fn active_slots(&self) -> u64 {
        self.active_slots
    }

    /// One-second measurement drain on the event engine: enqueue this
    /// second's offered traffic once up front (even when the clock is not
    /// second-aligned), advance one second of TTIs, then close the window
    /// and return `(handle, Mbps)` per backlogged UE.
    ///
    /// This is the measurement companion to [`Advance::advance_to`]: the
    /// time API moves the clock, this drains one calibrated sample
    /// window.
    pub fn measure_second(&mut self) -> Vec<(UeHandle, f64)> {
        self.enqueue_offered();
        let slots = self.cell.scs.slots_per_second() as u64;
        self.advance_slots(slots, false);
        self.flush_second_window(1.0)
    }

    /// Discard every UE's accumulated measurement window without
    /// sampling: opens a fresh window at the current instant. Callers
    /// that measure a sub-second burst (the RAN probe) reset first so
    /// stale bits from earlier idle-skipped stretches don't pollute the
    /// burst's goodput.
    pub fn reset_windows(&mut self) {
        for u in &mut self.ues {
            u.reset_window();
        }
    }

    /// Close the per-UE measurement window: one `(handle, Mbps)` sample
    /// per backlogged UE over the `window_s` seconds just simulated, with
    /// the SDR and multi-UE calibration applied, then reset the window.
    pub fn flush_second_window(&mut self, window_s: f64) -> Vec<(UeHandle, f64)> {
        let n_active = self.ues.iter().filter(|u| u.backlogged).count();
        let sdr_penalty = crate::sdr::penalty(
            self.cell.rat,
            &self.cell.duplex,
            self.cell.bandwidth,
            n_active,
        );
        let overhead =
            (1.0 - calib::PER_EXTRA_UE_OVERHEAD * (n_active.saturating_sub(1)) as f64).max(0.8);
        let mut out = Vec::with_capacity(n_active);
        for u in &mut self.ues {
            if !u.backlogged {
                u.reset_window();
                continue;
            }
            let mut mbps = u.window_bits / 1e6 / window_s.max(1e-9) * sdr_penalty * overhead;
            if let Some(cap) = u.profile.host_cap_mbps {
                mbps = mbps.min(cap);
            }
            if let Some(o) = &self.obs {
                // The crate's one histogram record: per UE, per window.
                #[allow(clippy::disallowed_methods)]
                o.goodput_mbps.record(mbps);
            }
            out.push((UeHandle(u.id), mbps));
            u.reset_window();
        }
        out
    }

    /// Run an iperf3-style uplink test for one UE over `seconds` samples.
    /// All backlogged UEs keep transmitting; only `ue`'s samples are
    /// recorded.
    pub fn iperf_uplink(&mut self, ue: UeHandle, seconds: usize) -> IperfRun {
        let mut samples = Vec::with_capacity(seconds);
        for _ in 0..seconds {
            let results = self.measure_second();
            let s = results
                .iter()
                .find(|(h, _)| *h == ue)
                .map(|&(_, m)| m)
                .unwrap_or(0.0);
            samples.push(s);
        }
        let label = self
            .ues
            .get(ue.0 as usize)
            .map(|u| u.device.label().to_string())
            .unwrap_or_default();
        IperfRun::new(label, self.cell.describe(), samples)
    }

    /// Run simultaneous iperf3 uplink tests for all backlogged UEs,
    /// returning one run per UE in attach order (the paper's two-user
    /// experiments).
    pub fn iperf_uplink_all(&mut self, seconds: usize) -> Vec<IperfRun> {
        let handles: Vec<UeHandle> = self
            .ues
            .iter()
            .filter(|u| u.backlogged)
            .map(|u| UeHandle(u.id))
            .collect();
        let mut per_ue: Vec<Vec<f64>> = vec![Vec::with_capacity(seconds); handles.len()];
        for _ in 0..seconds {
            let results = self.measure_second();
            for (i, h) in handles.iter().enumerate() {
                let s = results
                    .iter()
                    .find(|(rh, _)| rh == h)
                    .map(|&(_, m)| m)
                    .unwrap_or(0.0);
                per_ue[i].push(s);
            }
        }
        handles
            .iter()
            .zip(per_ue)
            .map(|(h, samples)| {
                let label = self.ues[h.0 as usize].device.label().to_string();
                IperfRun::new(label, self.cell.describe(), samples)
            })
            .collect()
    }
}

impl Advance for LinkSimulator {
    type Error = NetError;

    fn now(&self) -> SimNs {
        SimNs(self.slot * self.slot_ns())
    }

    /// Advance to `t`, enqueueing offered traffic at every elapsed second
    /// boundary and idle-skipping slots with no uplink demand. `t` is
    /// rounded *down* to the TTI grid; calls at or before `now()` are
    /// no-ops.
    fn advance_to(&mut self, t: SimNs) -> std::result::Result<(), NetError> {
        let target = t.0 / self.slot_ns();
        if target > self.slot {
            self.advance_slots(target - self.slot, true);
        }
        Ok(())
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rat::Rat;
    use crate::slice::SliceConfig;
    use crate::units::MHz;

    fn cell_5g_fdd20() -> CellConfig {
        CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0))
    }

    #[test]
    fn attach_registers_with_core() {
        let mut sim = LinkSimulator::try_new(cell_5g_fdd20(), 1).unwrap();
        let _ue = sim
            .attach(DeviceClass::RaspberryPi, Modem::Rm530nGl)
            .unwrap();
        assert_eq!(sim.core().registered_count(), 1);
    }

    #[test]
    fn incompatible_modem_rejected() {
        let mut sim = LinkSimulator::try_new(cell_5g_fdd20(), 1).unwrap();
        assert!(sim.attach(DeviceClass::Laptop, Modem::Sim7600gh).is_err());
    }

    #[test]
    fn cell_capacity_enforced() {
        let mut cell = cell_5g_fdd20();
        cell.max_ues = 2;
        let mut sim = LinkSimulator::try_new(cell, 1).unwrap();
        sim.attach(DeviceClass::Laptop, Modem::Rm530nGl).unwrap();
        sim.attach(DeviceClass::Laptop, Modem::Rm530nGl).unwrap();
        assert!(matches!(
            sim.attach(DeviceClass::Laptop, Modem::Rm530nGl),
            Err(NetError::CellFull)
        ));
    }

    #[test]
    fn snr_collapse_degrades_throughput() {
        // RAN degradation fault: a -25 dB cell-wide SNR offset must crush
        // uplink throughput, and clearing it must restore nominal rates.
        let run = |offset: f64| {
            let mut sim = LinkSimulator::try_new(cell_5g_fdd20(), 7).unwrap();
            let ue = sim
                .attach(DeviceClass::RaspberryPi, Modem::Rm530nGl)
                .unwrap();
            sim.set_backlogged(ue, true).unwrap();
            sim.set_snr_offset_db(offset);
            assert_eq!(sim.snr_offset_db, offset);
            let mut total = 0.0;
            for _ in 0..5 {
                total += sim
                    .measure_second()
                    .iter()
                    .find(|(h, _)| *h == ue)
                    .map(|&(_, m)| m)
                    .unwrap_or(0.0);
            }
            total / 5.0
        };
        let nominal = run(0.0);
        let degraded = run(-25.0);
        assert!(
            degraded < nominal * 0.25,
            "SNR collapse must cost >75% of throughput: {degraded} vs {nominal}"
        );
        assert!(nominal > 10.0, "nominal rate sanity: {nominal}");
    }

    #[test]
    fn single_rpi_5g_fdd20_near_paper() {
        // Paper Fig. 4: RPi on 5G FDD at 20 MHz reaches 52.36 Mbps.
        let mut sim = LinkSimulator::try_new(cell_5g_fdd20(), 7).unwrap();
        let ue = sim
            .attach(DeviceClass::RaspberryPi, Modem::Rm530nGl)
            .unwrap();
        let run = sim.iperf_uplink(ue, 20);
        let m = run.mean_mbps();
        assert!((m - 52.36).abs() / 52.36 < 0.2, "mean {m}");
    }

    #[test]
    fn two_ue_aggregate_close_to_single() {
        let mut sim1 = LinkSimulator::try_new(cell_5g_fdd20(), 3).unwrap();
        let u = sim1.attach(DeviceClass::Laptop, Modem::Rm530nGl).unwrap();
        let single = sim1.iperf_uplink(u, 15).mean_mbps();

        let mut sim2 = LinkSimulator::try_new(cell_5g_fdd20(), 4).unwrap();
        sim2.attach(DeviceClass::Laptop, Modem::Rm530nGl).unwrap();
        sim2.attach(DeviceClass::Laptop, Modem::Rm530nGl).unwrap();
        let runs = sim2.iperf_uplink_all(15);
        let agg: f64 = runs.iter().map(|r| r.mean_mbps()).sum();
        // Aggregate must be within ~35% of the single-UE rate (it can exceed
        // it because two power-limited UEs have twice the total power).
        assert!(
            (agg - single).abs() / single < 0.35,
            "single {single} vs aggregate {agg}"
        );
    }

    #[test]
    fn slice_isolation_under_load() {
        // Two UEs on complementary 30/70 slices: throughput ratio must track
        // the share ratio, and a busy slice must not steal the other's PRBs.
        let cell = CellConfig::new(Rat::Nr5g, Duplex::tdd_default(), MHz(40.0))
            .with_slices(SliceConfig::complementary_pair(0.3).unwrap());
        let mut sim = LinkSimulator::try_new(cell, 9).unwrap();
        let a = sim
            .attach_with(
                DeviceClass::RaspberryPi,
                Modem::Rm530nGl,
                Snssai::miot(1),
                UnitVariation::default(),
            )
            .unwrap();
        let b = sim
            .attach_with(
                DeviceClass::RaspberryPi,
                Modem::Rm530nGl,
                Snssai::miot(2),
                UnitVariation::default(),
            )
            .unwrap();
        let mut ra = 0.0;
        let mut rb = 0.0;
        for _ in 0..10 {
            for (h, m) in sim.measure_second() {
                if h == a {
                    ra += m;
                } else if h == b {
                    rb += m;
                }
            }
        }
        let ratio = ra / rb;
        // Expected share ratio 30/70 ≈ 0.43 (efficiency differences at the
        // two allocation sizes shift it slightly).
        assert!(ratio > 0.25 && ratio < 0.65, "ratio {ratio}");
    }

    #[test]
    fn cbr_traffic_served_at_offered_rate() {
        let mut sim = LinkSimulator::try_new(cell_5g_fdd20(), 41).unwrap();
        let ue = sim
            .attach(DeviceClass::RaspberryPi, Modem::Rm530nGl)
            .unwrap();
        sim.set_traffic(ue, TrafficModel::Cbr { rate_mbps: 5.0 })
            .unwrap();
        // Warm up one second, then measure.
        sim.measure_second();
        let mut total = 0.0;
        for _ in 0..5 {
            total += sim.measure_second()[0].1;
        }
        let mean = total / 5.0;
        assert!(
            (mean - 5.0).abs() < 0.6,
            "CBR must be served at its rate, not the link ceiling: {mean}"
        );
    }

    #[test]
    fn idle_periodic_ue_leaves_capacity_to_others() {
        // A telemetry UE and a full-buffer UE share an unsliced cell: the
        // telemetry UE's microscopic load must not halve the iperf rate.
        let mut shared = LinkSimulator::try_new(cell_5g_fdd20(), 42).unwrap();
        let telemetry = shared
            .attach(DeviceClass::RaspberryPi, Modem::Rm530nGl)
            .unwrap();
        let iperf = shared
            .attach(DeviceClass::RaspberryPi, Modem::Rm530nGl)
            .unwrap();
        shared
            .set_traffic(telemetry, TrafficModel::weather_station())
            .unwrap();
        let mut solo = LinkSimulator::try_new(cell_5g_fdd20(), 42).unwrap();
        let solo_ue = solo
            .attach(DeviceClass::RaspberryPi, Modem::Rm530nGl)
            .unwrap();
        let shared_rate = shared.iperf_uplink(iperf, 10).mean_mbps();
        let solo_rate = solo.iperf_uplink(solo_ue, 10).mean_mbps();
        assert!(
            shared_rate > solo_rate * 0.85,
            "telemetry coexistence must be nearly free: {shared_rate} vs {solo_rate}"
        );
    }

    #[test]
    fn burst_latency_is_milliseconds() {
        // The RAN-level serialization of a 1 KB telemetry report is a few
        // ms — confirming the paper's end-to-end 101 ms is dominated by
        // the WAN and the CSPOT protocol, not the air interface.
        let mut sim = LinkSimulator::try_new(cell_5g_fdd20(), 43).unwrap();
        let ue = sim
            .attach(DeviceClass::RaspberryPi, Modem::Rm530nGl)
            .unwrap();
        sim.set_traffic(ue, TrafficModel::weather_station())
            .unwrap();
        let ms = sim.measure_burst_latency_ms(ue, 1024).unwrap();
        assert!((1.0..50.0).contains(&ms), "burst latency {ms} ms");
        // Full-buffer UEs cannot measure bursts.
        let mut fb = LinkSimulator::try_new(cell_5g_fdd20(), 44).unwrap();
        let fbue = fb.attach(DeviceClass::Laptop, Modem::Rm530nGl).unwrap();
        assert!(fb.measure_burst_latency_ms(fbue, 1024).is_err());
    }

    #[test]
    fn dynamic_reslicing_shifts_throughput() {
        // Start 50/50, then shift to 20/80: UE B's rate should roughly
        // quadruple relative to UE A's.
        let cell = CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0))
            .with_slices(SliceConfig::complementary_pair(0.5).unwrap());
        let mut sim = LinkSimulator::try_new(cell, 21).unwrap();
        let a = sim
            .attach_with(
                DeviceClass::RaspberryPi,
                Modem::Rm530nGl,
                Snssai::miot(1),
                UnitVariation::default(),
            )
            .unwrap();
        let b = sim
            .attach_with(
                DeviceClass::RaspberryPi,
                Modem::Rm530nGl,
                Snssai::miot(2),
                UnitVariation::default(),
            )
            .unwrap();
        let before = sim.measure_second();
        let rate = |results: &[(UeHandle, f64)], h: UeHandle| {
            results
                .iter()
                .find(|(x, _)| *x == h)
                .map(|&(_, m)| m)
                .unwrap()
        };
        let ratio_before = rate(&before, b) / rate(&before, a);
        sim.set_slices(SliceConfig::complementary_pair(0.2).unwrap())
            .unwrap();
        // Let several seconds pass for the new quotas to dominate.
        let mut after = Vec::new();
        for _ in 0..3 {
            after = sim.measure_second();
        }
        let ratio_after = rate(&after, b) / rate(&after, a);
        assert!(
            ratio_after > ratio_before * 2.0,
            "reslicing must shift rates: {ratio_before:.2} -> {ratio_after:.2}"
        );
    }

    #[test]
    fn reslicing_must_keep_attached_snssais() {
        let cell = CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0))
            .with_slices(SliceConfig::complementary_pair(0.5).unwrap());
        let mut sim = LinkSimulator::try_new(cell, 22).unwrap();
        sim.attach_with(
            DeviceClass::Laptop,
            Modem::Rm530nGl,
            Snssai::miot(1),
            UnitVariation::default(),
        )
        .unwrap();
        // A new table without miot(1) is rejected.
        let bad = SliceConfig::new(vec![crate::slice::SliceProfile {
            snssai: Snssai::embb(9),
            prb_share: 1.0,
        }])
        .unwrap();
        assert!(sim.set_slices(bad).is_err());
    }

    #[test]
    fn obs_records_slots_and_goodput() {
        let mut sim = LinkSimulator::try_new(cell_5g_fdd20(), 6).unwrap();
        let obs = Obs::enabled();
        sim.set_obs(&obs);
        let ue = sim
            .attach(DeviceClass::RaspberryPi, Modem::Rm530nGl)
            .unwrap();
        sim.set_backlogged(ue, true).unwrap();
        let results = sim.measure_second();
        let reg = obs.registry().unwrap();
        // FDD: every slot is uplink-capable.
        assert_eq!(reg.counter("ran.tti.slots").get(), 1000);
        let gp = reg.histogram("ran.ue.goodput_mbps").snapshot();
        assert_eq!(gp.count(), 1);
        assert!((gp.max().unwrap() - results[0].1).abs() < 1e-9);
    }

    #[test]
    fn snr_offset_gauge_tracks_injected_fades() {
        let mut sim = LinkSimulator::try_new(cell_5g_fdd20(), 7).unwrap();
        sim.set_snr_offset_db(-12.0);
        let obs = Obs::enabled();
        // Attaching after the fade began must still publish its level.
        sim.set_obs(&obs);
        let g = obs.registry().unwrap().gauge("ran.snr_offset_db");
        assert_eq!(g.get(), -12.0);
        sim.set_snr_offset_db(0.0);
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    fn indication_reports_occupancy_and_queues() {
        let cell = CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0))
            .with_slices(SliceConfig::complementary_pair(0.5).unwrap());
        let mut sim = LinkSimulator::try_new(cell, 31).unwrap();
        let fb = sim
            .attach_with(
                DeviceClass::RaspberryPi,
                Modem::Rm530nGl,
                Snssai::miot(1),
                UnitVariation::default(),
            )
            .unwrap();
        let cbr = sim
            .attach_with(
                DeviceClass::RaspberryPi,
                Modem::Rm530nGl,
                Snssai::miot(2),
                UnitVariation::default(),
            )
            .unwrap();
        // Far more CBR load than a 50% slice serves: the queue must grow.
        sim.set_traffic(cbr, TrafficModel::Cbr { rate_mbps: 60.0 })
            .unwrap();
        sim.measure_second();
        sim.measure_second();
        let ind = sim.take_indication(5);
        assert_eq!(ind.cell, 5);
        assert!((ind.window_s - 2.0).abs() < 1e-9);
        assert_eq!(ind.ul_slots, 2000, "FDD: every slot is uplink-capable");
        assert_eq!(ind.total_prbs, 106);
        assert_eq!(ind.slices.len(), 2);
        assert_eq!(ind.ues.len(), 2);

        let fb_rep = &ind.ues[fb.id() as usize];
        assert!(fb_rep.granted_prb_ttis > 0);
        assert!(fb_rep.served_bits > 0.0);
        assert_eq!(fb_rep.queued_bits, 0.0, "full buffer reports no queue");
        assert!((1..=15).contains(&fb_rep.cqi));
        assert!((0.0..=1.0).contains(&fb_rep.harq_nack_rate));

        let cbr_rep = &ind.ues[cbr.id() as usize];
        assert!(
            cbr_rep.queued_bits > 1e6,
            "overloaded CBR queue must grow: {}",
            cbr_rep.queued_bits
        );

        let s0 = ind.slice(Snssai::miot(1)).unwrap();
        assert!(
            s0.granted_prb_ttis as f64 > 0.9 * s0.capacity_prb_ttis as f64,
            "full buffer saturates its quota"
        );
        assert_eq!(s0.capacity_prb_ttis, 53 * 2000);
        let s1 = ind.slice(Snssai::miot(2)).unwrap();
        assert!((s1.offered_bits - 2.0 * 60e6).abs() < 1.0);
        assert!(s1.queued_bits > 1e6);

        // Drain semantics: a fresh window starts at zero, every counter
        // of every slice.
        let empty = sim.take_indication(5);
        assert_eq!(empty.window_s, 0.0);
        assert_eq!(empty.ul_slots, 0);
        assert_eq!(empty.ues[0].granted_prb_ttis, 0);
        assert_eq!(empty.slices.len(), 2);
        for s in &empty.slices {
            assert_eq!((s.granted_prb_ttis, s.capacity_prb_ttis), (0, 0));
            assert_eq!((s.offered_bits, s.served_bits), (0.0, 0.0));
        }
    }

    #[test]
    fn indication_collection_does_not_perturb_the_run() {
        // The no-op contract the RIC relies on: draining indications
        // between seconds leaves the trajectory bitwise identical.
        let run = |drain: bool| {
            let mut sim = LinkSimulator::try_new(cell_5g_fdd20(), 77).unwrap();
            let ue = sim
                .attach(DeviceClass::RaspberryPi, Modem::Rm530nGl)
                .unwrap();
            sim.set_backlogged(ue, true).unwrap();
            let mut out = Vec::new();
            for _ in 0..5 {
                out.extend(sim.measure_second().iter().map(|&(_, m)| m.to_bits()));
                if drain {
                    sim.take_indication(0);
                }
            }
            out
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn mcs_cap_limits_throughput_and_lifts() {
        let mut sim = LinkSimulator::try_new(cell_5g_fdd20(), 13).unwrap();
        let ue = sim
            .attach(DeviceClass::RaspberryPi, Modem::Rm530nGl)
            .unwrap();
        let nominal = sim.measure_second()[0].1;
        sim.set_mcs_cap(ue, Some(sim.link_adapt.max_eff * 0.1))
            .unwrap();
        assert!(sim.mcs_cap(ue).unwrap().is_some());
        let capped = sim.measure_second()[0].1;
        assert!(
            capped < nominal * 0.5,
            "MCS cap must bite: {capped} vs {nominal}"
        );
        sim.set_mcs_cap(ue, None).unwrap();
        let restored = sim.measure_second()[0].1;
        assert!(
            restored > capped * 2.0,
            "clearing the cap must restore rate: {restored} vs {capped}"
        );
        // Invalid caps and weights are typed errors.
        assert!(matches!(
            sim.set_mcs_cap(ue, Some(0.0)),
            Err(NetError::InvalidParameter(_))
        ));
        for weight in [
            f64::NAN,
            0.0,
            -1.0,
            MAX_PF_WEIGHT * 1.01,
            1e305,
            f64::INFINITY,
        ] {
            assert!(
                matches!(
                    sim.set_pf_weight(ue, weight),
                    Err(NetError::InvalidParameter(_))
                ),
                "{weight:e}"
            );
        }
        sim.set_pf_weight(ue, MAX_PF_WEIGHT).unwrap();
        assert!(sim.set_mcs_cap(UeHandle(9), None).is_err());
        assert!(sim.set_pf_weight(UeHandle(9), 1.0).is_err());
    }

    #[test]
    fn pf_weight_shifts_shared_slice_throughput() {
        let mut cell = cell_5g_fdd20();
        cell.scheduler = crate::mac::SchedulerKind::ProportionalFair;
        let mut sim = LinkSimulator::try_new(cell, 17).unwrap();
        let a = sim
            .attach(DeviceClass::RaspberryPi, Modem::Rm530nGl)
            .unwrap();
        let b = sim
            .attach(DeviceClass::RaspberryPi, Modem::Rm530nGl)
            .unwrap();
        sim.set_pf_weight(b, 6.0).unwrap();
        assert_eq!(sim.pf_weight(b).unwrap(), 6.0);
        let mut ra = 0.0;
        let mut rb = 0.0;
        for _ in 0..5 {
            for (h, m) in sim.measure_second() {
                if h == a {
                    ra += m;
                } else if h == b {
                    rb += m;
                }
            }
        }
        assert!(
            rb > ra * 2.0,
            "6x PF weight must visibly favor UE b: {ra} vs {rb}"
        );
    }

    #[test]
    fn tdd_throughput_below_fdd_at_same_prbs() {
        // 5G FDD 20 MHz has 106 PRBs at 15 kHz; TDD 40 MHz has 106 PRBs at
        // 30 kHz (double symbol rate) but only ~43% UL duty. Net: TDD at
        // equal PRB count is slightly below 2 * 0.43 = 0.86 of FDD.
        let mut fdd = LinkSimulator::try_new(cell_5g_fdd20(), 11).unwrap();
        let uf = fdd.attach(DeviceClass::Laptop, Modem::Rm530nGl).unwrap();
        let mf = fdd.iperf_uplink(uf, 10).mean_mbps();

        let tdd_cell = CellConfig::new(Rat::Nr5g, Duplex::tdd_default(), MHz(40.0));
        let mut tdd = LinkSimulator::try_new(tdd_cell, 11).unwrap();
        let ut = tdd.attach(DeviceClass::Laptop, Modem::Rm530nGl).unwrap();
        let mt = tdd.iperf_uplink(ut, 10).mean_mbps();
        assert!(mt > mf * 0.5 && mt < mf * 1.3, "fdd {mf} tdd {mt}");
    }
}

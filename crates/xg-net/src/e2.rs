//! E2-style MAC telemetry reports.
//!
//! The O-RAN near-real-time control loop starts at the E2 interface: the
//! RAN periodically reports MAC-level measurements to the RIC, which
//! runs xApps over them and answers with control actions. This module
//! defines the *report* half of that loop for the simulator — per-UE PRB
//! occupancy, channel quality (CQI), a HARQ retransmission proxy, and
//! per-slice utilization / queue depth — accumulated by
//! [`LinkSimulator`](crate::sim::LinkSimulator) while it steps and
//! drained once per indication period via
//! `take_indication`.
//!
//! Everything here is plain accumulated arithmetic over state the
//! simulator already computes; assembling an indication draws no
//! randomness and perturbs no RNG stream, so a run that collects
//! indications (and applies no actions) is bitwise identical to one that
//! does not.

use crate::slice::Snssai;

/// Map a mean spectral efficiency onto the 4-bit wideband CQI scale
/// (1..=15). `0` is reserved for "never scheduled this window".
pub(crate) fn eff_to_cqi(eff: f64, max_eff: f64) -> u8 {
    if max_eff <= 0.0 {
        return 1;
    }
    let idx = (eff / max_eff * 15.0).round();
    idx.clamp(1.0, 15.0) as u8
}

/// The conservative spectral-efficiency ceiling a RIC would map a CQI
/// report back to when capping a UE's MCS (inverse of `eff_to_cqi`
/// with a safety backoff).
pub fn cqi_to_eff(cqi: u8, max_eff: f64) -> f64 {
    let cqi = cqi.clamp(1, 15);
    f64::from(cqi) / 15.0 * max_eff
}

/// One UE's MAC counters over an indication window.
#[derive(Debug, Clone, PartialEq)]
pub struct UeReport {
    /// Cell-local UE id.
    pub ue: u32,
    /// Slice index the UE's PDU session is bound to.
    pub slice: u16,
    /// PRB·TTIs granted to the UE this window (its PRB occupancy).
    pub granted_prb_ttis: u64,
    /// TTIs in which the UE received a non-zero grant.
    pub sched_ttis: u64,
    /// MAC-level bits served this window.
    pub served_bits: f64,
    /// Bits still queued at window close (0 for full-buffer UEs, whose
    /// queue is unbounded by definition).
    pub queued_bits: f64,
    /// Wideband CQI (1..=15) derived from the mean reported spectral
    /// efficiency; 0 when the UE was never scheduled this window.
    pub cqi: u8,
    /// Fraction of scheduled TTIs whose instantaneous channel fell into
    /// a deep fade below the link-adaptation margin — the initial
    /// transmissions HARQ would have to retransmit.
    pub harq_nack_rate: f64,
}

/// One slice's aggregate counters over an indication window.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceReport {
    /// Slice index within the cell's table.
    pub slice: u16,
    /// The slice's S-NSSAI.
    pub snssai: Snssai,
    /// PRB share applied during the window (the last value if it changed
    /// mid-window).
    pub prb_share: f64,
    /// PRB quota per TTI the share resolves to.
    pub quota_prbs: u32,
    /// PRB·TTIs actually granted inside the slice this window.
    pub granted_prb_ttis: u64,
    /// PRB·TTIs the slice's quota offered this window (quota summed over
    /// uplink-capable TTIs).
    pub capacity_prb_ttis: u64,
    /// Bits that entered the slice's uplink queues this window.
    pub offered_bits: f64,
    /// MAC-level bits served inside the slice this window.
    pub served_bits: f64,
    /// Bits still queued across the slice's UEs at window close.
    pub queued_bits: f64,
}

/// One cell's E2 indication: everything the MAC measured since the
/// previous drain.
#[derive(Debug, Clone, PartialEq)]
pub struct CellIndication {
    /// Fleet cell id (0 for a standalone simulator).
    pub cell: u32,
    /// Window length in simulated seconds.
    pub window_s: f64,
    /// Uplink-capable TTIs in the window.
    pub ul_slots: u64,
    /// Total PRBs of the cell's grid.
    pub total_prbs: u32,
    /// Per-UE counters, in UE-id order.
    pub ues: Vec<UeReport>,
    /// Per-slice counters, in slice-table order.
    pub slices: Vec<SliceReport>,
}

impl CellIndication {
    /// The report for the slice carrying `snssai`, if present.
    pub fn slice(&self, snssai: Snssai) -> Option<&SliceReport> {
        self.slices.iter().find(|s| s.snssai == snssai)
    }

    /// Bits served across every slice this window.
    pub(crate) fn served_bits(&self) -> f64 {
        self.slices.iter().map(|s| s.served_bits).sum()
    }

    /// Measurement-derived estimate of the cell's serving capacity over
    /// the window, in bits: observed bits-per-PRB·TTI scaled to the full
    /// grid. `None` until something was actually granted (no
    /// measurement, no estimate).
    pub fn capacity_bits_estimate(&self) -> Option<f64> {
        let granted: u64 = self.slices.iter().map(|s| s.granted_prb_ttis).sum();
        if granted == 0 {
            return None;
        }
        let per_prb_tti = self.served_bits() / granted as f64;
        Some(per_prb_tti * self.total_prbs as f64 * self.ul_slots as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cqi_mapping_is_clamped_and_monotone() {
        assert_eq!(eff_to_cqi(0.0, 7.4), 1);
        assert_eq!(eff_to_cqi(7.4, 7.4), 15);
        assert_eq!(eff_to_cqi(100.0, 7.4), 15);
        let mut last = 0;
        for i in 0..=15 {
            let c = eff_to_cqi(f64::from(i) / 15.0 * 7.4, 7.4);
            assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn cqi_roundtrip_is_conservative() {
        for cqi in 1..=15u8 {
            let eff = cqi_to_eff(cqi, 7.4);
            assert!(eff > 0.0 && eff <= 7.4);
            assert_eq!(eff_to_cqi(eff, 7.4), cqi);
        }
        // Degenerate inputs stay in range.
        assert!(cqi_to_eff(0, 7.4) > 0.0);
        assert_eq!(eff_to_cqi(3.0, 0.0), 1);
    }

    fn slice_report(granted: u64, capacity: u64) -> SliceReport {
        SliceReport {
            slice: 0,
            snssai: Snssai::miot(1),
            prb_share: 0.5,
            quota_prbs: 53,
            granted_prb_ttis: granted,
            capacity_prb_ttis: capacity,
            offered_bits: 1e6,
            served_bits: 8e5,
            queued_bits: 2e5,
        }
    }

    #[test]
    fn capacity_estimate_scales_observed_rate() {
        let ind = CellIndication {
            cell: 0,
            window_s: 1.0,
            ul_slots: 1000,
            total_prbs: 106,
            ues: Vec::new(),
            slices: vec![slice_report(53_000, 53_000)],
        };
        // 8e5 bits over 53_000 PRB·TTIs, scaled to 106 PRBs × 1000 TTIs.
        let est = ind.capacity_bits_estimate().unwrap();
        assert!((est - 8e5 / 53_000.0 * 106.0 * 1000.0).abs() < 1e-6);
        // No grants: no estimate.
        let empty = CellIndication {
            slices: vec![slice_report(0, 53_000)],
            ..ind
        };
        assert!(empty.capacity_bits_estimate().is_none());
    }

    #[test]
    fn snssai_lookup() {
        let ind = CellIndication {
            cell: 3,
            window_s: 1.0,
            ul_slots: 1000,
            total_prbs: 106,
            ues: Vec::new(),
            slices: vec![slice_report(1, 2)],
        };
        assert!(ind.slice(Snssai::miot(1)).is_some());
        assert!(ind.slice(Snssai::embb(1)).is_none());
    }
}

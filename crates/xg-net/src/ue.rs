//! Per-UE runtime state inside the link simulator.

use crate::channel::ShadowingChannel;
use crate::device::{DeviceClass, RadioProfile, UnitVariation};
use crate::slice::SliceId;
use crate::traffic::TrafficModel;

/// Runtime context of an attached UE.
#[derive(Debug, Clone)]
pub(crate) struct UeContext {
    /// Cell-local UE identifier.
    pub id: u32,
    /// Host device class.
    pub device: DeviceClass,
    /// Calibrated radio profile as it applies on this cell: unit variation
    /// added, TDD power offset zeroed on an FDD carrier.
    pub profile: RadioProfile,
    /// Slice the UE's PDU session is bound to.
    pub slice: SliceId,
    /// Stochastic channel state.
    pub channel: ShadowingChannel,
    /// Whether the UE currently has uplink traffic to send. iperf runs use
    /// full-buffer traffic; telemetry UEs are bursty.
    pub backlogged: bool,
    /// Offered-traffic model.
    pub traffic: TrafficModel,
    /// Bits queued but not yet served (ignored for full-buffer traffic).
    pub pending_bits: f64,
    /// Bits delivered during the current one-second accounting window.
    pub window_bits: f64,
    /// PRB share `req_eff` was computed at; 0 (no real share) = no memo.
    pub(crate) req_share: u32,
    /// Uncapped request-phase spectral efficiency at `req_share` PRBs and
    /// the cell's SNR offset, which clears the memo whenever it is set.
    pub(crate) req_eff: f64,
    /// RIC-imposed spectral-efficiency ceiling (MCS cap); `None` leaves
    /// link adaptation unconstrained.
    pub mcs_cap: Option<f64>,
    /// RIC-tunable proportional-fair scheduler weight (1.0 = neutral).
    pub pf_weight: f64,
    /// E2 window: PRB·TTIs granted since the last indication drain.
    pub e2_granted_prb_ttis: u64,
    /// E2 window: TTIs with a non-zero grant since the last drain.
    pub e2_sched_ttis: u64,
    /// E2 window: MAC bits served since the last drain.
    pub e2_served_bits: f64,
    /// E2 window: scheduled TTIs that fell into a deep fade (HARQ
    /// retransmission proxy).
    pub e2_nack_ttis: u64,
    /// E2 window: sum of reported instantaneous spectral efficiencies.
    pub e2_eff_sum: f64,
    /// E2 window: number of efficiency reports behind `e2_eff_sum`.
    pub e2_eff_ttis: u64,
}

impl UeContext {
    /// Create a UE context. `variation` models unit-to-unit radio spread.
    pub(crate) fn new(
        id: u32,
        device: DeviceClass,
        profile: RadioProfile,
        variation: UnitVariation,
        slice: SliceId,
        channel: ShadowingChannel,
    ) -> Self {
        UeContext {
            id,
            device,
            profile: profile.with_variation(variation),
            slice,
            channel,
            backlogged: true,
            traffic: TrafficModel::FullBuffer,
            pending_bits: 0.0,
            window_bits: 0.0,
            req_share: 0,
            req_eff: 0.0,
            mcs_cap: None,
            pf_weight: 1.0,
            e2_granted_prb_ttis: 0,
            e2_sched_ttis: 0,
            e2_served_bits: 0.0,
            e2_nack_ttis: 0,
            e2_eff_sum: 0.0,
            e2_eff_ttis: 0,
        }
    }

    /// Reset the one-second accounting window.
    pub(crate) fn reset_window(&mut self) {
        self.window_bits = 0.0;
    }

    /// Reset the E2 indication window (after a drain).
    pub(crate) fn reset_e2(&mut self) {
        self.e2_granted_prb_ttis = 0;
        self.e2_sched_ttis = 0;
        self.e2_served_bits = 0.0;
        self.e2_nack_ttis = 0;
        self.e2_eff_sum = 0.0;
        self.e2_eff_ttis = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Modem;
    use crate::rat::Rat;
    use crate::slice::SliceId;

    #[test]
    fn variation_applied_at_construction() {
        let profile = RadioProfile::lookup(DeviceClass::RaspberryPi, Modem::Rm530nGl, Rat::Nr5g);
        let var = UnitVariation {
            snr_one_prb_db: -2.0,
            snr_cap_db: -1.0,
        };
        let ue = UeContext::new(
            0,
            DeviceClass::RaspberryPi,
            profile,
            var,
            SliceId(0),
            ShadowingChannel::new(0.999, 0.8, 0.4),
        );
        assert!(
            (ue.profile.power.snr_one_prb.0 - (profile.power.snr_one_prb.0 - 2.0)).abs() < 1e-9
        );
    }

    #[test]
    fn window_reset() {
        let profile = RadioProfile::lookup(DeviceClass::Laptop, Modem::Rm530nGl, Rat::Nr5g);
        let mut ue = UeContext::new(
            1,
            DeviceClass::Laptop,
            profile,
            UnitVariation::default(),
            SliceId(0),
            ShadowingChannel::new(0.999, 0.8, 0.4),
        );
        ue.window_bits = 1e6;
        ue.reset_window();
        assert_eq!(ue.window_bits, 0.0);
    }

    #[test]
    fn e2_window_reset() {
        let profile = RadioProfile::lookup(DeviceClass::Laptop, Modem::Rm530nGl, Rat::Nr5g);
        let mut ue = UeContext::new(
            2,
            DeviceClass::Laptop,
            profile,
            UnitVariation::default(),
            SliceId(0),
            ShadowingChannel::new(0.999, 0.8, 0.4),
        );
        assert_eq!(ue.pf_weight, 1.0);
        assert!(ue.mcs_cap.is_none());
        ue.e2_granted_prb_ttis = 10;
        ue.e2_sched_ttis = 5;
        ue.e2_served_bits = 1e5;
        ue.e2_nack_ttis = 1;
        ue.e2_eff_sum = 12.0;
        ue.e2_eff_ttis = 5;
        ue.reset_e2();
        assert_eq!(ue.e2_granted_prb_ttis, 0);
        assert_eq!(ue.e2_sched_ttis, 0);
        assert_eq!(ue.e2_served_bits, 0.0);
        assert_eq!(ue.e2_nack_ttis, 0);
        assert_eq!(ue.e2_eff_sum, 0.0);
        assert_eq!(ue.e2_eff_ttis, 0);
    }
}

//! Uplink traffic models.
//!
//! The paper's UEs carry three kinds of load: saturating iperf3 tests
//! (full buffer), periodic telemetry ("lightweight IoT traffic"), and
//! high-throughput video (§3.3's slicing motivation). A UE's model
//! determines how many bits enter its uplink queue each second; the MAC
//! serves at most the queue, so under-loaded UEs leave PRBs to others
//! (within their slice).

/// How a UE offers uplink traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficModel {
    /// Always backlogged (iperf3): the measurement traffic of Figs. 4–6.
    FullBuffer,
    /// A fixed payload every `interval_s` seconds (weather stations:
    /// ~48 bytes per 300 s).
    Periodic {
        /// Payload per report (bytes).
        payload_bytes: u32,
        /// Reporting interval (s).
        interval_s: f64,
    },
    /// Constant bit rate (surveillance video).
    Cbr {
        /// Offered rate (Mbps).
        rate_mbps: f64,
    },
    /// Constant bit rate with a scripted burst window: `rate_mbps`
    /// outside `[burst_start_s, burst_end_s)`, `burst_rate_mbps` inside.
    /// Models a pest-detection camera that jumps from keep-alive imagery
    /// to a full image burst when traps trigger (§3.3's eMBB load).
    BurstCbr {
        /// Baseline offered rate (Mbps).
        rate_mbps: f64,
        /// Offered rate during the burst window (Mbps).
        burst_rate_mbps: f64,
        /// Burst onset (s, inclusive).
        burst_start_s: f64,
        /// Burst end (s, exclusive).
        burst_end_s: f64,
    },
}

impl TrafficModel {
    /// Bits entering the queue during one second starting at `t_s`.
    ///
    /// `None` means unbounded (full buffer).
    pub(crate) fn offered_bits(&self, t_s: f64) -> Option<f64> {
        match *self {
            TrafficModel::FullBuffer => None,
            TrafficModel::Periodic {
                payload_bytes,
                interval_s,
            } => {
                // Number of report instants in [t_s, t_s + 1).
                let interval = interval_s.max(1e-9);
                let first = (t_s / interval).ceil();
                let mut n = 0u32;
                let mut k = first;
                while k * interval < t_s + 1.0 {
                    n += 1;
                    k += 1.0;
                }
                Some(n as f64 * payload_bytes as f64 * 8.0)
            }
            TrafficModel::Cbr { rate_mbps } => Some(rate_mbps.max(0.0) * 1e6),
            TrafficModel::BurstCbr {
                rate_mbps,
                burst_rate_mbps,
                burst_start_s,
                burst_end_s,
            } => {
                let rate = if t_s >= burst_start_s && t_s < burst_end_s {
                    burst_rate_mbps
                } else {
                    rate_mbps
                };
                Some(rate.max(0.0) * 1e6)
            }
        }
    }

    /// The next integer-second boundary at or after `from_s` (itself an
    /// integer number of seconds) where [`offered_bits`] returns a
    /// *positive* number of bits, or `None` if no future boundary ever
    /// will (full-buffer sources enqueue nothing; zero-rate and
    /// zero-payload models offer only 0.0-bit no-ops).
    ///
    /// This is the idle-skip oracle of the event engine: boundaries this
    /// function skips offer either nothing or exactly `0.0` bits, and
    /// adding `0.0` to a non-negative queue is bitwise a no-op, so the
    /// skipping engine stays bit-identical to the stepped one.
    ///
    /// [`offered_bits`]: Self::offered_bits
    pub(crate) fn next_positive_arrival_s(&self, from_s: f64) -> Option<f64> {
        match *self {
            TrafficModel::FullBuffer => None,
            TrafficModel::Periodic {
                payload_bytes,
                interval_s,
            } => {
                if payload_bytes == 0 {
                    return None;
                }
                let interval = interval_s.max(1e-9);
                // First report instant at or after `from_s`; the second
                // containing it is the next boundary whose [s, s+1)
                // window counts at least one report.
                let k = (from_s / interval).ceil();
                Some((k * interval).floor().max(from_s))
            }
            TrafficModel::Cbr { rate_mbps } => (rate_mbps > 0.0).then_some(from_s),
            TrafficModel::BurstCbr {
                rate_mbps,
                burst_rate_mbps,
                burst_start_s,
                burst_end_s,
            } => {
                if rate_mbps > 0.0 {
                    return Some(from_s);
                }
                if burst_rate_mbps <= 0.0 {
                    return None;
                }
                // Zero baseline: only boundaries inside the burst window
                // offer bits.
                let s = from_s.max(burst_start_s.ceil());
                (s < burst_end_s).then_some(s)
            }
        }
    }

    /// The CUPS weather-station model: 48-byte records every 300 s.
    pub fn weather_station() -> Self {
        TrafficModel::Periodic {
            payload_bytes: 48,
            interval_s: 300.0,
        }
    }

    /// A pest-detection camera: keep-alive imagery at `base_mbps`,
    /// jumping to `burst_mbps` for `[start_s, end_s)` when traps fire.
    pub fn pest_camera(base_mbps: f64, burst_mbps: f64, start_s: f64, end_s: f64) -> Self {
        TrafficModel::BurstCbr {
            rate_mbps: base_mbps,
            burst_rate_mbps: burst_mbps,
            burst_start_s: start_s,
            burst_end_s: end_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_buffer_is_unbounded() {
        assert_eq!(TrafficModel::FullBuffer.offered_bits(0.0), None);
    }

    #[test]
    fn periodic_counts_report_instants() {
        let m = TrafficModel::Periodic {
            payload_bytes: 100,
            interval_s: 10.0,
        };
        // Second [0,1): report at t=0 -> 800 bits.
        assert_eq!(m.offered_bits(0.0), Some(800.0));
        // Second [5,6): no report.
        assert_eq!(m.offered_bits(5.0), Some(0.0));
        // Second [9.5,10.5): report at t=10.
        assert_eq!(m.offered_bits(9.5), Some(800.0));
        // Sub-second interval: several reports per second.
        let fast = TrafficModel::Periodic {
            payload_bytes: 10,
            interval_s: 0.25,
        };
        assert_eq!(fast.offered_bits(1.0), Some(4.0 * 80.0));
    }

    #[test]
    fn cbr_rate() {
        let m = TrafficModel::Cbr { rate_mbps: 2.0 };
        assert_eq!(m.offered_bits(7.0), Some(2e6));
        let neg = TrafficModel::Cbr { rate_mbps: -1.0 };
        assert_eq!(neg.offered_bits(0.0), Some(0.0));
    }

    #[test]
    fn burst_cbr_switches_rate_inside_window() {
        let m = TrafficModel::pest_camera(8.0, 80.0, 10.0, 20.0);
        assert_eq!(m.offered_bits(9.0), Some(8e6));
        assert_eq!(m.offered_bits(10.0), Some(80e6), "onset is inclusive");
        assert_eq!(m.offered_bits(19.0), Some(80e6));
        assert_eq!(m.offered_bits(20.0), Some(8e6), "end is exclusive");
        let neg = TrafficModel::pest_camera(-1.0, -2.0, 0.0, 1.0);
        assert_eq!(neg.offered_bits(0.5), Some(0.0));
    }

    #[test]
    fn weather_station_is_negligible_load() {
        let m = TrafficModel::weather_station();
        // 48 bytes / 300 s ≈ 1.28 bit/s average.
        let total: f64 = (0..300).map(|t| m.offered_bits(t as f64).unwrap()).sum();
        assert_eq!(total, 48.0 * 8.0);
    }
}

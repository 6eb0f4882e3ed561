//! Telemetry quality control.
//!
//! §2: the digital twin's accuracy depends on "data calibrations (back
//! tested against historical data)" — and before any calibration, on not
//! feeding the CFD garbage. Commodity agricultural stations fail in
//! characteristic ways: stuck sensors (repeating an identical value),
//! single-sample spikes (electrical noise), and out-of-physical-range
//! readings (failing transducers). This module screens a station's report
//! stream and flags/filters suspect records before they become CFD
//! boundary conditions.

use crate::telemetry::TelemetryRecord;
use std::collections::BTreeMap;

/// Why a record was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QcFlag {
    /// A value is outside its physical range.
    OutOfRange,
    /// The station has repeated an identical reading too many times.
    StuckSensor,
    /// The value jumped implausibly far from the station's recent level.
    Spike,
}

/// Physical plausibility limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QcLimits {
    /// Max plausible wind speed (m/s).
    pub wind_max_ms: f64,
    /// Temperature range (°C).
    pub temp_range_c: (f64, f64),
    /// Max wind change between consecutive reports (m/s) before a reading
    /// is a spike.
    pub wind_spike_ms: f64,
    /// Max temperature change between consecutive reports (°C).
    pub temp_spike_c: f64,
    /// Identical consecutive wind readings before "stuck" (exact equality
    /// never happens with a live sensor).
    pub stuck_repeats: u32,
}

impl Default for QcLimits {
    fn default() -> Self {
        QcLimits {
            wind_max_ms: 60.0,
            temp_range_c: (-20.0, 55.0),
            wind_spike_ms: 15.0,
            temp_spike_c: 8.0,
            stuck_repeats: 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct StationState {
    last_wind: f64,
    last_temp: f64,
    identical_winds: u32,
}

/// Streaming QC screen over per-station report sequences.
#[derive(Debug, Clone, Default)]
pub struct QcScreen {
    /// Limits in force.
    pub limits: QcLimits,
    state: BTreeMap<u32, StationState>,
}

impl QcScreen {
    /// A screen with default limits.
    pub fn new() -> Self {
        QcScreen::default()
    }

    /// Check one record, updating per-station history. Returns `Ok(())`
    /// for a clean record or the first failing flag.
    pub(crate) fn check(&mut self, r: &TelemetryRecord) -> Result<(), QcFlag> {
        // Range checks first (stateless).
        if !(0.0..=self.limits.wind_max_ms).contains(&r.wind_speed_ms)
            || !r.wind_speed_ms.is_finite()
        {
            return Err(QcFlag::OutOfRange);
        }
        let (tmin, tmax) = self.limits.temp_range_c;
        if !(tmin..=tmax).contains(&r.temp_c) || !r.temp_c.is_finite() {
            return Err(QcFlag::OutOfRange);
        }
        // Stateful checks.
        let state = self.state.get(&r.station_id).copied();
        let verdict = match state {
            None => Ok(()),
            Some(prev) => {
                // `identical_winds` counts repeats already seen; this
                // record would be repeat number `identical_winds + 2`
                // counting the original reading.
                if prev.identical_winds + 2 >= self.limits.stuck_repeats
                    && r.wind_speed_ms == prev.last_wind
                {
                    Err(QcFlag::StuckSensor)
                } else if (r.wind_speed_ms - prev.last_wind).abs() > self.limits.wind_spike_ms
                    || (r.temp_c - prev.last_temp).abs() > self.limits.temp_spike_c
                {
                    Err(QcFlag::Spike)
                } else {
                    Ok(())
                }
            }
        };
        // Update history regardless of verdict (a stuck sensor stays
        // stuck; a spike becomes the new level only if clean).
        let identical = match state {
            Some(prev) if prev.last_wind == r.wind_speed_ms => prev.identical_winds + 1,
            _ => 0,
        };
        if verdict.is_ok() || verdict == Err(QcFlag::StuckSensor) {
            self.state.insert(
                r.station_id,
                StationState {
                    last_wind: r.wind_speed_ms,
                    last_temp: r.temp_c,
                    identical_winds: identical,
                },
            );
        }
        verdict
    }

    /// Filter a report batch, returning the clean records and the flags of
    /// the rejected ones.
    pub fn filter(
        &mut self,
        records: &[TelemetryRecord],
    ) -> (Vec<TelemetryRecord>, Vec<(u32, QcFlag)>) {
        let mut clean = Vec::with_capacity(records.len());
        let mut rejected = Vec::new();
        for r in records {
            match self.check(r) {
                Ok(()) => clean.push(*r),
                Err(flag) => rejected.push((r.station_id, flag)),
            }
        }
        (clean, rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(station: u32, wind: f64, temp: f64) -> TelemetryRecord {
        TelemetryRecord {
            station_id: station,
            t_s: 0.0,
            wind_speed_ms: wind,
            wind_dir_deg: 300.0,
            temp_c: temp,
            rel_humidity: 60.0,
        }
    }

    #[test]
    fn clean_stream_passes() {
        let mut qc = QcScreen::new();
        for w in [3.0, 3.4, 2.8, 3.1, 3.3] {
            assert_eq!(qc.check(&rec(1, w, 22.0)), Ok(()));
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let mut qc = QcScreen::new();
        assert_eq!(qc.check(&rec(1, 80.0, 22.0)), Err(QcFlag::OutOfRange));
        assert_eq!(qc.check(&rec(1, -1.0, 22.0)), Err(QcFlag::OutOfRange));
        assert_eq!(qc.check(&rec(1, 3.0, 70.0)), Err(QcFlag::OutOfRange));
        assert_eq!(qc.check(&rec(1, f64::NAN, 22.0)), Err(QcFlag::OutOfRange));
    }

    #[test]
    fn stuck_sensor_detected_after_repeats() {
        let mut qc = QcScreen::new();
        assert_eq!(qc.check(&rec(1, 3.25, 22.0)), Ok(()));
        assert_eq!(qc.check(&rec(1, 3.25, 22.0)), Ok(()));
        assert_eq!(qc.check(&rec(1, 3.25, 22.0)), Ok(()));
        // Fourth identical reading crosses stuck_repeats = 4.
        assert_eq!(qc.check(&rec(1, 3.25, 22.0)), Err(QcFlag::StuckSensor));
        // And it stays flagged until the value moves again.
        assert_eq!(qc.check(&rec(1, 3.25, 22.0)), Err(QcFlag::StuckSensor));
        assert_eq!(qc.check(&rec(1, 3.4, 22.0)), Ok(()));
    }

    #[test]
    fn spike_detected_and_recovery_allowed() {
        let mut qc = QcScreen::new();
        assert_eq!(qc.check(&rec(1, 3.0, 22.0)), Ok(()));
        assert_eq!(qc.check(&rec(1, 25.0, 22.0)), Err(QcFlag::Spike));
        // The spike did not become the new level: a normal reading passes.
        assert_eq!(qc.check(&rec(1, 3.2, 22.0)), Ok(()));
        // Temperature spikes too.
        assert_eq!(qc.check(&rec(1, 3.2, 35.0)), Err(QcFlag::Spike));
    }

    #[test]
    fn stations_tracked_independently() {
        let mut qc = QcScreen::new();
        qc.check(&rec(1, 3.0, 22.0)).unwrap();
        // Station 2's first reading is never a spike relative to station 1.
        assert_eq!(qc.check(&rec(2, 20.0, 22.0)), Ok(()));
    }

    #[test]
    fn batch_filter_partitions() {
        let mut qc = QcScreen::new();
        qc.check(&rec(1, 3.0, 22.0)).unwrap();
        qc.check(&rec(2, 4.0, 22.0)).unwrap();
        let batch = vec![rec(1, 3.2, 22.0), rec(2, 30.0, 22.0), rec(3, 99.0, 22.0)];
        let (clean, rejected) = qc.filter(&batch);
        assert_eq!(clean.len(), 1);
        assert_eq!(clean[0].station_id, 1);
        assert_eq!(rejected.len(), 2);
        assert!(rejected.contains(&(2, QcFlag::Spike)));
        assert!(rejected.contains(&(3, QcFlag::OutOfRange)));
    }
}

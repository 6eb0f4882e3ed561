//! The fixed-size telemetry record carried in CSPOT logs.
//!
//! CSPOT logs have fixed element sizes, so the record encodes to exactly
//! [`TelemetryRecord::WIRE_SIZE`] bytes — the element size the xGFabric
//! telemetry logs are created with.

/// One weather-station report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryRecord {
    /// Reporting station.
    pub station_id: u32,
    /// Report timestamp (s since simulation start).
    pub t_s: f64,
    /// Measured wind speed (m/s).
    pub wind_speed_ms: f64,
    /// Measured wind direction (deg).
    pub wind_dir_deg: f64,
    /// Measured temperature (°C).
    pub temp_c: f64,
    /// Measured relative humidity (%).
    pub rel_humidity: f64,
}

impl TelemetryRecord {
    /// Encoded size: u32 id + pad + 5 × f64.
    pub const WIRE_SIZE: usize = 48;

    /// Encode to exactly [`Self::WIRE_SIZE`] bytes.
    pub fn encode(&self) -> [u8; Self::WIRE_SIZE] {
        let mut out = [0u8; Self::WIRE_SIZE];
        out[0..4].copy_from_slice(&self.station_id.to_le_bytes());
        out[8..16].copy_from_slice(&self.t_s.to_le_bytes());
        out[16..24].copy_from_slice(&self.wind_speed_ms.to_le_bytes());
        out[24..32].copy_from_slice(&self.wind_dir_deg.to_le_bytes());
        out[32..40].copy_from_slice(&self.temp_c.to_le_bytes());
        out[40..48].copy_from_slice(&self.rel_humidity.to_le_bytes());
        out
    }

    /// Decode; returns `None` for a buffer of the wrong length (the
    /// tests' oracle for the wire layout [`encode`](Self::encode) writes).
    #[cfg(test)]
    pub(crate) fn decode(bytes: &[u8]) -> Option<TelemetryRecord> {
        if bytes.len() != Self::WIRE_SIZE {
            return None;
        }
        Some(TelemetryRecord {
            station_id: u32::from_le_bytes(bytes[0..4].try_into().ok()?),
            t_s: f64::from_le_bytes(bytes[8..16].try_into().ok()?),
            wind_speed_ms: f64::from_le_bytes(bytes[16..24].try_into().ok()?),
            wind_dir_deg: f64::from_le_bytes(bytes[24..32].try_into().ok()?),
            temp_c: f64::from_le_bytes(bytes[32..40].try_into().ok()?),
            rel_humidity: f64::from_le_bytes(bytes[40..48].try_into().ok()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetryRecord {
        TelemetryRecord {
            station_id: 3,
            t_s: 600.0,
            wind_speed_ms: 3.4,
            wind_dir_deg: 312.0,
            temp_c: 24.5,
            rel_humidity: 61.0,
        }
    }

    #[test]
    fn roundtrip() {
        let r = sample();
        let enc = r.encode();
        assert_eq!(enc.len(), TelemetryRecord::WIRE_SIZE);
        assert_eq!(TelemetryRecord::decode(&enc).unwrap(), r);
    }

    #[test]
    fn wrong_length_rejected() {
        assert!(TelemetryRecord::decode(&[0u8; 47]).is_none());
        assert!(TelemetryRecord::decode(&[0u8; 49]).is_none());
        assert!(TelemetryRecord::decode(&[]).is_none());
    }

    #[test]
    fn extreme_values_roundtrip() {
        let mut r = sample();
        r.wind_speed_ms = f64::MAX;
        r.temp_c = -273.15;
        let dec = TelemetryRecord::decode(&r.encode()).unwrap();
        assert_eq!(dec.wind_speed_ms, f64::MAX);
        assert_eq!(dec.temp_c, -273.15);
    }
}

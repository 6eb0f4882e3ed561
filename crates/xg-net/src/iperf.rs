//! iperf3-like measurement harness.
//!
//! The paper collects 100 iperf3 uplink throughput samples per
//! configuration. [`IperfRun`] holds one such sample series plus the labels
//! needed to place it in a figure; [`IperfSummary`] is the mean ± SD row the
//! figures plot.

use crate::units::SampleStats;

/// One iperf-style run: a series of per-second throughput samples (Mbps).
#[derive(Debug, Clone, PartialEq)]
pub struct IperfRun {
    /// Device label ("Laptop" / "RPi" / "Smartphone").
    pub device: String,
    /// Cell description ("5G TDD 40 MHz").
    pub config: String,
    /// Per-second throughput samples in Mbps.
    pub samples: Vec<f64>,
}

impl IperfRun {
    /// Construct a run from its samples.
    pub(crate) fn new(device: String, config: String, samples: Vec<f64>) -> Self {
        IperfRun {
            device,
            config,
            samples,
        }
    }

    /// Mean throughput over all samples (0 for an empty run).
    pub fn mean_mbps(&self) -> f64 {
        SampleStats::of(&self.samples)
            .map(|s| s.mean)
            .unwrap_or(0.0)
    }

    /// Full summary (None for an empty run).
    pub fn stats(&self) -> Option<SampleStats> {
        SampleStats::of(&self.samples)
    }

    /// Summary row for figure output.
    pub fn summary(&self) -> IperfSummary {
        let stats = SampleStats::of(&self.samples).unwrap_or(SampleStats {
            n: 0,
            mean: 0.0,
            sd: 0.0,
            min: 0.0,
            max: 0.0,
        });
        IperfSummary {
            device: self.device.clone(),
            config: self.config.clone(),
            mean_mbps: stats.mean,
            sd_mbps: stats.sd,
            n: stats.n,
        }
    }
}

/// The mean ± SD summary row the paper's throughput figures plot.
#[derive(Debug, Clone, PartialEq)]
pub struct IperfSummary {
    /// Device label.
    pub device: String,
    /// Cell description.
    pub config: String,
    /// Mean throughput (Mbps).
    pub mean_mbps: f64,
    /// Sample standard deviation (Mbps).
    pub sd_mbps: f64,
    /// Number of samples.
    pub n: usize,
}

impl IperfSummary {
    /// CSV row: `config,device,n,mean,sd`.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{:.2},{:.2}",
            self.config, self.device, self.n, self.mean_mbps, self.sd_mbps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stats() {
        let run = IperfRun::new("RPi".into(), "5G FDD 20 MHz".into(), vec![10.0, 20.0, 30.0]);
        assert_eq!(run.mean_mbps(), 20.0);
        let s = run.stats().unwrap();
        assert_eq!(s.n, 3);
        assert!((s.sd - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run() {
        let run = IperfRun::new("RPi".into(), "x".into(), vec![]);
        assert_eq!(run.mean_mbps(), 0.0);
        assert!(run.stats().is_none());
        assert_eq!(run.summary().n, 0);
    }

    #[test]
    fn csv_roundtrip_format() {
        let run = IperfRun::new("Laptop".into(), "4G FDD 10 MHz".into(), vec![5.0, 7.0]);
        let row = run.summary().csv_row();
        assert_eq!(row, "4G FDD 10 MHz,Laptop,2,6.00,1.41");
    }
}

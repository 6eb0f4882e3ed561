//! Connectivity-outage process for remote 5G deployments.
//!
//! §3.1: "devices operating in remote locations using 5G connectivity can
//! be subject to frequent network interruption. Because all program state
//! is logged, programs can simply pause until connectivity is restored."
//! [`OutageProcess`] is a two-state (up/down) Markov process in virtual
//! time that drives a route's partition flag, so delay-tolerance tests and
//! the reliability study can subject the data path to realistic
//! interruption patterns.

use crate::netsim::RoutePath;
use xg_sim::rng::Rng;

/// Parameters of the up/down alternating-renewal process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageConfig {
    /// Mean time between failures (s) — exponential.
    pub mtbf_s: f64,
    /// Mean time to repair (s) — exponential.
    pub mttr_s: f64,
}

impl OutageConfig {
    /// A flaky remote 5G link: an interruption every ~2 h lasting ~4 min.
    pub fn flaky_5g() -> Self {
        OutageConfig {
            mtbf_s: 7_200.0,
            mttr_s: 240.0,
        }
    }

    /// Long-run availability of the link.
    pub fn availability(&self) -> f64 {
        self.mtbf_s / (self.mtbf_s + self.mttr_s)
    }
}

/// The outage process: advances in virtual time, reporting state changes.
#[derive(Debug, Clone)]
pub struct OutageProcess {
    config: OutageConfig,
    rng: Rng,
    /// Whether the link is currently up.
    up: bool,
    /// Virtual time of the next state transition (s).
    next_transition_s: f64,
    now_s: f64,
}

impl OutageProcess {
    /// Start an outage process (link initially up).
    pub fn new(config: OutageConfig, seed: u64) -> Self {
        assert!(config.mtbf_s > 0.0 && config.mttr_s > 0.0);
        let mut p = OutageProcess {
            config,
            rng: Rng::seed_from_u64(seed),
            up: true,
            next_transition_s: 0.0,
            now_s: 0.0,
        };
        p.next_transition_s = p.sample_holding();
        p
    }

    fn sample_holding(&mut self) -> f64 {
        let mean = if self.up {
            self.config.mtbf_s
        } else {
            self.config.mttr_s
        };
        self.now_s - mean * (1.0 - self.rng.next_f64()).ln()
    }

    /// Whether the link is currently up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Advance virtual time to `t` (s) without touching any route — the
    /// caller reads [`is_up`](Self::is_up) and applies the state itself.
    /// Returns the number of transitions and the time spent down in
    /// `(now, t]`, so fault drivers can account availability exactly even
    /// when outages start and end between observation points.
    pub fn advance_time(&mut self, t: f64) -> (usize, f64) {
        assert!(t >= self.now_s, "time cannot run backwards");
        let mut transitions = 0;
        let mut down_s = 0.0;
        while self.next_transition_s <= t {
            let held = self.next_transition_s - self.now_s;
            if !self.up {
                down_s += held;
            }
            self.now_s = self.next_transition_s;
            self.up = !self.up;
            transitions += 1;
            self.next_transition_s = self.sample_holding();
        }
        if !self.up {
            down_s += t - self.now_s;
        }
        self.now_s = t;
        (transitions, down_s)
    }

    /// Advance virtual time to `t` (s), applying any state changes to the
    /// route's partition flag. Returns the number of transitions.
    pub fn advance_to(&mut self, t: f64, route: &mut RoutePath) -> usize {
        let (transitions, _) = self.advance_time(t);
        route.set_partitioned(!self.up);
        transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::PathModel;

    #[test]
    fn availability_formula() {
        let c = OutageConfig {
            mtbf_s: 900.0,
            mttr_s: 100.0,
        };
        assert!((c.availability() - 0.9).abs() < 1e-12);
        assert!(OutageConfig::flaky_5g().availability() > 0.95);
    }

    #[test]
    fn long_run_availability_matches_config() {
        let config = OutageConfig {
            mtbf_s: 1_000.0,
            mttr_s: 250.0,
        };
        let mut process = OutageProcess::new(config, 7);
        let mut route = RoutePath::single(PathModel::wired(1.0, 0.0));
        // Sample the up-state fraction over a long horizon.
        let mut up_time = 0.0;
        let step = 50.0;
        let horizon = 2_000_000.0;
        let mut t = 0.0;
        while t < horizon {
            t += step;
            process.advance_to(t, &mut route);
            if process.is_up() {
                up_time += step;
            }
        }
        let measured = up_time / horizon;
        let expect = config.availability();
        assert!(
            (measured - expect).abs() < 0.03,
            "availability {measured} vs {expect}"
        );
    }

    #[test]
    fn route_partition_follows_state() {
        let mut process = OutageProcess::new(
            OutageConfig {
                mtbf_s: 100.0,
                mttr_s: 100.0,
            },
            3,
        );
        let mut route = RoutePath::single(PathModel::wired(1.0, 0.0));
        let mut rng = Rng::seed_from_u64(1);
        let mut saw_down = false;
        let mut saw_up = false;
        for t in 1..200 {
            process.advance_to(t as f64 * 25.0, &mut route);
            let delivered = route.sample_one_way(&mut rng).is_some();
            assert_eq!(delivered, process.is_up(), "route must track the process");
            saw_down |= !delivered;
            saw_up |= delivered;
        }
        assert!(saw_down && saw_up, "both states must occur");
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = OutageConfig::flaky_5g();
        let mut a = OutageProcess::new(cfg, 42);
        let mut b = OutageProcess::new(cfg, 42);
        let mut ra = RoutePath::single(PathModel::wired(1.0, 0.0));
        let mut rb = RoutePath::single(PathModel::wired(1.0, 0.0));
        for t in 1..100 {
            a.advance_to(t as f64 * 600.0, &mut ra);
            b.advance_to(t as f64 * 600.0, &mut rb);
            assert_eq!(a.is_up(), b.is_up());
        }
    }

    #[test]
    fn downtime_accounting_is_exact() {
        // Coarse observation cannot hide short outages: the integrated
        // downtime from advance_time must equal 1 - availability in the
        // long run, even when whole outages fall between observations.
        let config = OutageConfig {
            mtbf_s: 500.0,
            mttr_s: 125.0,
        };
        let mut process = OutageProcess::new(config, 11);
        let horizon = 4_000_000.0;
        let step = 10_000.0; // far coarser than MTTR
        let mut down_total = 0.0;
        let mut t = 0.0;
        while t < horizon {
            t += step;
            let (_, down) = process.advance_time(t);
            down_total += down;
        }
        let measured = 1.0 - down_total / horizon;
        let expect = config.availability();
        assert!(
            (measured - expect).abs() < 0.02,
            "availability {measured} vs {expect}"
        );
    }

    #[test]
    #[should_panic(expected = "time cannot run backwards")]
    fn monotone_time_enforced() {
        let mut p = OutageProcess::new(OutageConfig::flaky_5g(), 1);
        let mut r = RoutePath::single(PathModel::wired(1.0, 0.0));
        p.advance_to(100.0, &mut r);
        p.advance_to(50.0, &mut r);
    }
}

//! Real-time intervention planning (the paper's third future-work item,
//! §5: "exploit the simulation results to perform real-time interventions
//! in the CUPS facility").
//!
//! §2 lists the decisions the CFD model supports: "input events such as
//! pesticide or fertilizer spraying, frost prevention, etc. where the
//! grower must make a decision regarding timing, location, and quantity of
//! input to apply." The advisor turns one CFD result plus current
//! conditions into concrete recommendations with the rationale attached.

use xg_cfd::solver::Simulation;

/// Conditions snapshot used alongside the CFD result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SiteConditions {
    /// Exterior temperature (°C).
    pub ambient_temp_c: f64,
    /// Forecast minimum temperature for the coming night (°C).
    pub forecast_min_temp_c: f64,
    /// Relative humidity (%).
    pub rel_humidity: f64,
}

/// A recommended intervention.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Intervention {
    /// Apply irrigation water for latent-heat frost protection.
    FrostProtection {
        /// Predicted minimum canopy temperature (°C).
        predicted_canopy_min_c: f64,
        /// Recommended start lead time before the minimum (s).
        lead_s: f64,
    },
    /// Conditions are right to spray (pesticide/fertilizer).
    SprayWindow {
        /// Mean interior wind (m/s) — low enough for even deposition.
        interior_wind_ms: f64,
        /// Fraction of the canopy with wind below the drift threshold.
        coverage: f64,
    },
    /// Hold off spraying: too windy or too dry.
    SprayHold {
        /// Human-readable reason.
        reason: String,
    },
}

/// Canopy temperature (°C) below which frost protection starts.
const FROST_THRESHOLD_C: f64 = 1.0;
/// Interior wind (m/s) above which spray drift is unacceptable.
const SPRAY_WIND_LIMIT_MS: f64 = 1.5;
/// Minimum humidity (%) for spraying (evaporation control).
const SPRAY_MIN_RH: f64 = 35.0;
/// Minimum canopy fraction that must be under the wind limit.
const SPRAY_MIN_COVERAGE: f64 = 0.8;

/// The intervention advisor.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct InterventionAdvisor;

impl InterventionAdvisor {
    /// Evaluate the latest CFD result and conditions, returning zero or
    /// more recommendations.
    pub(crate) fn advise(
        &self,
        sim: &Simulation,
        conditions: &SiteConditions,
    ) -> Vec<Intervention> {
        let mut out = Vec::new();
        // Frost: the interior cools toward the forecast minimum; screen
        // cover keeps the canopy slightly warmer than open field (~+1.5°C
        // of radiative shelter), which the CFD's temperature field refines.
        let canopy_temp = self.canopy_min_temp(sim);
        let predicted_canopy_min_c =
            conditions.forecast_min_temp_c + (canopy_temp - conditions.ambient_temp_c);
        if predicted_canopy_min_c <= FROST_THRESHOLD_C {
            out.push(Intervention::FrostProtection {
                predicted_canopy_min_c,
                // Water needs to be flowing well before the minimum: lead
                // grows with the deficit.
                lead_s: 1800.0 + 600.0 * (FROST_THRESHOLD_C - predicted_canopy_min_c).max(0.0),
            });
        }
        // Spray decision from the wind field inside the canopy layer.
        let (mean_wind, coverage) = self.canopy_wind_stats(sim);
        if mean_wind > SPRAY_WIND_LIMIT_MS || coverage < SPRAY_MIN_COVERAGE {
            out.push(Intervention::SprayHold {
                reason: format!(
                    "canopy wind {mean_wind:.2} m/s, only {:.0}% under the {:.1} m/s drift limit",
                    coverage * 100.0,
                    SPRAY_WIND_LIMIT_MS
                ),
            });
        } else if conditions.rel_humidity < SPRAY_MIN_RH {
            out.push(Intervention::SprayHold {
                reason: format!(
                    "humidity {:.0}% below the {:.0}% evaporation limit",
                    conditions.rel_humidity, SPRAY_MIN_RH
                ),
            });
        } else {
            out.push(Intervention::SprayWindow {
                interior_wind_ms: mean_wind,
                coverage,
            });
        }
        out
    }

    /// Minimum temperature over the canopy layer (z ≤ 4.5 m interior).
    fn canopy_min_temp(&self, sim: &Simulation) -> f64 {
        let k_max = ((4.5 / sim.mesh.d[2]).ceil() as usize).min(sim.t.nz - 1);
        let mut min_t = f64::INFINITY;
        for k in 1..=k_max {
            for j in 1..sim.t.ny - 1 {
                for i in 1..sim.t.nx - 1 {
                    min_t = min_t.min(sim.t.at(i, j, k));
                }
            }
        }
        min_t
    }

    /// Mean horizontal wind and under-limit coverage in the canopy layer.
    fn canopy_wind_stats(&self, sim: &Simulation) -> (f64, f64) {
        let k_max = ((4.5 / sim.mesh.d[2]).ceil() as usize).min(sim.u.nz - 1);
        let mut sum = 0.0;
        let mut under = 0usize;
        let mut count = 0usize;
        for k in 1..=k_max {
            for j in 1..sim.u.ny - 1 {
                for i in 1..sim.u.nx - 1 {
                    let u = sim.u.at(i, j, k);
                    let v = sim.v.at(i, j, k);
                    let speed = (u * u + v * v).sqrt();
                    sum += speed;
                    if speed <= SPRAY_WIND_LIMIT_MS {
                        under += 1;
                    }
                    count += 1;
                }
            }
        }
        if count == 0 {
            (0.0, 1.0)
        } else {
            (sum / count as f64, under as f64 / count as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_cfd::boundary::BoundarySpec;
    use xg_cfd::mesh::{DomainSpec, Mesh};
    use xg_cfd::solver::SolverConfig;

    fn run_sim(wind: f64, ambient: f64) -> Simulation {
        let mesh = Mesh::generate(&DomainSpec::cups_default().with_cells(16, 14, 6));
        let mut sim = Simulation::new(
            mesh,
            BoundarySpec::intact(wind, 270.0, ambient),
            SolverConfig::default(),
        );
        sim.run(40);
        sim
    }

    fn mild() -> SiteConditions {
        SiteConditions {
            ambient_temp_c: 22.0,
            forecast_min_temp_c: 10.0,
            rel_humidity: 60.0,
        }
    }

    #[test]
    fn calm_mild_night_opens_spray_window() {
        let sim = run_sim(1.0, 22.0);
        let advice = InterventionAdvisor.advise(&sim, &mild());
        assert!(
            advice
                .iter()
                .any(|a| matches!(a, Intervention::SprayWindow { .. })),
            "{advice:?}"
        );
        assert!(!advice
            .iter()
            .any(|a| matches!(a, Intervention::FrostProtection { .. })));
    }

    #[test]
    fn windy_day_holds_spraying() {
        let sim = run_sim(9.0, 22.0);
        let advice = InterventionAdvisor.advise(&sim, &mild());
        match advice
            .iter()
            .find(|a| matches!(a, Intervention::SprayHold { .. }))
        {
            Some(Intervention::SprayHold { reason }) => {
                assert!(reason.contains("wind"), "{reason}");
            }
            other => panic!("expected a spray hold: {other:?}"),
        }
    }

    #[test]
    fn freezing_forecast_triggers_frost_protection() {
        let sim = run_sim(1.0, 10.0);
        let frosty = SiteConditions {
            ambient_temp_c: 10.0,
            forecast_min_temp_c: -2.0,
            rel_humidity: 70.0,
        };
        let advice = InterventionAdvisor.advise(&sim, &frosty);
        match advice
            .iter()
            .find(|a| matches!(a, Intervention::FrostProtection { .. }))
        {
            Some(Intervention::FrostProtection {
                predicted_canopy_min_c,
                lead_s,
            }) => {
                assert!(*predicted_canopy_min_c <= 1.0);
                assert!(*lead_s >= 1800.0, "colder nights need more lead: {lead_s}");
            }
            other => panic!("expected frost protection: {other:?}"),
        }
    }

    #[test]
    fn dry_air_holds_spraying() {
        let sim = run_sim(1.0, 22.0);
        let dry = SiteConditions {
            rel_humidity: 20.0,
            ..mild()
        };
        let advice = InterventionAdvisor.advise(&sim, &dry);
        match advice
            .iter()
            .find(|a| matches!(a, Intervention::SprayHold { .. }))
        {
            Some(Intervention::SprayHold { reason }) => {
                assert!(reason.contains("humidity"), "{reason}");
            }
            other => panic!("expected a humidity hold: {other:?}"),
        }
    }

    #[test]
    fn colder_forecast_more_lead() {
        let sim = run_sim(1.0, 10.0);
        let advisor = InterventionAdvisor;
        let lead_at = |min_c: f64| {
            let cond = SiteConditions {
                ambient_temp_c: 10.0,
                forecast_min_temp_c: min_c,
                rel_humidity: 70.0,
            };
            advisor
                .advise(&sim, &cond)
                .into_iter()
                .find_map(|a| match a {
                    Intervention::FrostProtection { lead_s, .. } => Some(lead_s),
                    _ => None,
                })
                .expect("frost advice")
        };
        assert!(lead_at(-5.0) > lead_at(-1.0));
    }
}

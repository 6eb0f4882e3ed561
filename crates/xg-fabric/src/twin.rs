//! The result side of a CFD run: the digital twin.
//!
//! A finished task runs the actual solver at the resolution the ladder
//! chose at trigger time, returns the headline numbers to the site
//! operator, compares prediction with the interior stations (after a
//! first-run calibration, §2), issues intervention advisories, and
//! dispatches the Farm-NG robot along a planned route to a suspected
//! breach.

use crate::backtest::{BacktestReport, Backtester, CalibrationSample};
use crate::detect::DETECT_EVERY_REPORTS;
use crate::hpc::CfdTask;
use crate::intervention::{Intervention, InterventionAdvisor, SiteConditions};
use crate::pipeline::{ResultSummary, ResultsReturn};
use crate::robot::Robot;
use crate::route::RoutePlanner;
use crate::timeline::{Event, Timeline};
use xg_cfd::boundary::BoundarySpec;
use xg_cfd::mesh::{DomainSpec, Mesh};
use xg_cfd::solver::{Simulation, SolverConfig};
use xg_cfd::twin::{DigitalTwin, Measurement};
use xg_obs::Obs;
use xg_sensors::facility::Wall;
use xg_sensors::network::{SensorNetwork, REPORT_INTERVAL_S};

/// Calibration, back-testing and the robot.
pub(crate) struct Twin {
    /// Measured/predicted factor, set by the first completed comparison
    /// ("once the model is calibrated", §2).
    calibration: Option<f64>,
    backtester: Backtester,
    robot: Robot,
    planner: RoutePlanner,
}

impl Twin {
    pub(crate) fn new() -> Self {
        Twin {
            calibration: None,
            backtester: Backtester::default(),
            robot: Robot::default(),
            planner: RoutePlanner::from_domain(&DomainSpec::cups_default()),
        }
    }

    /// Back-test the calibration against the prediction/measurement
    /// history (None before enough runs, or before calibration).
    pub(crate) fn backtest(&self) -> Option<BacktestReport> {
        self.backtester.backtest(self.calibration?)
    }

    /// Run a finished task's solve and act on the result. `results` is
    /// the operator downlink, `None` when the ladder sheds it.
    pub(crate) fn complete(
        &mut self,
        task: CfdTask,
        runtime_s: f64,
        obs: &Obs,
        results: Option<&mut ResultsReturn>,
        net: &SensorNetwork,
        timeline: &mut Timeline,
    ) {
        let CfdTask {
            pending,
            site,
            at: finished_at,
            attempts,
        } = task;
        let [nx, ny, nz] = pending.cells;
        // Predicted field: always intact-screen boundary conditions — the
        // twin detects breaches as measurement/model divergence.
        let mesh = Mesh::generate(&DomainSpec::cups_default().with_cells(nx, ny, nz));
        let bc = &pending.bc;
        let bc = BoundarySpec::intact(bc.wind_speed_ms, bc.wind_dir_deg, bc.ambient_temp_c);
        let mut sim = Simulation::new(mesh, bc, SolverConfig::default());
        sim.set_obs(obs);
        sim.run(pending.steps);
        let predicted_wind = sim.mean_interior_wind();
        let window_s = REPORT_INTERVAL_S * DETECT_EVERY_REPORTS as f64;
        let validity_s = (window_s - runtime_s).max(0.0);
        // Close out the trace's HPC stages: expected completion minus the
        // modelled runtime is queue wait masked (or not) by warm pilots.
        let return_parent = obs.tracer().and_then(|tr| {
            let (trace, detect) = pending.trace?;
            let solve_start = (finished_at - runtime_s).max(pending.trigger_t_s);
            let qm = tr.record_sim_s(
                trace,
                Some(detect),
                "hpc.queue_mask",
                pending.trigger_t_s,
                solve_start,
                vec![
                    ("site".into(), site),
                    ("attempts".into(), attempts.to_string()),
                ],
            );
            let cfd = tr.record_sim_s(
                trace,
                Some(qm),
                "cfd.solve",
                solve_start,
                finished_at,
                vec![
                    ("cells".into(), format!("{nx}x{ny}x{nz}")),
                    ("steps".into(), pending.steps.to_string()),
                ],
            );
            Some((tr, trace, cfd))
        });
        timeline.push(Event::CfdCompleted {
            t_s: finished_at,
            model_runtime_s: runtime_s,
            predicted_interior_wind: predicted_wind,
            validity_s,
        });
        // The operator gets the headline numbers at once over the 5G
        // downlink; breach status is refined below.
        let summary = ResultSummary {
            t_s: finished_at,
            predicted_wind_ms: predicted_wind,
            validity_s,
            breach_suspected: false,
        };
        if let Some(Ok(latency_ms)) = results.map(|r| r.deliver(&summary)) {
            if let Some((tr, trace, cfd)) = return_parent {
                tr.record_sim_s(
                    trace,
                    Some(cfd),
                    "results.return",
                    finished_at,
                    finished_at + latency_ms / 1e3,
                    Vec::new(),
                );
            }
            timeline.push(Event::ResultsReturned {
                t_s: finished_at,
                latency_ms,
            });
        }
        // Feed the back-tester the raw (predicted, measured) pair so
        // calibration drift is observable over time (§2's back-testing).
        let interior = &pending.interior;
        let mean_meas =
            interior.iter().map(|m| m.wind_ms).sum::<f64>() / interior.len().max(1) as f64;
        if !interior.is_empty() {
            self.backtester.record(CalibrationSample {
                t_s: finished_at,
                predicted_ms: predicted_wind,
                measured_ms: mean_meas,
            });
        }
        let Some(c) = self.calibration else {
            // Calibrate: align predicted with measured means, assuming
            // the screen intact on the first run.
            self.calibration = Some(mean_meas / predicted_wind.max(1e-9));
            return;
        };
        let measurements: Vec<Measurement> = interior
            .iter()
            .map(|m| Measurement {
                wind_ms: m.wind_ms / c.max(1e-9),
                ..*m
            })
            .collect();
        // Candidate breach sites: every panel centre of every wall.
        let facility = &net.facility;
        let candidates: Vec<(f64, f64)> = Wall::all()
            .into_iter()
            .flat_map(|wall| (0..facility.panels_per_wall).map(move |p| (wall, p)))
            .map(|(wall, p)| facility.panel_center(wall, p))
            .collect();
        // Intervention advisory from this CFD result (§5 future work 3).
        if let Some(state) = net.current_state() {
            let conditions = SiteConditions {
                ambient_temp_c: state.temp_c,
                // Simple overnight forecast: diurnal trough ~9°C below the
                // current reading.
                forecast_min_temp_c: state.temp_c - 9.0,
                rel_humidity: state.rel_humidity,
            };
            for advice in InterventionAdvisor.advise(&sim, &conditions) {
                let summary = match advice {
                    Intervention::FrostProtection {
                        predicted_canopy_min_c,
                        lead_s,
                    } => format!(
                        "frost protection: canopy min {predicted_canopy_min_c:.1} C, start {:.0} min early",
                        lead_s / 60.0
                    ),
                    Intervention::SprayWindow {
                        interior_wind_ms, ..
                    } => format!("spray window open (canopy wind {interior_wind_ms:.2} m/s)"),
                    Intervention::SprayHold { reason } => format!("spray hold: {reason}"),
                };
                timeline.push(Event::AdvisoryIssued {
                    t_s: finished_at,
                    summary,
                });
            }
        }
        let Some(report) =
            DigitalTwin::default().compare_with_candidates(&sim, &measurements, &candidates)
        else {
            return;
        };
        timeline.push(Event::TwinCompared {
            t_s: finished_at,
            max_residual_ms: report.max_residual_ms,
            breach_suspected: report.breach_suspected,
        });
        if let Some(region) = report.suspect_region {
            let robot = self.robot.dispatch_planned(region, facility, &self.planner);
            timeline.push(Event::RobotDispatched {
                t_s: finished_at + robot.mission_s,
                mission_s: robot.mission_s,
                confirmed: robot.breach_confirmed,
            });
        }
    }
}

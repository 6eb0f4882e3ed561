//! Farm-NG robot dispatch.
//!
//! §2: when the digital twin suspects a breach, xGFabric will "dispatch
//! the robot to surveil the region of the screen where a breach may have
//! occurred using an on-board camera". The robot here drives a straight
//! aisle-aware route to the suspect wall region, inspects, and reports
//! whether a breach is visible near that point — closing the
//! sense → compute → actuate loop the paper motivates.

use crate::route::RoutePlanner;
use xg_sensors::facility::CupsFacility;

/// The wheeled robot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Robot {
    /// Current position (m) in facility coordinates.
    pub position: (f64, f64),
    /// Driving speed (m/s). Farm-NG Amiga-class: ~1.5 m/s.
    pub speed_ms: f64,
    /// Time spent inspecting a panel (s).
    pub inspect_s: f64,
    /// Visual detection range from the inspection point (m).
    pub camera_range_m: f64,
}

impl Default for Robot {
    fn default() -> Self {
        Robot {
            position: (60.0, 50.0),
            speed_ms: 1.5,
            inspect_s: 120.0,
            camera_range_m: 20.0,
        }
    }
}

/// Outcome of a dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RobotReport {
    /// Travel time to the suspect region (s).
    pub travel_s: f64,
    /// Total mission time (travel + inspection, s).
    pub mission_s: f64,
    /// Whether a breach was visually confirmed within camera range.
    pub breach_confirmed: bool,
    /// Final robot position (m).
    pub position: (f64, f64),
}

impl Robot {
    /// Drive to `target` (m) along the planned route through the orchard
    /// aisles, inspect, and report. Falls back to the straight-line
    /// estimate when no route exists (e.g. degenerate geometry).
    pub(crate) fn dispatch_planned(
        &mut self,
        target: (f64, f64),
        facility: &CupsFacility,
        planner: &RoutePlanner,
    ) -> RobotReport {
        match planner.plan(self.position, target) {
            Some(path) => {
                let dist = RoutePlanner::path_length_m(&path);
                let travel_s = dist / self.speed_ms.max(0.1);
                self.position = target;
                let confirmed = self.can_see_breach(target, facility);
                RobotReport {
                    travel_s,
                    mission_s: travel_s + self.inspect_s,
                    breach_confirmed: confirmed,
                    position: self.position,
                }
            }
            None => self.dispatch(target, facility),
        }
    }

    fn can_see_breach(&self, target: (f64, f64), facility: &CupsFacility) -> bool {
        facility.breaches.iter().any(|b| {
            let (bx, by) = facility.panel_center(b.wall, b.panel);
            let d = ((bx - target.0).powi(2) + (by - target.1).powi(2)).sqrt();
            d <= self.camera_range_m
        })
    }

    /// Drive straight to `target` (m), inspect, and report. The
    /// ground-truth `facility` decides whether a breach is visible there.
    pub(crate) fn dispatch(&mut self, target: (f64, f64), facility: &CupsFacility) -> RobotReport {
        let dist =
            ((target.0 - self.position.0).powi(2) + (target.1 - self.position.1).powi(2)).sqrt();
        let travel_s = dist / self.speed_ms.max(0.1);
        self.position = target;
        let confirmed = self.can_see_breach(target, facility);
        RobotReport {
            travel_s,
            mission_s: travel_s + self.inspect_s,
            breach_confirmed: confirmed,
            position: self.position,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_sensors::breach::Breach;
    use xg_sensors::facility::Wall;

    #[test]
    fn travel_time_scales_with_distance() {
        let facility = CupsFacility::default();
        let mut near = Robot::default();
        let mut far = Robot {
            position: (120.0, 100.0),
            ..Robot::default()
        };
        let r_near = near.dispatch((60.0, 52.0), &facility);
        let r_far = far.dispatch((0.0, 0.0), &facility);
        assert!(r_far.travel_s > r_near.travel_s);
        assert!((r_near.mission_s - r_near.travel_s - 120.0).abs() < 1e-9);
        assert_eq!(near.position, (60.0, 52.0));
    }

    #[test]
    fn confirms_real_breach() {
        let mut facility = CupsFacility::default();
        facility.add_breach(Breach::equipment_tear(Wall::West, 5));
        let (bx, by) = facility.panel_center(Wall::West, 5);
        let mut robot = Robot::default();
        let report = robot.dispatch((bx, by), &facility);
        assert!(report.breach_confirmed);
    }

    #[test]
    fn false_alarm_not_confirmed() {
        let facility = CupsFacility::default(); // intact
        let mut robot = Robot::default();
        let report = robot.dispatch((0.0, 50.0), &facility);
        assert!(!report.breach_confirmed);
    }

    #[test]
    fn planned_dispatch_takes_longer_through_orchard() {
        use xg_cfd::mesh::DomainSpec;
        let mut facility = CupsFacility::default();
        facility.add_breach(Breach::equipment_tear(Wall::West, 5));
        let (bx, by) = facility.panel_center(Wall::West, 5);
        let planner = RoutePlanner::from_domain(&DomainSpec::cups_default());
        let mut direct = Robot {
            position: (118.0, 50.0),
            ..Robot::default()
        };
        let mut planned = Robot {
            position: (118.0, 50.0),
            ..Robot::default()
        };
        let r_direct = direct.dispatch((bx, by), &facility);
        let r_planned = planned.dispatch_planned((bx, by), &facility, &planner);
        assert!(r_planned.breach_confirmed);
        assert!(
            r_planned.travel_s >= r_direct.travel_s,
            "aisle route cannot beat the crow: {} vs {}",
            r_planned.travel_s,
            r_direct.travel_s
        );
    }

    #[test]
    fn breach_out_of_camera_range_missed() {
        let mut facility = CupsFacility::default();
        facility.add_breach(Breach::bird_strike(Wall::East, 0));
        let mut robot = Robot::default();
        // Inspect the opposite corner.
        let report = robot.dispatch((0.0, 100.0), &facility);
        assert!(!report.breach_confirmed);
    }
}

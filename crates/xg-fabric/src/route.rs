//! Robot route planning through the orchard.
//!
//! §2: "The xGFabric digital-physical fabric will incorporate robot-based
//! sensing and robot route planning." The screen house is full of tree
//! rows the Farm-NG cannot drive through, so a straight line to the
//! suspect panel is usually blocked; this planner runs A* on a coarse
//! occupancy grid built from the canopy blocks, producing a drivable
//! waypoint path whose length feeds the mission-time estimate.

use std::collections::BinaryHeap;
use xg_cfd::mesh::DomainSpec;

/// Planner grid resolution (m).
const CELL_M: f64 = 2.0;
/// Clearance added around obstacles (m) — half a robot width plus margin.
const INFLATE_M: f64 = 1.0;

/// The grid indices `i < n` whose coordinate `i · CELL_M` lies in
/// `[lo, hi]`: `⌈lo / CELL_M⌉ ..= ⌊hi / CELL_M⌋`, clamped to the grid.
/// `CELL_M` is a power of two, so dividing and multiplying by it are
/// exact and this picks the same points as comparing each coordinate
/// with `lo` and `hi`.
fn span(lo: f64, hi: f64, n: usize) -> std::ops::Range<usize> {
    let first = (lo / CELL_M).ceil().max(0.0);
    let last = (hi / CELL_M).floor().min((n - 1) as f64);
    // `max` and `min` drop a NaN, but no coordinate is within a NaN edge.
    if first <= last && !lo.is_nan() && !hi.is_nan() {
        first as usize..last as usize + 1
    } else {
        0..0
    }
}

/// An occupancy-grid route planner.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RoutePlanner {
    nx: usize,
    ny: usize,
    blocked: Vec<bool>,
}

impl RoutePlanner {
    /// Build a planner from the facility's domain spec: canopy blocks are
    /// obstacles, everything else (aisles, perimeter road) is drivable.
    pub(crate) fn from_domain(spec: &DomainSpec) -> Self {
        let nx = (spec.size_m[0] / CELL_M).ceil() as usize + 1;
        let ny = (spec.size_m[1] / CELL_M).ceil() as usize + 1;
        let mut blocked = vec![false; nx * ny];
        for c in &spec.canopy {
            let xs = span(c.min[0] - INFLATE_M, c.max[0] + INFLATE_M, nx);
            for j in span(c.min[1] - INFLATE_M, c.max[1] + INFLATE_M, ny) {
                blocked[j * nx..][xs.clone()].fill(true);
            }
        }
        RoutePlanner { nx, ny, blocked }
    }

    fn cell(&self, x: f64, y: f64) -> (usize, usize) {
        let i = ((x / CELL_M).round().max(0.0) as usize).min(self.nx - 1);
        let j = ((y / CELL_M).round().max(0.0) as usize).min(self.ny - 1);
        (i, j)
    }

    /// Nearest free cell to a position (breadth-first ring search), used
    /// when a target sits against an inflated wall obstacle.
    fn nearest_free(&self, i: usize, j: usize) -> Option<(usize, usize)> {
        if !self.blocked[j * self.nx + i] {
            return Some((i, j));
        }
        for r in 1..(self.nx.max(self.ny)) {
            for dj in -(r as i64)..=(r as i64) {
                for di in -(r as i64)..=(r as i64) {
                    if di.abs().max(dj.abs()) != r as i64 {
                        continue;
                    }
                    let (ni, nj) = (i as i64 + di, j as i64 + dj);
                    if ni >= 0 && nj >= 0 && (ni as usize) < self.nx && (nj as usize) < self.ny {
                        let (ni, nj) = (ni as usize, nj as usize);
                        if !self.blocked[nj * self.nx + ni] {
                            return Some((ni, nj));
                        }
                    }
                }
            }
        }
        None
    }

    /// Plan a path from `from` to `to` (m). Returns waypoints including
    /// both endpoints, or `None` if no drivable route exists.
    pub(crate) fn plan(&self, from: (f64, f64), to: (f64, f64)) -> Option<Vec<(f64, f64)>> {
        let (si, sj) = {
            let (i, j) = self.cell(from.0, from.1);
            self.nearest_free(i, j)?
        };
        let (gi, gj) = {
            let (i, j) = self.cell(to.0, to.1);
            self.nearest_free(i, j)?
        };
        // A* with octile heuristic.
        #[derive(PartialEq)]
        struct Open {
            f: f64,
            idx: usize,
        }
        impl Eq for Open {}
        impl Ord for Open {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Min-heap on f.
                other
                    .f
                    .partial_cmp(&self.f)
                    .unwrap_or(std::cmp::Ordering::Equal)
            }
        }
        impl PartialOrd for Open {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let idx = |i: usize, j: usize| j * self.nx + i;
        let h = |i: usize, j: usize| {
            let dx = (i as f64 - gi as f64).abs();
            let dy = (j as f64 - gj as f64).abs();
            let (a, b) = if dx > dy { (dx, dy) } else { (dy, dx) };
            (a - b) + b * std::f64::consts::SQRT_2
        };
        let n = self.nx * self.ny;
        let mut g = vec![f64::INFINITY; n];
        let mut parent = vec![usize::MAX; n];
        let mut heap = BinaryHeap::new();
        g[idx(si, sj)] = 0.0;
        heap.push(Open {
            f: h(si, sj),
            idx: idx(si, sj),
        });
        while let Some(Open { idx: cur, .. }) = heap.pop() {
            if cur == idx(gi, gj) {
                // Reconstruct.
                let mut path = Vec::new();
                let mut c = cur;
                while c != usize::MAX {
                    let (i, j) = (c % self.nx, c / self.nx);
                    path.push((i as f64 * CELL_M, j as f64 * CELL_M));
                    c = parent[c];
                }
                path.reverse();
                // Pin exact endpoints.
                if let Some(first) = path.first_mut() {
                    *first = from;
                }
                if let Some(last) = path.last_mut() {
                    *last = to;
                }
                return Some(path);
            }
            let (ci, cj) = (cur % self.nx, cur / self.nx);
            for dj in -1i64..=1 {
                for di in -1i64..=1 {
                    if di == 0 && dj == 0 {
                        continue;
                    }
                    let (ni, nj) = (ci as i64 + di, cj as i64 + dj);
                    if ni < 0 || nj < 0 || ni as usize >= self.nx || nj as usize >= self.ny {
                        continue;
                    }
                    let (ni, nj) = (ni as usize, nj as usize);
                    if self.blocked[idx(ni, nj)] {
                        continue;
                    }
                    let step = if di != 0 && dj != 0 {
                        std::f64::consts::SQRT_2
                    } else {
                        1.0
                    };
                    let cand = g[cur] + step;
                    if cand < g[idx(ni, nj)] {
                        g[idx(ni, nj)] = cand;
                        parent[idx(ni, nj)] = cur;
                        heap.push(Open {
                            f: cand + h(ni, nj),
                            idx: idx(ni, nj),
                        });
                    }
                }
            }
        }
        None
    }

    /// Length of a waypoint path (m).
    pub(crate) fn path_length_m(path: &[(f64, f64)]) -> f64 {
        path.windows(2)
            .map(|w| ((w[1].0 - w[0].0).powi(2) + (w[1].1 - w[0].1).powi(2)).sqrt())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_cfd::mesh::CanopyBlock;

    fn planner() -> RoutePlanner {
        RoutePlanner::from_domain(&DomainSpec::cups_default())
    }

    /// The grid `from_domain` built before it filled index rectangles:
    /// every grid point tested against every inflated block.
    fn scanned(spec: &DomainSpec) -> RoutePlanner {
        let nx = (spec.size_m[0] / CELL_M).ceil() as usize + 1;
        let ny = (spec.size_m[1] / CELL_M).ceil() as usize + 1;
        let mut blocked = vec![false; nx * ny];
        for j in 0..ny {
            for i in 0..nx {
                let x = i as f64 * CELL_M;
                let y = j as f64 * CELL_M;
                let hit = spec.canopy.iter().any(|c: &CanopyBlock| {
                    x >= c.min[0] - INFLATE_M
                        && x <= c.max[0] + INFLATE_M
                        && y >= c.min[1] - INFLATE_M
                        && y <= c.max[1] + INFLATE_M
                });
                blocked[j * nx + i] = hit;
            }
        }
        RoutePlanner { nx, ny, blocked }
    }

    #[test]
    fn filled_rectangles_match_the_point_scan() {
        let cups = DomainSpec::cups_default();
        assert_eq!(RoutePlanner::from_domain(&cups), scanned(&cups));
        // Domains of 1–61 m and blocks drawn from 30 % before a domain's
        // start to 30 % past its end, up to 8 m wide or tall, or of zero
        // or negative width. Three draws in four snap to a half-metre
        // lattice, so inflated edges land on grid points and between them.
        let mut z = 0x9E37_79B9_7F4A_7C15u64;
        let mut unit = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            ((z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..400 {
            let snap = |x: f64| {
                if case % 4 == 3 {
                    x
                } else {
                    (x * 2.0).round() / 2.0
                }
            };
            let size_m = [1.0 + 60.0 * unit(), 1.0 + 50.0 * unit(), 8.0];
            let canopy = (0..case % 6)
                .map(|_| {
                    let x0 = snap(size_m[0] * (1.6 * unit() - 0.3));
                    let y0 = snap(size_m[1] * (1.6 * unit() - 0.3));
                    let w = snap(if case % 5 == 0 {
                        0.0
                    } else {
                        10.0 * unit() - 2.0
                    });
                    let h = snap(10.0 * unit() - 2.0);
                    CanopyBlock {
                        min: [x0, y0, 0.0],
                        max: [x0 + w, y0 + h, 3.0],
                    }
                })
                .collect();
            let spec = DomainSpec {
                size_m,
                cells: [10, 10, 4],
                canopy,
            };
            assert_eq!(RoutePlanner::from_domain(&spec), scanned(&spec), "{spec:?}");
        }
        let mut spec = DomainSpec::cups_default();
        for (min, max) in [(f64::NAN, 10.0), (10.0, f64::NAN)] {
            spec.canopy[0].min[0] = min;
            spec.canopy[0].max[0] = max;
            assert_eq!(RoutePlanner::from_domain(&spec), scanned(&spec), "{spec:?}");
        }
    }

    #[test]
    fn open_field_is_straightish() {
        let spec = DomainSpec {
            size_m: [100.0, 100.0, 8.0],
            cells: [10, 10, 4],
            canopy: vec![],
        };
        let p = RoutePlanner::from_domain(&spec);
        let path = p.plan((0.0, 0.0), (100.0, 100.0)).expect("open field");
        let len = RoutePlanner::path_length_m(&path);
        let straight = (2.0f64).sqrt() * 100.0;
        assert!(len <= straight * 1.1, "len {len} vs straight {straight}");
    }

    #[test]
    fn tree_rows_are_avoided() {
        let p = planner();
        let is_blocked = |x, y| {
            let (i, j) = p.cell(x, y);
            p.blocked[j * p.nx + i]
        };
        // Between rows x=8..12 at y=50: interior of a tree row is blocked.
        assert!(is_blocked(10.0, 50.0));
        // Aisle at x=6 (rows start at 8, inflated to 7): drivable.
        assert!(!is_blocked(5.0, 50.0));
        // A path across the orchard must exist (via the perimeter or
        // aisles) and never touch a blocked cell.
        let path = p.plan((2.0, 2.0), (118.0, 98.0)).expect("route exists");
        for &(x, y) in &path[1..path.len() - 1] {
            assert!(!is_blocked(x, y), "waypoint ({x},{y}) in canopy");
        }
    }

    #[test]
    fn detour_longer_than_crow_flies() {
        let p = planner();
        // Crossing all the rows east-west mid-field forces aisle detours
        // (rows span y = 4..96, so the route goes around or along them).
        let from = (2.0, 50.0);
        let to = (118.0, 50.0);
        let path = p.plan(from, to).expect("route exists");
        let len = RoutePlanner::path_length_m(&path);
        let straight = 116.0;
        assert!(len > straight, "detour required: {len} vs {straight}");
    }

    #[test]
    fn target_inside_canopy_resolves_to_nearest_aisle() {
        let p = planner();
        // Aim straight into a tree row: the planner still returns a path
        // ending at the requested coordinates (pinned), with the approach
        // through free space.
        let path = p.plan((2.0, 2.0), (10.0, 50.0)).expect("resolvable");
        assert_eq!(*path.last().unwrap(), (10.0, 50.0));
    }

    #[test]
    fn path_length_of_degenerate_paths() {
        assert_eq!(RoutePlanner::path_length_m(&[]), 0.0);
        assert_eq!(RoutePlanner::path_length_m(&[(1.0, 1.0)]), 0.0);
        let l = RoutePlanner::path_length_m(&[(0.0, 0.0), (3.0, 4.0)]);
        assert!((l - 5.0).abs() < 1e-12);
    }
}

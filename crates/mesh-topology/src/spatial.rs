//! Spatial hashing for geometric topologies.
//!
//! A [`CellGrid`] buckets node positions into square cells of a chosen
//! size so "who is within `r` meters of (x, y)?" touches only the cells
//! overlapping that disc — O(points-in-cells) instead of a scan over all
//! `n` nodes. The geometric generators use it for minimum-separation
//! checks and candidate-link enumeration; the simulator's `Medium` uses
//! it to find carrier-sense/interference-range pairs.
//!
//! Determinism contract: queries visit cells in row-major order and, in
//! each cell, points in insertion order. Callers that feed results into
//! anything RNG-bearing must therefore either insert in ascending node id
//! and tolerate cell-major order, or sort the candidate set — the
//! topology/medium builders do the latter, so neighbor iteration order is
//! always sorted-by-`NodeId` regardless of geometry.
//!
//! The grid is strictly 2D (ground-plane x/y). Floors add vertical
//! distance, which can only *grow* a 3D separation, so a 2D query with a
//! 3D radius returns a superset of the true 3D neighborhood — callers do
//! the exact distance check on the candidates. Generators that need
//! same-floor queries keep one grid per floor.

#![expect(
    clippy::indexing_slicing,
    reason = "the cells vector is sized rows*cols at construction and every cell coordinate passes through cell_of, which clamps into 0..cols-1 x 0..rows-1."
)]

use crate::Position;

/// A uniform grid over a rectangle, bucketing point ids by cell.
///
/// Coordinates outside the covered rectangle are clamped into the border
/// cells, so the grid never loses a point — worst case a border cell is
/// overfull and queries do a few extra exact checks.
#[derive(Clone, Debug)]
#[must_use = "a cell grid does nothing until queried"]
pub struct CellGrid {
    cell: f64,
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    /// Row-major `rows × cols` buckets of point ids, insertion-ordered.
    cells: Vec<Vec<u32>>,
}

impl CellGrid {
    /// An empty grid covering `[min_x, max_x] × [min_y, max_y]` with
    /// square cells of side `cell` (clamped to a sane minimum).
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64, cell: f64) -> Self {
        let cell = if cell.is_finite() && cell > 1e-9 {
            cell
        } else {
            1.0
        };
        let span = |lo: f64, hi: f64| {
            if hi > lo {
                ((hi - lo) / cell).floor() as usize + 1
            } else {
                1
            }
        };
        let cols = span(min_x, max_x);
        let rows = span(min_y, max_y);
        CellGrid {
            cell,
            min_x,
            min_y,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
        }
    }

    /// A grid covering the bounding box of `positions`, with every point
    /// inserted under its index (ascending, so buckets are id-sorted).
    pub fn from_positions(positions: &[Position], cell: f64) -> Self {
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for p in positions {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        if positions.is_empty() {
            min_x = 0.0;
            min_y = 0.0;
            max_x = 0.0;
            max_y = 0.0;
        }
        let mut grid = CellGrid::new(min_x, min_y, max_x, max_y, cell);
        for (i, p) in positions.iter().enumerate() {
            grid.insert(i as u32, p.x, p.y);
        }
        grid
    }

    /// Cell coordinates for a point, clamped into the grid.
    #[inline]
    fn cell_of(&self, x: f64, y: f64) -> (usize, usize) {
        let cx = ((x - self.min_x) / self.cell).floor();
        let cy = ((y - self.min_y) / self.cell).floor();
        let clamp = |v: f64, hi: usize| (v.max(0.0) as usize).min(hi - 1);
        (clamp(cx, self.cols), clamp(cy, self.rows))
    }

    /// Adds a point id at `(x, y)`.
    pub fn insert(&mut self, id: u32, x: f64, y: f64) {
        let (cx, cy) = self.cell_of(x, y);
        self.cells[cy * self.cols + cx].push(id);
    }

    /// Visits every id bucketed in a cell that intersects the axis-aligned
    /// square of half-width `radius` around `(x, y)` — a superset of all
    /// points within `radius` of the query point. Cells are visited in
    /// row-major order, points in insertion order; the caller applies the
    /// exact distance predicate.
    pub fn for_each_candidate(&self, x: f64, y: f64, radius: f64, mut f: impl FnMut(u32)) {
        let (cx0, cy0) = self.cell_of(x - radius, y - radius);
        let (cx1, cy1) = self.cell_of(x + radius, y + radius);
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                for &id in &self.cells[cy * self.cols + cx] {
                    f(id);
                }
            }
        }
    }

    /// All candidate ids for a query disc, ascending and deduplicated
    /// (each id is bucketed once, so sorting suffices).
    pub fn candidates(&self, x: f64, y: f64, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_candidate(x, y, radius, |id| out.push(id));
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn finds_all_points_within_radius() {
        let pts: Vec<Position> = (0..100)
            .map(|i| Position {
                x: (i % 10) as f64 * 7.0,
                y: (i / 10) as f64 * 7.0,
                floor: 0,
            })
            .collect();
        let grid = CellGrid::from_positions(&pts, 10.0);
        for (qi, q) in pts.iter().enumerate() {
            let cand = grid.candidates(q.x, q.y, 15.0);
            // Every point truly within the radius must be a candidate.
            for (i, p) in pts.iter().enumerate() {
                let d = ((p.x - q.x).powi(2) + (p.y - q.y).powi(2)).sqrt();
                if d <= 15.0 {
                    assert!(
                        cand.binary_search(&(i as u32)).is_ok(),
                        "query {qi} missed point {i} at distance {d:.1}"
                    );
                }
            }
        }
    }

    #[test]
    fn candidates_are_sorted_and_bounded() {
        let pts: Vec<Position> = (0..50)
            .map(|i| Position {
                x: (i as f64 * 13.7) % 100.0,
                y: (i as f64 * 29.3) % 80.0,
                floor: i % 3,
            })
            .collect();
        let grid = CellGrid::from_positions(&pts, 12.0);
        let cand = grid.candidates(50.0, 40.0, 12.0);
        assert!(cand.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
        // The candidate square has side 2r + 2·cell at most: nothing
        // farther than the covered cells may appear.
        for &id in &cand {
            let p = &pts[id as usize];
            assert!((p.x - 50.0).abs() <= 12.0 + 2.0 * 12.0);
            assert!((p.y - 40.0).abs() <= 12.0 + 2.0 * 12.0);
        }
    }

    #[test]
    fn out_of_bounds_queries_clamp() {
        let pts = vec![
            Position {
                x: 0.0,
                y: 0.0,
                floor: 0,
            },
            Position {
                x: 5.0,
                y: 5.0,
                floor: 0,
            },
        ];
        let grid = CellGrid::from_positions(&pts, 4.0);
        // A query far outside the box still terminates and sees the
        // border cells.
        let cand = grid.candidates(-100.0, -100.0, 150.0);
        assert_eq!(cand, vec![0, 1]);
        // The far corner clamps to the border cell too: it terminates
        // and can only ever report real point ids.
        assert!(grid.candidates(1e9, 1e9, 1.0).iter().all(|&id| id < 2));
    }

    #[test]
    fn empty_and_degenerate_extents() {
        let grid = CellGrid::from_positions(&[], 10.0);
        assert!(grid.candidates(0.0, 0.0, 5.0).is_empty());
        let one = CellGrid::from_positions(
            &[Position {
                x: 3.0,
                y: 3.0,
                floor: 0,
            }],
            10.0,
        );
        assert_eq!(one.candidates(3.0, 3.0, 1.0), vec![0]);
    }

    #[test]
    fn incremental_insertion_matches_bulk() {
        let pts: Vec<Position> = (0..20)
            .map(|i| Position {
                x: i as f64 * 3.0,
                y: (i * i % 17) as f64,
                floor: 0,
            })
            .collect();
        let bulk = CellGrid::from_positions(&pts, 8.0);
        let mut inc = CellGrid::new(0.0, 0.0, 57.0, 16.0, 8.0);
        for (i, p) in pts.iter().enumerate() {
            inc.insert(i as u32, p.x, p.y);
        }
        for q in &pts {
            assert_eq!(
                bulk.candidates(q.x, q.y, 9.0),
                inc.candidates(q.x, q.y, 9.0)
            );
        }
    }
}

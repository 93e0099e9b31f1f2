//! Node positions and placement helpers.
//!
//! The paper's evaluation places nodes "at random locations in our testbed"
//! (Fig. 11, a ~30 m office floor). We reproduce that with seeded random
//! placements inside a rectangular floor plan.

use rand::Rng;

/// Speed of light in metres per second.
pub const SPEED_OF_LIGHT_M_S: f64 = 299_792_458.0;

/// A 2-D position in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// x coordinate, metres.
    pub x: f64,
    /// y coordinate, metres.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    pub const fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position, metres.
    pub fn distance_m(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Line-of-flight propagation delay to another position, femtoseconds.
    pub fn propagation_delay_fs(&self, other: &Position) -> u64 {
        (self.distance_m(other) / SPEED_OF_LIGHT_M_S * 1e15).round() as u64
    }
}

/// A rectangular floor plan for random placements.
#[derive(Debug, Clone, Copy)]
pub struct FloorPlan {
    /// Width in metres.
    pub width_m: f64,
    /// Depth in metres.
    pub depth_m: f64,
}

impl FloorPlan {
    /// The testbed-like default: a 30 m × 20 m office floor.
    pub fn testbed() -> Self {
        FloorPlan {
            width_m: 30.0,
            depth_m: 20.0,
        }
    }

    /// Draws a uniformly random position on the floor.
    pub fn random_position<R: Rng + ?Sized>(&self, rng: &mut R) -> Position {
        Position::new(
            rng.gen_range(0.0..self.width_m),
            rng.gen_range(0.0..self.depth_m),
        )
    }

    /// Draws a position at least `min_m` and at most `max_m` away from
    /// `anchor` (rejection sampling; falls back to the closest valid ring
    /// point after 1000 attempts).
    pub fn random_position_near<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        anchor: Position,
        min_m: f64,
        max_m: f64,
    ) -> Position {
        for _ in 0..1000 {
            let p = self.random_position(rng);
            let d = p.distance_m(&anchor);
            if d >= min_m && d <= max_m {
                return p;
            }
        }
        // Fallback: a point on the ring at mid radius, clamped to the floor.
        let r = (min_m + max_m) / 2.0;
        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
        Position::new(
            (anchor.x + r * theta.cos()).clamp(0.0, self.width_m),
            (anchor.y + r * theta.sin()).clamp(0.0, self.depth_m),
        )
    }
}

/// A city laid out as a rectangular grid of square blocks separated by
/// streets: `blocks_x × blocks_y` blocks of `block_m` side, with `street_m`
/// of dead space between adjacent blocks and `nodes_per_block` radios
/// placed uniformly inside each block.
///
/// With streets wider than the interference range, each block is an
/// interference-closed region by construction — the placement behind the
/// city-scale testbed's spatial partitioning.
#[derive(Debug, Clone, Copy)]
pub struct CityPlan {
    /// Blocks along x.
    pub blocks_x: usize,
    /// Blocks along y.
    pub blocks_y: usize,
    /// Block side, metres.
    pub block_m: f64,
    /// Street width between adjacent blocks, metres.
    pub street_m: f64,
    /// Radios per block.
    pub nodes_per_block: usize,
}

impl CityPlan {
    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.blocks_x * self.blocks_y * self.nodes_per_block
    }

    /// Block pitch (block + street), metres.
    pub fn pitch_m(&self) -> f64 {
        self.block_m + self.street_m
    }

    /// Draws every node position, block-major (all of block (0,0) first,
    /// then (1,0), … row by row), uniform inside each block. Node
    /// `b·nodes_per_block + k` is the k-th radio of block `b`.
    pub fn positions<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Position> {
        let mut out = Vec::with_capacity(self.node_count());
        for by in 0..self.blocks_y {
            for bx in 0..self.blocks_x {
                let x0 = bx as f64 * self.pitch_m();
                let y0 = by as f64 * self.pitch_m();
                for _ in 0..self.nodes_per_block {
                    out.push(Position::new(
                        x0 + rng.gen_range(0.0..self.block_m),
                        y0 + rng.gen_range(0.0..self.block_m),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distance_and_delay() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance_m(&b) - 5.0).abs() < 1e-12);
        // 5 m ≈ 16.68 ns = 16_678_205 fs.
        let d = a.propagation_delay_fs(&b);
        assert!((d as f64 - 5.0 / SPEED_OF_LIGHT_M_S * 1e15).abs() < 1.0);
        assert!(d > 16_000_000 && d < 17_000_000);
    }

    #[test]
    fn placements_inside_floor() {
        let plan = FloorPlan::testbed();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let p = plan.random_position(&mut rng);
            assert!(p.x >= 0.0 && p.x <= plan.width_m);
            assert!(p.y >= 0.0 && p.y <= plan.depth_m);
        }
    }

    #[test]
    fn near_placement_respects_ring() {
        let plan = FloorPlan::testbed();
        let mut rng = StdRng::seed_from_u64(2);
        let anchor = Position::new(15.0, 10.0);
        for _ in 0..50 {
            let p = plan.random_position_near(&mut rng, anchor, 5.0, 10.0);
            let d = p.distance_m(&anchor);
            assert!((4.9..=10.1).contains(&d), "distance {d}");
        }
    }

    #[test]
    fn near_placement_fallback_terminates() {
        // Impossible ring (outside the floor) must still return something.
        let plan = FloorPlan {
            width_m: 1.0,
            depth_m: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let p = plan.random_position_near(&mut rng, Position::new(0.5, 0.5), 10.0, 20.0);
        assert!(p.x >= 0.0 && p.x <= 1.0 && p.y >= 0.0 && p.y <= 1.0);
    }

    #[test]
    fn city_plan_places_nodes_inside_their_blocks() {
        let plan = CityPlan {
            blocks_x: 3,
            blocks_y: 2,
            block_m: 20.0,
            street_m: 100.0,
            nodes_per_block: 4,
        };
        assert_eq!(plan.node_count(), 24);
        assert_eq!(plan.pitch_m(), 120.0);
        let mut rng = StdRng::seed_from_u64(9);
        let positions = plan.positions(&mut rng);
        assert_eq!(positions.len(), 24);
        for (i, p) in positions.iter().enumerate() {
            let block = i / plan.nodes_per_block;
            let (bx, by) = (block % plan.blocks_x, block / plan.blocks_x);
            let (x0, y0) = (bx as f64 * plan.pitch_m(), by as f64 * plan.pitch_m());
            assert!(
                p.x >= x0 && p.x <= x0 + plan.block_m,
                "node {i} x={} outside block {block}",
                p.x
            );
            assert!(p.y >= y0 && p.y <= y0 + plan.block_m, "node {i} off-block");
        }
        // Any same-block pair is closer than any cross-block pair when
        // streets dwarf blocks: the closure precondition.
        let same = positions[0].distance_m(&positions[3]);
        let cross = positions[0].distance_m(&positions[4]);
        assert!(same < 20.0 * std::f64::consts::SQRT_2 + 1e-9);
        assert!(cross > plan.street_m - 2.0 * plan.block_m);
    }

    #[test]
    fn zero_distance() {
        let a = Position::new(1.0, 1.0);
        assert_eq!(a.distance_m(&a), 0.0);
        assert_eq!(a.propagation_delay_fs(&a), 0);
    }
}

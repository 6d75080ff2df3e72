//! Tile-selection policies.
//!
//! All three policies serve jobs in admission (arrival) order; they
//! differ only in which tile a job lands on and whether the tile's
//! wear ledger rotates:
//!
//! * [`Policy::Fifo`] — earliest-available tile, lowest id on ties.
//!   The baseline: work-conserving, wear-oblivious.
//! * [`Policy::LeastLoaded`] — tile with the fewest accumulated
//!   stage-occupancy cycles. Balances *lifetime load* rather than
//!   instantaneous availability, which evens utilization under mixed
//!   job widths.
//! * [`Policy::WearLeveling`] — among the earliest-available tiles,
//!   the one with the lowest accumulated per-cell wear; the tile also
//!   rotates its row offsets between jobs. Start cycles are chosen
//!   from the same earliest-available frontier as FIFO, so makespan is
//!   preserved while hot-cell wear drops by the rotation factor.

use crate::tile::Tile;

/// Tile-selection policy for the farm scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Earliest-available tile, lowest id on ties.
    Fifo,
    /// Tile with the fewest accumulated busy cycles.
    LeastLoaded,
    /// Earliest-available tile with the lowest wear; rotates row
    /// offsets inside the tile.
    WearLeveling,
}

impl Policy {
    /// All policies, in presentation order.
    pub fn all() -> [Policy; 3] {
        [Policy::Fifo, Policy::LeastLoaded, Policy::WearLeveling]
    }

    /// Short label used in tables and bench names.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::LeastLoaded => "least-loaded",
            Policy::WearLeveling => "wear-level",
        }
    }

    /// Whether tiles rotate their wear ledger under this policy.
    pub fn rotates(self) -> bool {
        matches!(self, Policy::WearLeveling)
    }

    /// Picks the tile for a job arriving at `arrival`.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is empty.
    pub fn pick(self, tiles: &[Tile], arrival: u64) -> usize {
        assert!(!tiles.is_empty(), "farm needs at least one tile");
        match self {
            Policy::Fifo => tiles
                .iter()
                .min_by_key(|t| (t.earliest_start(arrival), t.id()))
                .expect("non-empty")
                .id(),
            Policy::LeastLoaded => tiles
                .iter()
                .min_by_key(|t| (t.busy_cycles(), t.id()))
                .expect("non-empty")
                .id(),
            Policy::WearLeveling => tiles
                .iter()
                .min_by_key(|t| (t.earliest_start(arrival), t.max_cell_writes(), t.id()))
                .expect("non-empty")
                .id(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Algo, Job};
    use crate::profile::JobProfile;

    fn farm(n: usize) -> Vec<Tile> {
        (0..n).map(|i| Tile::new(i, 8)).collect()
    }

    #[test]
    fn fifo_prefers_idle_tiles_in_id_order() {
        let mut tiles = farm(3);
        let profile = JobProfile::karatsuba_analytic(256);
        let job = Job {
            id: 0,
            width: 256,
            algo: Algo::Karatsuba,
            arrival: 0,
        };
        assert_eq!(Policy::Fifo.pick(&tiles, 0), 0);
        tiles[0].place(&job, &profile, false);
        assert_eq!(Policy::Fifo.pick(&tiles, 0), 1);
    }

    #[test]
    fn least_loaded_tracks_busy_cycles() {
        let mut tiles = farm(2);
        let big = JobProfile::karatsuba_analytic(2048);
        let job = Job {
            id: 0,
            width: 2048,
            algo: Algo::Karatsuba,
            arrival: 0,
        };
        tiles[0].place(&job, &big, false);
        assert_eq!(Policy::LeastLoaded.pick(&tiles, 0), 1);
    }

    #[test]
    fn wear_leveling_breaks_ties_by_wear() {
        let mut tiles = farm(2);
        let profile = JobProfile::karatsuba_analytic(256);
        let job = Job {
            id: 0,
            width: 256,
            algo: Algo::Karatsuba,
            arrival: 0,
        };
        tiles[0].place(&job, &profile, true);
        // Both tiles are free far in the future; tile 1 has no wear.
        let later = tiles[0].drained_at();
        assert_eq!(Policy::WearLeveling.pick(&tiles, later), 1);
    }
}

//! Width-bucketed batching: admitted requests accumulate into
//! per-width-class batches that flush to a farm when full or stale.
//!
//! The CIM farms serve fixed-width multiplier tiles, so a batch only
//! mixes requests of one operand width class (operand width rounded up
//! to the next multiple of [`WIDTH_GRANULE`]). A batch flushes when
//! its expanded farm-job count reaches `max_jobs` (enough work to keep
//! a farm's tiles busy) or when a newer arrival finds it older than
//! `max_wait_cycles` (bounding the queueing latency batching can add).
//! Like admission, all staleness math runs on virtual cycle stamps, so
//! batch composition is a deterministic function of the trace.

use crate::protocol::Request;
use std::collections::BTreeMap;

/// Width-class rounding granule in bits.
pub const WIDTH_GRANULE: usize = 64;

/// Rounds an operand width up to its batching class: the next
/// multiple of [`WIDTH_GRANULE`], at least one granule.
pub fn width_class(width: usize) -> usize {
    width.div_ceil(WIDTH_GRANULE).max(1) * WIDTH_GRANULE
}

/// Batching parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Flush a batch once its expanded farm-job count reaches this.
    pub max_jobs: u64,
    /// Flush a batch when a newer arrival finds it older than this.
    pub max_wait_cycles: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_jobs: 4096,
            max_wait_cycles: 2_000_000,
        }
    }
}

/// One admitted request waiting in a batch, with its expanded cost.
#[derive(Debug, Clone)]
pub struct PendingRequest {
    /// Server-side admission sequence number — unique per engine,
    /// unlike the client-chosen request id, so completions can be
    /// routed back to the submitting connection.
    pub seq: u64,
    /// The request as admitted.
    pub request: Request,
    /// Farm-job (multiplier-pass) count this request expands to.
    pub jobs: u64,
}

/// A flush-ready batch of same-width-class requests.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Operand width class of every member.
    pub width: usize,
    /// Members in admission order.
    pub requests: Vec<PendingRequest>,
    /// Arrival cycle of the oldest member.
    pub opened_at: u64,
    /// Sum of the members' farm-job counts.
    pub total_jobs: u64,
}

impl Batch {
    /// Earliest cycle the batch can start on a farm: every member
    /// must have arrived.
    pub fn ready_at(&self) -> u64 {
        self.requests
            .iter()
            .map(|p| p.request.arrival_cycle)
            .max()
            .unwrap_or(self.opened_at)
    }
}

/// The batching stage: one open batch per width class.
#[derive(Debug, Default)]
pub struct Batcher {
    config: BatchConfig,
    open: BTreeMap<usize, Batch>,
}

impl Batcher {
    /// A batcher with the given flush thresholds.
    pub fn new(config: BatchConfig) -> Self {
        Batcher {
            config,
            open: BTreeMap::new(),
        }
    }

    /// Requests currently waiting across all open batches.
    pub fn pending(&self) -> usize {
        self.open.values().map(|b| b.requests.len()).sum()
    }

    /// Adds an admitted request (costing `jobs` farm jobs) arriving at
    /// `now`, and returns every batch this arrival caused to flush:
    /// first any batches staled past `max_wait_cycles`, then the
    /// request's own batch if it reached `max_jobs`.
    pub fn push(&mut self, seq: u64, request: Request, jobs: u64, now: u64) -> Vec<Batch> {
        let mut flushed = self.take_stale(now);
        let class = width_class(request.op.width());
        let batch = self.open.entry(class).or_insert_with(|| Batch {
            width: class,
            requests: Vec::new(),
            opened_at: now,
            total_jobs: 0,
        });
        batch.total_jobs += jobs;
        batch.requests.push(PendingRequest { seq, request, jobs });
        if batch.total_jobs >= self.config.max_jobs {
            flushed.push(self.open.remove(&class).expect("batch just filled"));
        }
        flushed
    }

    /// Flushes every open batch older than `max_wait_cycles` at `now`
    /// (width-class order, deterministic).
    pub fn take_stale(&mut self, now: u64) -> Vec<Batch> {
        let stale: Vec<usize> = self
            .open
            .iter()
            .filter(|(_, b)| now.saturating_sub(b.opened_at) > self.config.max_wait_cycles)
            .map(|(&w, _)| w)
            .collect();
        stale
            .into_iter()
            .map(|w| self.open.remove(&w).expect("key just listed"))
            .collect()
    }

    /// Flushes everything (end of stream).
    pub fn drain(&mut self) -> Vec<Batch> {
        let widths: Vec<usize> = self.open.keys().copied().collect();
        widths
            .into_iter()
            .map(|w| self.open.remove(&w).expect("key just listed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Op;
    use cim_bigint::Uint;

    fn req(id: u64, width: usize, arrival: u64) -> Request {
        Request {
            id,
            tenant: 0,
            arrival_cycle: arrival,
            op: Op::Mul {
                width,
                a: Uint::one(),
                b: Uint::one(),
            },
        }
    }

    #[test]
    fn width_classes_round_up() {
        assert_eq!(width_class(4), 64);
        assert_eq!(width_class(64), 64);
        assert_eq!(width_class(256), 256);
        assert_eq!(width_class(381), 384);
        assert_eq!(width_class(385), 448);
    }

    #[test]
    fn flushes_on_job_count() {
        let mut b = Batcher::new(BatchConfig {
            max_jobs: 3,
            max_wait_cycles: u64::MAX,
        });
        assert!(b.push(0, req(0, 256, 0), 1, 0).is_empty());
        assert!(b.push(1, req(1, 256, 1), 1, 1).is_empty());
        let out = b.push(2, req(2, 256, 2), 1, 2);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].requests.len(), 3);
        assert_eq!(out[0].total_jobs, 3);
        assert_eq!(out[0].width, 256);
        assert_eq!(out[0].ready_at(), 2);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn one_heavy_request_flushes_alone() {
        let mut b = Batcher::new(BatchConfig {
            max_jobs: 100,
            max_wait_cycles: u64::MAX,
        });
        let out = b.push(0, req(0, 256, 0), 500, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].total_jobs, 500);
    }

    #[test]
    fn widths_do_not_mix() {
        let mut b = Batcher::new(BatchConfig {
            max_jobs: 2,
            max_wait_cycles: u64::MAX,
        });
        assert!(b.push(0, req(0, 256, 0), 1, 0).is_empty());
        assert!(b.push(1, req(1, 384, 0), 1, 0).is_empty());
        assert_eq!(b.pending(), 2);
        let out = b.push(2, req(2, 256, 0), 1, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].width, 256);
        assert_eq!(b.pending(), 1);
    }

    #[test]
    fn staleness_flushes_old_batches() {
        let mut b = Batcher::new(BatchConfig {
            max_jobs: 1000,
            max_wait_cycles: 100,
        });
        assert!(b.push(0, req(0, 256, 0), 1, 0).is_empty());
        // At cycle 101 the open 256-batch is stale; the new 384
        // arrival flushes it and opens its own class.
        let out = b.push(1, req(1, 384, 101), 1, 101);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].width, 256);
        assert_eq!(b.pending(), 1);
    }

    #[test]
    fn drain_empties_everything_in_width_order() {
        let mut b = Batcher::new(BatchConfig::default());
        b.push(0, req(0, 384, 0), 1, 0);
        b.push(1, req(1, 64, 0), 1, 0);
        b.push(2, req(2, 256, 0), 1, 0);
        let out = b.drain();
        let widths: Vec<usize> = out.iter().map(|x| x.width).collect();
        assert_eq!(widths, vec![64, 256, 384]);
        assert_eq!(b.pending(), 0);
        assert!(b.drain().is_empty());
    }
}

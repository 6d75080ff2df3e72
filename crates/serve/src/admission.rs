//! Per-tenant admission control: token-bucket rate limiting plus a
//! bounded in-flight queue, both on the virtual cycle clock.
//!
//! Everything here runs on the cycle stamps requests carry
//! ([`crate::protocol::Request::arrival_cycle`]), never on wall time:
//! replaying a stamped trace reproduces exactly the same admit/shed
//! decisions, which is what lets the bench gate pin shed counts to an
//! integer. Token accounting is integer micro-tokens (1 request =
//! 10⁶ micro-tokens, refill = `elapsed_cycles × rate_per_mcc`), so
//! there is no float drift either.

use crate::protocol::ShedReason;

/// Micro-tokens per request (1 token, at 10⁶ micro-token resolution —
/// the same scale as the per-Mcycle rate, so refill math is exact).
const MICRO: u64 = 1_000_000;

/// Admission parameters of one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantConfig {
    /// Display name (metrics label).
    pub name: String,
    /// Sustained admission rate in requests per 10⁶ cycles.
    pub rate_per_mcc: u64,
    /// Bucket capacity in requests (burst allowance).
    pub burst: u64,
    /// Maximum admitted-but-not-yet-dispatched requests.
    pub queue_depth: usize,
}

impl TenantConfig {
    /// A tenant with the given name and rate, burst = rate, and a
    /// queue bounded at 4× the burst.
    pub fn new(name: impl Into<String>, rate_per_mcc: u64) -> Self {
        let name = name.into();
        TenantConfig {
            name,
            rate_per_mcc,
            burst: rate_per_mcc.max(1),
            queue_depth: 4 * rate_per_mcc.max(1) as usize,
        }
    }

    /// Overrides the burst capacity.
    pub fn with_burst(mut self, burst: u64) -> Self {
        self.burst = burst;
        self
    }

    /// Overrides the queue depth.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }
}

/// A cycle-domain token bucket.
#[derive(Debug, Clone)]
struct TokenBucket {
    /// Micro-tokens currently available.
    micro: u64,
    /// Capacity in micro-tokens.
    capacity: u64,
    /// Refill rate in micro-tokens per cycle (= requests per Mcycle).
    rate: u64,
    /// Cycle of the last refill.
    last: u64,
}

impl TokenBucket {
    fn new(rate_per_mcc: u64, burst: u64) -> Self {
        let capacity = burst.saturating_mul(MICRO).max(MICRO);
        TokenBucket {
            micro: capacity,
            capacity,
            rate: rate_per_mcc,
            last: 0,
        }
    }

    /// Refills for the elapsed virtual time and takes one token if
    /// available. Time never runs backwards: a stamp before the last
    /// refill is treated as "now".
    fn try_take(&mut self, now: u64) -> bool {
        let now = now.max(self.last);
        let refill = (now - self.last).saturating_mul(self.rate);
        self.micro = self.micro.saturating_add(refill).min(self.capacity);
        self.last = now;
        if self.micro >= MICRO {
            self.micro -= MICRO;
            true
        } else {
            false
        }
    }
}

/// State of one tenant inside [`Admission`].
#[derive(Debug, Clone)]
struct TenantState {
    config: TenantConfig,
    bucket: TokenBucket,
    /// Admitted requests not yet released to a farm batch.
    queued: usize,
}

/// The admission controller: one token bucket and one bounded queue
/// counter per tenant.
#[derive(Debug, Clone)]
pub struct Admission {
    tenants: Vec<TenantState>,
}

impl Admission {
    /// Builds the controller for a fixed tenant table.
    pub fn new(configs: &[TenantConfig]) -> Self {
        Admission {
            tenants: configs
                .iter()
                .map(|c| TenantState {
                    bucket: TokenBucket::new(c.rate_per_mcc, c.burst),
                    config: c.clone(),
                    queued: 0,
                })
                .collect(),
        }
    }

    /// The configuration of tenant `t`, if defined.
    pub fn config(&self, t: usize) -> Option<&TenantConfig> {
        self.tenants.get(t).map(|s| &s.config)
    }

    /// Current admitted-but-undispatched count for tenant `t`.
    pub fn queued(&self, t: usize) -> usize {
        self.tenants.get(t).map_or(0, |s| s.queued)
    }

    /// Decides one request from tenant `t` arriving at cycle `now`.
    /// On admit the tenant's queue count grows by one; the caller must
    /// [`release`](Admission::release) it when the request leaves the
    /// batching stage.
    ///
    /// # Errors
    ///
    /// The applicable [`ShedReason`]. Rate is checked before queue
    /// space, so an over-rate burst sheds as `RateLimited` even when
    /// the queue is also full.
    pub fn admit(&mut self, t: usize, now: u64) -> Result<(), ShedReason> {
        let state = &mut self.tenants[t];
        if !state.bucket.try_take(now) {
            return Err(ShedReason::RateLimited);
        }
        if state.queued >= state.config.queue_depth {
            return Err(ShedReason::QueueFull);
        }
        state.queued += 1;
        Ok(())
    }

    /// Releases one previously admitted request of tenant `t` (its
    /// batch was dispatched to a farm).
    pub fn release(&mut self, t: usize) {
        let state = &mut self.tenants[t];
        debug_assert!(state.queued > 0, "release without admit");
        state.queued = state.queued.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_tenant(rate: u64, burst: u64, depth: usize) -> Admission {
        Admission::new(&[TenantConfig::new("t0", rate)
            .with_burst(burst)
            .with_queue_depth(depth)])
    }

    #[test]
    fn burst_then_rate_limit() {
        let mut adm = one_tenant(1, 3, 100);
        // The full burst admits at cycle 0 …
        for i in 0..3 {
            assert_eq!(adm.admit(0, 0), Ok(()), "burst request {i}");
        }
        // … then the bucket is dry at the same instant.
        assert_eq!(adm.admit(0, 0), Err(ShedReason::RateLimited));
        // One token refills per Mcycle at rate 1.
        assert_eq!(adm.admit(0, 999_999), Err(ShedReason::RateLimited));
        assert_eq!(adm.admit(0, 1_000_000), Ok(()));
        assert_eq!(adm.admit(0, 1_000_000), Err(ShedReason::RateLimited));
    }

    #[test]
    fn queue_bound_sheds_when_full() {
        let mut adm = one_tenant(1000, 1000, 2);
        assert_eq!(adm.admit(0, 0), Ok(()));
        assert_eq!(adm.admit(0, 0), Ok(()));
        assert_eq!(adm.admit(0, 0), Err(ShedReason::QueueFull));
        assert_eq!(adm.queued(0), 2);
        adm.release(0);
        assert_eq!(adm.admit(0, 0), Ok(()));
    }

    #[test]
    fn tenants_are_isolated() {
        let mut adm = Admission::new(&[
            TenantConfig::new("a", 1).with_burst(1),
            TenantConfig::new("b", 1).with_burst(1),
        ]);
        assert_eq!(adm.admit(0, 0), Ok(()));
        assert_eq!(adm.admit(0, 0), Err(ShedReason::RateLimited));
        // Tenant b's bucket is untouched by a's exhaustion.
        assert_eq!(adm.admit(1, 0), Ok(()));
    }

    #[test]
    fn decisions_replay_identically() {
        let arrivals: Vec<u64> = (0..200).map(|i| i * 137_000).collect();
        let run = |mut adm: Admission| -> Vec<bool> {
            arrivals
                .iter()
                .map(|&c| {
                    let ok = adm.admit(0, c).is_ok();
                    if ok && adm.queued(0) > 4 {
                        adm.release(0);
                    }
                    ok
                })
                .collect()
        };
        let a = run(one_tenant(3, 5, 64));
        let b = run(one_tenant(3, 5, 64));
        assert_eq!(a, b);
        assert!(a.iter().any(|x| *x) && a.iter().any(|x| !*x));
    }

    #[test]
    fn time_never_runs_backwards() {
        let mut adm = one_tenant(1, 1, 8);
        assert_eq!(adm.admit(0, 5_000_000), Ok(()));
        // An out-of-order (earlier) stamp neither panics nor refunds.
        assert_eq!(adm.admit(0, 1_000_000), Err(ShedReason::RateLimited));
    }
}

//! Columnar client cohort: the population of [`crate::client::Session`]
//! objects flattened into parallel arrays.
//!
//! At the paper's scale (1000 clients) the per-object representation in
//! [`crate::client`] is fine; at 100k–1M clients a million small heap
//! objects and a million pending think-timer events dominate the run.
//! [`ClientCohort`] keeps one dense column per session field plus a flat
//! fixed-capacity history ring per client, so a per-tick advance touches
//! a handful of cache lines and never allocates.
//!
//! Equivalence contract: every method draws from the RNG in exactly the
//! order [`crate::client::ClientPopulation`] does and mutates the same
//! logical state, so a cohort run is bit-identical to an oracle run.
//! The oracle stays in-tree and `tests/prop_cohort.rs` proves the
//! equivalence operation by operation over arbitrary seeds, mixes, and
//! failure sequences.

use crate::client::{RetryDecision, RetryPolicy, WorkloadMix};
use crate::interactions::Interaction;
use crate::transition::{Mix, NextAction, TransitionTable};
use cloudchar_simcore::{Dist, Sample, SimDuration, SimRng};

/// Per-client history depth, matching the oracle's 64-entry bound.
const HISTORY_CAP: usize = 64;

/// The emulated client population, stored column-wise.
///
/// Column `i` of every array belongs to client `i`. The per-client
/// browsing history is a flat ring (`hist`, `HISTORY_CAP` slots per
/// client) indexed by `hist_head`/`hist_len`, replicating the oracle's
/// bounded `Vec` push/pop/trim semantics without per-client allocation.
#[derive(Debug)]
pub struct ClientCohort {
    mix: Vec<Mix>,
    current: Vec<Interaction>,
    interactions: Vec<u64>,
    epoch: Vec<u64>,
    consecutive_failures: Vec<u32>,
    abandons: Vec<u64>,
    hist: Vec<Interaction>,
    hist_head: Vec<u8>,
    hist_len: Vec<u8>,
    browsing: TransitionTable,
    bidding: TransitionTable,
    think_browse: Dist,
    think_bid: Dist,
}

impl ClientCohort {
    /// Mean think time, as configured in the paper (7 s).
    pub const THINK_MEAN_S: f64 = 7.0;

    /// Create `n` clients split by `mix`.
    ///
    /// Draws one `chance(browsing_fraction)` per client in id order —
    /// the same stream consumption as the oracle's constructor.
    pub fn new(n: u32, mix: WorkloadMix, rng: &mut SimRng) -> Self {
        let n = n as usize;
        let entry = TransitionTable::entry();
        let mut mixes = Vec::with_capacity(n);
        for _ in 0..n {
            mixes.push(if rng.chance(mix.browsing_fraction) {
                Mix::Browsing
            } else {
                Mix::Bidding
            });
        }
        ClientCohort {
            mix: mixes,
            current: vec![entry; n],
            interactions: vec![0; n],
            epoch: vec![0; n],
            consecutive_failures: vec![0; n],
            abandons: vec![0; n],
            hist: vec![entry; n * HISTORY_CAP],
            hist_head: vec![0; n],
            // Every session starts with `[entry]` on its history stack.
            hist_len: vec![1; n],
            browsing: TransitionTable::browsing(),
            bidding: TransitionTable::bidding(),
            think_browse: Dist::exp(Self::THINK_MEAN_S),
            think_bid: Dist::exp(Self::THINK_MEAN_S * 1.25),
        }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.mix.len()
    }

    /// Whether the cohort is empty.
    pub fn is_empty(&self) -> bool {
        self.mix.is_empty()
    }

    /// Which mix table the client follows.
    pub fn mix_of(&self, id: u32) -> Mix {
        self.mix[id as usize]
    }

    /// Interactions completed by the client.
    pub fn interactions_of(&self, id: u32) -> u64 {
        self.interactions[id as usize]
    }

    /// The client's consecutive failed attempts at its current page.
    pub fn failures_of(&self, id: u32) -> u32 {
        self.consecutive_failures[id as usize]
    }

    /// Depth of the client's history stack (bounded by `HISTORY_CAP`).
    pub fn history_len(&self, id: u32) -> usize {
        self.hist_len[id as usize] as usize
    }

    /// The interaction the client will issue next.
    pub fn current_interaction(&self, id: u32) -> Interaction {
        self.current[id as usize]
    }

    /// Sample the think time before the client's next request.
    #[inline]
    pub fn think_time(&self, id: u32, rng: &mut SimRng) -> SimDuration {
        let d = match self.mix[id as usize] {
            Mix::Browsing => &self.think_browse,
            Mix::Bidding => &self.think_bid,
        };
        SimDuration::from_secs_f64(d.sample(rng).min(120.0))
    }

    /// Push `page` onto the client's history ring, evicting the oldest
    /// entry once the ring is full — the columnar equivalent of the
    /// oracle's `push` + `remove(0)` trim.
    fn hist_push(&mut self, i: usize, page: Interaction) {
        let head = self.hist_head[i] as usize;
        let len = self.hist_len[i] as usize;
        let base = i * HISTORY_CAP;
        if len < HISTORY_CAP {
            self.hist[base + (head + len) % HISTORY_CAP] = page;
            self.hist_len[i] = (len + 1) as u8;
        } else {
            self.hist[base + head] = page;
            self.hist_head[i] = ((head + 1) % HISTORY_CAP) as u8;
        }
    }

    /// Pop the top of the client's history ring and return the new top,
    /// or the entry page when the ring drains — the oracle's
    /// `pop` + `last().unwrap_or(entry)`.
    fn hist_pop_back(&mut self, i: usize) -> Interaction {
        let len = self.hist_len[i] as usize;
        if len > 0 {
            self.hist_len[i] = (len - 1) as u8;
        }
        let len = self.hist_len[i] as usize;
        if len == 0 {
            TransitionTable::entry()
        } else {
            let head = self.hist_head[i] as usize;
            self.hist[i * HISTORY_CAP + (head + len - 1) % HISTORY_CAP]
        }
    }

    /// Reset the client's history ring to `[entry]`.
    fn hist_reset(&mut self, i: usize) {
        self.hist_head[i] = 0;
        self.hist_len[i] = 1;
        self.hist[i * HISTORY_CAP] = TransitionTable::entry();
    }

    /// Record the completion of the client's current interaction and
    /// move it to its next page (one transition-table draw, exactly as
    /// the oracle's `advance`).
    #[inline]
    pub fn advance(&mut self, id: u32, rng: &mut SimRng) -> Interaction {
        let i = id as usize;
        let table = match self.mix[i] {
            Mix::Browsing => &self.browsing,
            Mix::Bidding => &self.bidding,
        };
        self.interactions[i] += 1;
        match table.next(self.current[i], rng) {
            NextAction::Goto(next) => {
                self.hist_push(i, next);
                self.current[i] = next;
            }
            NextAction::Back => {
                self.current[i] = self.hist_pop_back(i);
            }
            NextAction::End => {
                self.current[i] = TransitionTable::entry();
                self.hist_reset(i);
            }
        }
        self.current[i]
    }

    /// The client's current attempt epoch.
    pub fn epoch(&self, id: u32) -> u64 {
        self.epoch[id as usize]
    }

    /// Invalidate the client's outstanding attempt (timeout fired or it
    /// abandoned): wakeups and responses from earlier epochs must be
    /// dropped. Returns the new epoch.
    pub fn bump_epoch(&mut self, id: u32) -> u64 {
        let i = id as usize;
        self.epoch[i] += 1;
        self.epoch[i]
    }

    /// Record a successful response: the failure streak resets.
    pub fn on_success(&mut self, id: u32) {
        self.consecutive_failures[id as usize] = 0;
    }

    /// Record a failed attempt and decide what the client does next:
    /// capped exponential backoff with uniform jitter in `[0.5, 1.5)`,
    /// or abandonment (reset to the entry page) once
    /// `policy.abandon_after` consecutive attempts have failed. One
    /// jitter draw per call, exactly as the oracle.
    pub fn on_failure(&mut self, id: u32, policy: &RetryPolicy, rng: &mut SimRng) -> RetryDecision {
        let i = id as usize;
        self.consecutive_failures[i] += 1;
        let jitter = 0.5 + rng.f64();
        if self.consecutive_failures[i] >= policy.abandon_after {
            self.consecutive_failures[i] = 0;
            self.abandons[i] += 1;
            self.current[i] = TransitionTable::entry();
            self.hist_reset(i);
            RetryDecision::Abandon(SimDuration::from_secs_f64(policy.abandon_pause_s * jitter))
        } else {
            let exp = policy.backoff_base_s * 2f64.powi(self.consecutive_failures[i] as i32 - 1);
            let backoff = exp.min(policy.backoff_cap_s) * jitter;
            RetryDecision::RetryAfter(SimDuration::from_secs_f64(backoff))
        }
    }

    /// Total pages abandoned across the cohort.
    pub fn total_abandons(&self) -> u64 {
        self.abandons.iter().sum()
    }

    /// Count of clients currently following the browsing table.
    pub fn browsing_sessions(&self) -> usize {
        self.mix.iter().filter(|&&m| m == Mix::Browsing).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_matches_oracle_rng_stream() {
        use crate::client::ClientPopulation;
        let mut ra = SimRng::new(42);
        let mut rb = SimRng::new(42);
        let cohort = ClientCohort::new(500, WorkloadMix::percent_browsing(70), &mut ra);
        let oracle = ClientPopulation::new(500, WorkloadMix::percent_browsing(70), &mut rb);
        assert_eq!(cohort.len(), oracle.len());
        assert_eq!(cohort.browsing_sessions(), oracle.browsing_sessions());
        for id in 0..500 {
            assert_eq!(cohort.mix_of(id), oracle.session(id).mix);
        }
        // Both consumed the same number of draws.
        assert_eq!(ra.next_u64_raw(), rb.next_u64_raw());
    }

    #[test]
    fn history_ring_trims_like_bounded_vec() {
        let mut rng = SimRng::new(6);
        let mut c = ClientCohort::new(1, WorkloadMix::BROWSING, &mut rng);
        for _ in 0..100_000 {
            c.advance(0, &mut rng);
        }
        assert!(c.history_len(0) <= HISTORY_CAP);
    }

    #[test]
    fn back_from_drained_history_lands_on_entry() {
        let mut rng = SimRng::new(1);
        let mut c = ClientCohort::new(1, WorkloadMix::BROWSING, &mut rng);
        // Drain the stack manually: pop the initial entry, then pop again.
        assert_eq!(c.hist_pop_back(0), TransitionTable::entry());
        assert_eq!(c.history_len(0), 0);
        assert_eq!(c.hist_pop_back(0), TransitionTable::entry());
        assert_eq!(c.history_len(0), 0);
    }

    #[test]
    fn abandonment_resets_to_entry() {
        let mut rng = SimRng::new(8);
        let mut c = ClientCohort::new(1, WorkloadMix::BIDDING, &mut rng);
        for _ in 0..20 {
            c.advance(0, &mut rng);
        }
        let policy = RetryPolicy::default();
        let mut last = None;
        for _ in 0..policy.abandon_after {
            last = Some(c.on_failure(0, &policy, &mut rng));
        }
        assert!(matches!(last, Some(RetryDecision::Abandon(_))));
        assert_eq!(c.current_interaction(0), TransitionTable::entry());
        assert_eq!(c.failures_of(0), 0);
        assert_eq!(c.total_abandons(), 1);
    }

    #[test]
    fn epochs_are_per_client() {
        let mut rng = SimRng::new(10);
        let mut c = ClientCohort::new(2, WorkloadMix::BROWSING, &mut rng);
        assert_eq!(c.epoch(0), 0);
        assert_eq!(c.bump_epoch(0), 1);
        assert_eq!(c.bump_epoch(0), 2);
        assert_eq!(c.epoch(1), 0);
    }
}

//! Typed cross-tier message envelopes.
//!
//! When the simulation is sharded (one shard per physical host plus a
//! client/generator shard), client→server traffic travels over
//! `simcore::shard` channels. These envelopes are the payloads:
//! plain data, no handles into another shard's state, so a message can
//! cross a thread boundary without breaking shard ownership (lint rule
//! CL013). Every envelope carries the session id so the generator can
//! correlate completions with the request it issued.

use crate::interactions::Interaction;

/// A client request dispatched from the generator shard to a serving
/// pod: one page interaction on behalf of one emulated session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestEnvelope {
    /// Global session index in the generator's cohort.
    pub session: u32,
    /// Session epoch at issue time; a completion whose epoch no longer
    /// matches is stale (the session already timed out and moved on).
    pub epoch: u64,
    /// The page being requested.
    pub interaction: Interaction,
}

/// Terminal status of one request, from the serving pod's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The page rendered and was sent back to the client.
    Ok,
    /// The server dropped or aborted the request (overload, fault).
    Failed,
}

/// A completion flowing back from a serving pod to the generator shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionEnvelope {
    /// Session the response belongs to.
    pub session: u32,
    /// Epoch copied from the originating [`RequestEnvelope`].
    pub epoch: u64,
    /// The interaction that completed.
    pub interaction: Interaction,
    /// How the request ended.
    pub outcome: Outcome,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelopes_are_plain_copyable_data() {
        let req = RequestEnvelope {
            session: 7,
            epoch: 3,
            interaction: Interaction::ViewItem,
        };
        let done = CompletionEnvelope {
            session: req.session,
            epoch: req.epoch,
            interaction: req.interaction,
            outcome: Outcome::Ok,
        };
        let copy = done; // Copy: no ownership entanglement across shards
        assert_eq!(done, copy);
        assert_eq!(copy.session, 7);
        assert!(matches!(copy.outcome, Outcome::Ok));
    }
}

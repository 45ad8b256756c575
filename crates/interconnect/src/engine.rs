//! Delivery-engine sizing: the sharded event-driven scheduler's worker
//! count.
//!
//! Every worker count executes the *same* envelope-processing code
//! (`network::process_envelope`) against the same virtual-time cost
//! model, so a workload's virtual timings, checksums and traces are
//! identical for any count; only the real-time execution shape — and
//! therefore wall-clock throughput — differs. One worker serialises the
//! whole fabric; one worker per node gives every node its own thread
//! (nodes are pinned to worker `node % workers`). See DESIGN.md §2.5.

use crate::mailbox::BoundedQueue;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

/// How many envelopes a shard worker drains from one node queue per
/// round. Within a batch, envelopes are processed in virtual arrival
/// order (batched virtual-time delivery).
pub(crate) const ENGINE_BATCH: usize = 128;

/// Per-node run-queue depth above which application-thread senders
/// block (backpressure). Handler-context sends overflow the bound
/// instead — see [`BoundedQueue`].
pub(crate) const NODE_QUEUE_CAPACITY: usize = 1024;

/// How a fabric's delivery engine is sized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Sharded event-driven scheduler: per-node bounded run queues
    /// multiplexed over a small worker pool, batched virtual-time
    /// delivery, wake elision while workers are hot.
    Sharded {
        /// Worker-thread count; `0` sizes automatically from the host's
        /// available parallelism (clamped to `[1, 8]` and to the node
        /// count).
        workers: usize,
    },
}

impl Default for EngineMode {
    fn default() -> Self {
        EngineMode::Sharded { workers: 0 }
    }
}

impl EngineMode {
    /// Worker threads to spawn for `nodes` nodes.
    pub fn resolved_workers(&self, nodes: usize) -> usize {
        match *self {
            EngineMode::Sharded { workers: 0 } => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .clamp(1, 8)
                .min(nodes),
            EngineMode::Sharded { workers } => workers.min(nodes).max(1),
        }
    }
}

impl FromStr for EngineMode {
    type Err = String;

    /// `sharded` (auto-sized) or `sharded:N` (N workers).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "sharded" => Ok(EngineMode::Sharded { workers: 0 }),
            other => match other.strip_prefix("sharded:") {
                Some(n) => n
                    .parse::<usize>()
                    .map(|workers| EngineMode::Sharded { workers })
                    .map_err(|e| format!("engine worker count {n:?}: {e}")),
                None => Err(format!("unknown engine mode {s:?} (sharded | sharded:N)")),
            },
        }
    }
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineMode::Sharded { workers: 0 } => write!(f, "sharded"),
            EngineMode::Sharded { workers } => write!(f, "sharded:{workers}"),
        }
    }
}

/// One node's ingress: the bounded envelope
/// queue plus the scheduled flag that keeps the node enqueued at most
/// once on its shard's ready ring.
pub(crate) struct NodeQueue<T> {
    pub(crate) q: BoundedQueue<T>,
    scheduled: AtomicBool,
}

impl<T> NodeQueue<T> {
    pub(crate) fn new() -> Self {
        Self { q: BoundedQueue::new(NODE_QUEUE_CAPACITY), scheduled: AtomicBool::new(false) }
    }

    /// After an enqueue: true when the caller must schedule the node
    /// (it was not already on a ready ring).
    pub(crate) fn claim_schedule(&self) -> bool {
        !self.scheduled.swap(true, Ordering::AcqRel)
    }

    /// Worker-side, after draining an empty batch: clear the scheduled
    /// flag, then re-check for a push that raced the clear. Returns
    /// true when the node re-claimed its slot and must stay scheduled.
    pub(crate) fn retire(&self) -> bool {
        self.scheduled.store(false, Ordering::Release);
        !self.q.is_empty() && self.claim_schedule()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        for retired in ["threads", "thread-per-node", "legacy"] {
            let err = retired.parse::<EngineMode>().unwrap_err();
            assert!(err.contains("sharded | sharded:N"), "{retired}: {err}");
        }
        assert_eq!("sharded".parse::<EngineMode>().unwrap(), EngineMode::Sharded { workers: 0 });
        assert_eq!(
            "Sharded:4".parse::<EngineMode>().unwrap(),
            EngineMode::Sharded { workers: 4 }
        );
        assert!("ring".parse::<EngineMode>().is_err());
        assert!("sharded:lots".parse::<EngineMode>().is_err());
    }

    #[test]
    fn mode_display_roundtrips() {
        for mode in [EngineMode::Sharded { workers: 0 }, EngineMode::Sharded { workers: 3 }] {
            assert_eq!(mode.to_string().parse::<EngineMode>().unwrap(), mode);
        }
    }

    #[test]
    fn worker_resolution() {
        let auto = EngineMode::Sharded { workers: 0 }.resolved_workers(64);
        assert!((1..=8).contains(&auto));
        assert_eq!(EngineMode::Sharded { workers: 0 }.resolved_workers(1), 1);
        assert_eq!(EngineMode::Sharded { workers: 16 }.resolved_workers(4), 4);
    }

    #[test]
    fn node_queue_schedule_protocol() {
        let nq: NodeQueue<u32> = NodeQueue::new();
        assert!(nq.claim_schedule(), "first enqueue claims the slot");
        assert!(!nq.claim_schedule(), "second enqueue sees it scheduled");
        assert!(!nq.retire(), "empty queue retires for good");
        nq.q.push(1).unwrap();
        assert!(nq.claim_schedule());
        assert!(nq.retire(), "non-empty queue re-claims on retire");
    }
}

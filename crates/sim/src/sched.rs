//! Sharded run-queue scheduler: a small worker pool driving many
//! logical actors (simulated nodes).
//!
//! One OS thread per simulated node's communication daemon would mean
//! dozens of mostly-sleeping threads at 64+ nodes on a small host, and
//! every message delivery would pay a condvar wake plus a context
//! switch. Instead, actors (nodes) are multiplexed over a few worker threads, each owning one
//! *shard* of the actor space. An actor is *scheduled* onto its shard's
//! ready ring when it has work; the worker drives it via a callback and
//! re-queues it while the callback reports more work pending.
//!
//! Two properties the fabric depends on:
//!
//! * **Per-actor serialization.** An actor maps to exactly one shard
//!   (`actor % shards`), and each shard is owned by exactly one worker,
//!   so an actor's work is never driven concurrently — protocol
//!   handlers see one node's messages one at a time, as a per-node
//!   daemon would serve them.
//! * **Wake elision.** Scheduling an actor onto a shard whose worker is
//!   already running (not parked) skips the condvar notify entirely;
//!   under load the worker stays hot and drains without ever sleeping.
//!
//! The scheduler knows nothing about messages or virtual time; the
//! interconnect layers its bounded per-node queues and batched delivery
//! on top.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

struct Shard {
    ready: Mutex<VecDeque<usize>>,
    cv: Condvar,
    /// True while the owning worker is parked on `cv`. Written under
    /// the `ready` lock; read after releasing it, so the lock release
    /// orders the store before any reader that saw our enqueue.
    parked: AtomicBool,
}

/// The shard set of a worker pool: the handle used to schedule actors.
///
/// Cheap to clone via `Arc`; [`spawn_workers`] attaches the worker
/// threads that drain it. Dropping the `Arc` does not stop workers —
/// call [`Shards::stop`] and join the handles.
pub struct Shards {
    shards: Vec<Shard>,
    stop: AtomicBool,
}

impl Shards {
    /// A shard set of `n` shards (one worker each). `n` is clamped to
    /// at least 1.
    pub fn new(n: usize) -> Arc<Self> {
        let n = n.max(1);
        Arc::new(Self {
            shards: (0..n)
                .map(|_| Shard {
                    ready: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                    parked: AtomicBool::new(false),
                })
                .collect(),
            stop: AtomicBool::new(false),
        })
    }

    /// Number of shards (== workers).
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Always false: a shard set has at least one shard.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The shard `actor` is pinned to.
    pub fn shard_of(&self, actor: usize) -> usize {
        actor % self.shards.len()
    }

    /// Enqueue `actor` onto its shard's ready ring. The caller must
    /// ensure each actor is scheduled at most once at a time (the
    /// fabric does this with a per-actor `scheduled` flag); double
    /// scheduling is not unsafe, just wasted work.
    pub fn schedule(&self, actor: usize) {
        let shard = &self.shards[self.shard_of(actor)];
        shard.ready.lock().push_back(actor);
        // Elide the notify when the worker is running: it will observe
        // the enqueue on its next pop. `parked` is only set under the
        // `ready` lock, so after our push/unlock either the worker saw
        // the entry (and won't park) or we see `parked == true` here.
        if shard.parked.load(Ordering::Relaxed) {
            shard.cv.notify_one();
        }
    }

    /// Ask all workers to exit once their ready rings are drained.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            let _g = shard.ready.lock();
            shard.cv.notify_one();
        }
    }

    fn worker_loop(&self, shard_ix: usize, drive: &(dyn Fn(usize) -> bool + Sync)) {
        let shard = &self.shards[shard_ix];
        loop {
            let next = {
                let mut g = shard.ready.lock();
                loop {
                    if let Some(actor) = g.pop_front() {
                        break Some(actor);
                    }
                    if self.stop.load(Ordering::SeqCst) {
                        break None;
                    }
                    shard.parked.store(true, Ordering::Relaxed);
                    shard.cv.wait(&mut g);
                    shard.parked.store(false, Ordering::Relaxed);
                }
            };
            let Some(actor) = next else { return };
            if drive(actor) {
                shard.ready.lock().push_back(actor);
            }
        }
    }
}

/// Spawn one worker thread per shard. Each worker pops actors from its
/// shard's ready ring and calls `drive(actor)`; a `true` return
/// re-queues the actor (it still has work). Workers exit when
/// [`Shards::stop`] has been called and the ready ring is empty — all
/// scheduled work is drained before shutdown.
pub fn spawn_workers<F>(shards: &Arc<Shards>, name: &str, drive: F) -> Vec<JoinHandle<()>>
where
    F: Fn(usize) -> bool + Send + Sync + 'static,
{
    let drive = Arc::new(drive);
    (0..shards.len())
        .map(|ix| {
            let shards = shards.clone();
            let drive = drive.clone();
            std::thread::Builder::new()
                .name(format!("{name}-{ix}"))
                .spawn(move || shards.worker_loop(ix, &*drive))
                .expect("spawn scheduler worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn drives_scheduled_actors() {
        let counts: Arc<Vec<AtomicUsize>> =
            Arc::new((0..8).map(|_| AtomicUsize::new(0)).collect());
        let shards = Shards::new(2);
        let c = counts.clone();
        let workers = spawn_workers(&shards, "t", move |actor| {
            c[actor].fetch_add(1, Ordering::SeqCst);
            false
        });
        for a in 0..8 {
            shards.schedule(a);
        }
        shards.stop();
        for w in workers {
            w.join().unwrap();
        }
        for c in counts.iter() {
            assert_eq!(c.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn requeues_while_drive_reports_work() {
        let remaining = Arc::new(AtomicUsize::new(5));
        let shards = Shards::new(1);
        let r = remaining.clone();
        let workers = spawn_workers(&shards, "t", move |_| {
            r.fetch_sub(1, Ordering::SeqCst) > 1
        });
        shards.schedule(0);
        while remaining.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
        shards.stop();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(remaining.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn stop_drains_pending_work() {
        let done = Arc::new(AtomicUsize::new(0));
        let shards = Shards::new(1);
        let d = done.clone();
        let workers = spawn_workers(&shards, "t", move |_| {
            d.fetch_add(1, Ordering::SeqCst);
            false
        });
        for a in 0..100 {
            shards.schedule(a);
        }
        shards.stop();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(done.load(Ordering::SeqCst), 100, "stop must drain, not abandon");
    }

    #[test]
    fn actors_pin_to_shards() {
        let shards = Shards::new(3);
        assert_eq!(shards.shard_of(0), shards.shard_of(3));
        assert_ne!(shards.shard_of(0), shards.shard_of(1));
        assert_eq!(shards.len(), 3);
    }
}

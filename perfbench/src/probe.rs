//! A [`World`] wrapper that measures every call the kernels make into
//! the system under test, from outside it.
//!
//! Unless it records, the wrapper only forwards. When it records, it
//! keeps per operation kind the call count, host time and virtual
//! time, and one span per call (up to [`SPAN_CAP`] per node) for the
//! trace file. Parents are assigned afterwards from the
//! simulator's own `phase` and `kv` spans (see [`crate::spans`]).

use apps::World;
use hamster_core::{Distribution, GlobalAddr};
use std::sync::Mutex;
use std::time::Instant;

/// The `World` operations, named after the adapter calls they reach.
pub const OPS: [&str; 8] =
    ["alloc", "read", "write", "lock", "unlock", "barrier", "compute", "private"];

/// Index into [`OPS`].
#[derive(Clone, Copy)]
pub enum Op {
    Alloc = 0,
    Read = 1,
    Write = 2,
    Lock = 3,
    Unlock = 4,
    Barrier = 5,
    Compute = 6,
    Private = 7,
}

/// Spans kept per node for the trace file; calls beyond the cap still
/// count in the aggregates.
pub const SPAN_CAP: usize = 5_000;

/// One `World` call on one node.
#[derive(Clone, Copy)]
pub struct Span {
    pub op: Op,
    /// Host start, ns since the run's epoch.
    pub host_start: u64,
    pub host_ns: u64,
    pub virt_start: u64,
    pub virt_ns: u64,
}

/// Per-node aggregates of the calls made through a [`Probe`].
#[derive(Clone, Default)]
pub struct Calls {
    pub count: [u64; 8],
    pub host_ns: [u64; 8],
    pub virt_ns: [u64; 8],
    pub spans: Vec<Span>,
}

impl Calls {
    /// Total host ns spent inside calls.
    pub fn host_total(&self) -> u64 {
        self.host_ns.iter().sum()
    }

    /// Fold another node's (or run's) aggregates into this one; spans
    /// stay with their node and are not merged.
    pub fn add(&mut self, o: &Calls) {
        for i in 0..OPS.len() {
            self.count[i] += o.count[i];
            self.host_ns[i] += o.host_ns[i];
            self.virt_ns[i] += o.virt_ns[i];
        }
    }
}

/// The measuring wrapper around one node's `World`.
pub struct Probe<W> {
    inner: W,
    record: bool,
    epoch: Instant,
    calls: Mutex<Calls>,
}

impl<W: World> Probe<W> {
    pub fn new(inner: W, record: bool, epoch: Instant) -> Self {
        Self { inner, record, epoch, calls: Mutex::new(Calls::default()) }
    }

    /// The unwrapped world (for calls that must not be measured).
    pub fn inner(&self) -> &W {
        &self.inner
    }

    pub fn into_calls(self) -> Calls {
        self.calls.into_inner().expect("probe lock poisoned by a panicking node")
    }

    #[inline]
    fn measure<T>(&self, op: Op, f: impl FnOnce(&W) -> T) -> T {
        if !self.record {
            return f(&self.inner);
        }
        let v0 = self.inner.now_ns();
        let h0 = Instant::now();
        let out = f(&self.inner);
        let h1 = Instant::now();
        let v1 = self.inner.now_ns();
        let host_ns = (h1 - h0).as_nanos() as u64;
        let virt_ns = v1.saturating_sub(v0);
        let mut c = self.calls.lock().expect("probe lock poisoned by a panicking node");
        let i = op as usize;
        c.count[i] += 1;
        c.host_ns[i] += host_ns;
        c.virt_ns[i] += virt_ns;
        if c.spans.len() < SPAN_CAP {
            let host_start = (h0 - self.epoch).as_nanos() as u64;
            c.spans.push(Span { op, host_start, host_ns, virt_start: v0, virt_ns });
        }
        out
    }
}

impl<W: World> World for Probe<W> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }
    fn alloc_dist(&self, bytes: usize, dist: Distribution) -> GlobalAddr {
        self.measure(Op::Alloc, |w| w.alloc_dist(bytes, dist))
    }
    fn read_f64(&self, a: GlobalAddr) -> f64 {
        self.measure(Op::Read, |w| w.read_f64(a))
    }
    fn write_f64(&self, a: GlobalAddr, v: f64) {
        self.measure(Op::Write, |w| w.write_f64(a, v))
    }
    fn read_u64(&self, a: GlobalAddr) -> u64 {
        self.measure(Op::Read, |w| w.read_u64(a))
    }
    fn write_u64(&self, a: GlobalAddr, v: u64) {
        self.measure(Op::Write, |w| w.write_u64(a, v))
    }
    fn read_bytes(&self, a: GlobalAddr, out: &mut [u8]) {
        self.measure(Op::Read, |w| w.read_bytes(a, out))
    }
    fn write_bytes(&self, a: GlobalAddr, data: &[u8]) {
        self.measure(Op::Write, |w| w.write_bytes(a, data))
    }
    fn lock(&self, id: u32) {
        self.measure(Op::Lock, |w| w.lock(id))
    }
    fn unlock(&self, id: u32) {
        self.measure(Op::Unlock, |w| w.unlock(id))
    }
    fn barrier(&self, id: u32) {
        self.measure(Op::Barrier, |w| w.barrier(id))
    }
    fn compute(&self, ns: u64) {
        self.measure(Op::Compute, |w| w.compute(ns))
    }
    fn private_traffic(&self, bytes: u64) {
        self.measure(Op::Private, |w| w.private_traffic(bytes))
    }
    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }
}

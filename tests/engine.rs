//! Workspace-level engine equivalence: the delivery engine must be
//! *indistinguishable in virtual time* whether one worker serialises the
//! whole fabric or every node has a worker of its own (see `DESIGN.md`,
//! "Delivery engine").
//!
//! A proptest drives random SOR / LU / lock-ring schedules through both
//! worker counts at 4 and 64 nodes and asserts, per schedule:
//!
//! * bit-identical workload checksums,
//! * identical virtual history (`sim_time_ns` + every net counter),
//! * identical analyzer output for the traced run — same per-node
//!   makespans and same per-node lane totals, lane by lane.
//!
//! The two shapes differ only in *real-time* mechanics (who executes a
//! handler, when, on which OS thread); everything observable in virtual
//! time — including the causal trace the analyzer consumes — must not
//! move by a single nanosecond.

use analyzer::LANES;
use apps::world::{NativeWorld, World};
use cluster::{Cluster, EngineMode, FabricConfig, LinkKind, RunReport};
use memwire::Distribution;
use proptest::prelude::*;
use sim::trace::TraceSession;

/// One randomly drawn schedule: which kernel runs, and how big.
#[derive(Clone, Copy, Debug)]
enum Schedule {
    Sor { n: usize, iters: usize },
    Lu { n: usize },
    LockRing { rounds: u32, skew: u32 },
}

fn schedules() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        ((40usize..=72), (2usize..=3)).prop_map(|(n, iters)| Schedule::Sor { n, iters }),
        (24usize..=48).prop_map(|n| Schedule::Lu { n }),
        ((2u32..=4), (100u32..=9_000)).prop_map(|(rounds, skew)| Schedule::LockRing { rounds, skew }),
    ]
}

/// Lock ring: `nprocs` global locks circulate around the nodes — in
/// round `r`, rank `i` holds lock `(i + r) % nprocs` for a skewed slice
/// of compute, so every lock visits every node and every grant carries
/// a causal floor from the previous round's holder. Two deliberate
/// design points keep the schedule inside the repo's *deterministic*
/// regime (OBSERVABILITY.md):
///
/// * a barrier separates rounds, so no two nodes ever contend for the
///   same lock at once — contended grants go in real message-arrival
///   order and are legitimately engine-dependent;
/// * the critical sections do not write shared memory, so releases
///   publish empty intervals and grants carry no write notices — the
///   notice payload reflects racy page-table state and wobbles the
///   grant's wire size run to run. Shared counters are instead written
///   between barriers, each rank to its own slot.
fn lock_ring(w: &NativeWorld, rounds: u32, skew: u32) -> u64 {
    let nprocs = w.nprocs();
    let counters = w.alloc_dist(nprocs * 8, Distribution::Block);
    w.barrier(900);
    for round in 0..rounds {
        w.compute(1_000 + w.rank() as u64 * skew as u64 + round as u64 * 131);
        let id = 700 + ((w.rank() + round as usize) % nprocs) as u32;
        w.lock(id);
        w.compute(500 + id as u64);
        w.unlock(id);
        let slot = counters.add((w.rank() * 8) as u32);
        let v = w.read_u64(slot);
        w.write_u64(slot, v.wrapping_mul(31).wrapping_add(round as u64 + 1));
        w.barrier(902 + round);
    }
    w.barrier(901);
    let mut acc = 0u64;
    for i in 0..nprocs {
        acc = acc
            .wrapping_mul(0x0000_0100_0000_01b3)
            .wrapping_add(w.read_u64(counters.add((i * 8) as u32)));
    }
    acc
}

/// Everything virtual-time-observable about one traced run.
#[derive(Debug, PartialEq)]
struct Observed {
    checksum: u64,
    sim_time_ns: u64,
    net_stats: std::collections::BTreeMap<&'static str, u64>,
    /// Analyzer view of the trace: (node, makespan, lane totals).
    node_lanes: Vec<(usize, u64, [u64; LANES])>,
}

/// Run `schedule` on the software DSM under `engine` with tracing on,
/// and capture the full virtual-time observation.
fn observe(engine: EngineMode, nodes: usize, schedule: Schedule) -> Observed {
    let session = TraceSession::begin();
    // Put the cost model in the *deterministic regime*: below
    // bus-window saturation, every transfer is a pure function of
    // `(time, bytes)` and the engines must agree to the nanosecond;
    // above it, slowdown depends on real-time registration order
    // (OBSERVABILITY.md, "Bus saturation"). The 64-node legs make this
    // a tight fit — LU broadcasts a 4 KiB pivot page to 63 peers every
    // step — so three knobs move together:
    //
    // * 1 GB/s links (the `analyze` bench's 250 MB/s still saturates
    //   under a 63-wide page fan-in: 63 × 4 KiB > 250 KB per window);
    // * small per-message service overheads, so 64 barrier arrivals per
    //   step don't saturate the manager's fixed 1 GB/s service bus;
    // * 400 µs latency, stretching virtual time so consecutive fan-in
    //   steps land in different 1 ms bus windows instead of stacking
    //   their reply bytes into one (latency is additive and
    //   bus-independent, so it is pure schedule spacing).
    let mut cost = sim::cost::CostModel::default();
    cost.ethernet.bytes_per_sec = 1_000_000_000;
    cost.ethernet.latency_ns = 400_000;
    cost.ethernet.recv_overhead_ns = 500;
    cost.ethernet.send_overhead_ns = 500;
    cost.ethernet.handler_ns = 200;
    let fabric = FabricConfig::builder()
        .nodes(nodes)
        .link(LinkKind::Ethernet)
        .cost(cost)
        .engine(engine)
        .build();
    let cluster = Cluster::new(fabric);
    let dsm = swdsm::SwDsm::install(&cluster, swdsm::DsmConfig::default());
    let (report, checksums): (RunReport, Vec<u64>) = cluster.run(|ctx| {
        let w = NativeWorld::new(dsm.node(ctx));
        match schedule {
            Schedule::Sor { n, iters } => apps::sor::sor(&w, n, iters, true).checksum,
            Schedule::Lu { n } => apps::lu::lu(&w, n).checksum,
            Schedule::LockRing { rounds, skew } => lock_ring(&w, rounds, skew),
        }
    });
    let trace = session.finish();
    assert!(
        checksums.iter().all(|&c| c == checksums[0]),
        "ranks disagree on checksum under {engine:?}: {checksums:?}"
    );
    let analysis = analyzer::analyze(&trace);
    Observed {
        checksum: checksums[0],
        sim_time_ns: report.sim_time_ns,
        net_stats: report.net_stats,
        node_lanes: analysis
            .nodes
            .iter()
            .map(|n| (n.node, n.makespan_ns, n.lanes))
            .collect(),
    }
}

/// Assert a fully serialised engine (one worker) and one worker per
/// node produced literally the same virtual history.
fn assert_equivalent(schedule: Schedule, nodes: usize) {
    let serial = observe(EngineMode::Sharded { workers: 1 }, nodes, schedule);
    let sharded = observe(EngineMode::Sharded { workers: nodes }, nodes, schedule);
    prop_assert_eq!(
        serial.checksum,
        sharded.checksum,
        "checksum diverged at {} nodes for {:?}",
        nodes,
        schedule
    );
    prop_assert_eq!(
        serial.sim_time_ns,
        sharded.sim_time_ns,
        "virtual makespan diverged at {} nodes for {:?}",
        nodes,
        schedule
    );
    prop_assert_eq!(
        &serial.net_stats,
        &sharded.net_stats,
        "net counters diverged at {} nodes for {:?}",
        nodes,
        schedule
    );
    prop_assert_eq!(
        &serial.node_lanes,
        &sharded.node_lanes,
        "analyzer lane totals diverged at {} nodes for {:?}",
        nodes,
        schedule
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random schedules through both worker counts at 4 and 64 nodes
    /// are bit-identical in every virtual-time observable.
    #[test]
    fn engines_agree_on_random_schedules(schedule in schedules()) {
        assert_equivalent(schedule, 4);
        assert_equivalent(schedule, 64);
    }
}

/// Pinned non-random coverage: each kernel shape once, so a proptest
/// draw never silently skips a kernel family, and failures name the
/// exact offender without shrinking.
#[test]
fn engines_agree_on_each_kernel_family() {
    for schedule in [
        Schedule::Sor { n: 48, iters: 2 },
        Schedule::Lu { n: 32 },
        Schedule::LockRing { rounds: 3, skew: 977 },
    ] {
        assert_equivalent(schedule, 4);
    }
}



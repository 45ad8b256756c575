//! Two-clock benchmark of the HAMSTER stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sw_kernels|hybrid_kernels|kv_hybrid> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Runs one workload on a 4-node cluster with the paper-testbed cost
//! model and the default sharded engine, repeating it until `--seconds`
//! have passed, and checks every output. The last line of stdout is one
//! JSON object: `correct`, `attempted`, `failed` (outputs checked and
//! outputs that failed) and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones, each repetition in a child process (see
//! [`spawn_rep`]); with `--trace 1` the per-layer ones, from in-process
//! repetitions that rotate through the three [`Mode`]s. A readable
//! report, with the host envelope, goes to stderr and `perfbench/out/`.

mod host;
mod probe;
mod spans;

use apps::kv::{KvConfig, LoadGen};
use apps::report::checksum_f64;
use apps::{BenchResult, HamsterWorld, World};
use hamster_core::{ClusterConfig, PlatformKind, Runtime, Telemetry};
use probe::{Calls, Probe, OPS};
use sim::{TraceEvent, TraceSession};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Nodes of every workload: the size of the paper's Figures 2 and 3.
const NODES: usize = 4;
/// Table 1 sizes; WATER runs 100 steps so its locks weigh in.
const SOR_N: usize = 1024;
const SOR_ITERS: usize = 50;
const LU_N: usize = 1024;
const WATER_MOL: usize = 343;
const WATER_STEPS: usize = 100;
/// Runtimes each end-to-end repetition brings up only to time set-up.
const SETUP_PROBES: usize = 40;
/// The traced run's rotation.
const MODES: [Mode; 3] = [Mode::Plain, Mode::Spans, Mode::Session];
/// Barrier id of the start-up barrier the benchmark adds before each
/// program; set-up ends when every node has left it.
const STARTUP_BARRIER: u32 = 90;
/// Where reports and trace files go, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    SwKernels,
    HybridKernels,
    KvHybrid,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "sw_kernels" => Workload::SwKernels,
            "hybrid_kernels" => Workload::HybridKernels,
            "kv_hybrid" => Workload::KvHybrid,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SwKernels => "sw_kernels",
            Workload::HybridKernels => "hybrid_kernels",
            Workload::KvHybrid => "kv_hybrid",
        }
    }

    fn platform(self) -> PlatformKind {
        match self {
            Workload::SwKernels => PlatformKind::SwDsm,
            Workload::HybridKernels | Workload::KvHybrid => PlatformKind::HybridDsm,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Sor,
    Lu,
    Water,
}

const KERNELS: [Kernel; 3] = [Kernel::Sor, Kernel::Lu, Kernel::Water];

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Sor => "sor",
            Kernel::Lu => "lu",
            Kernel::Water => "water",
        }
    }

    fn run<W: World>(self, w: &W) -> BenchResult {
        match self {
            Kernel::Sor => apps::sor::sor(w, SOR_N, SOR_ITERS, false),
            Kernel::Lu => apps::lu::lu(w, LU_N),
            Kernel::Water => apps::water::water(w, WATER_MOL, WATER_STEPS),
        }
    }
}

/// The KV service: closed loop, 16 clients per node thinking 200 µs
/// between requests (well below the node's service rate), 100 rounds of
/// 2,000 requests per node.
fn kv_config(seed: u64) -> KvConfig {
    KvConfig {
        rounds: 100,
        batch: 2_000,
        clients: 16,
        seed,
        load: LoadGen::ClosedLoop,
        ..KvConfig::paper()
    }
}

/// Virtual-time window of the KV telemetry series.
const KV_WINDOW_NS: u64 = 1_000_000;

/// How a repetition is observed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No instrumentation: the end-to-end runs, and the traced run's
    /// baseline.
    Plain,
    /// Call spans only: per-op host and virtual time, at the cost of
    /// the probe alone (`trace.overhead_pct`).
    Spans,
    /// Call spans plus a simulator trace session: analyzer lanes, bus
    /// stalls, exact KV latencies and span parents. Its host times are
    /// not reported, since every layer then writes to the trace sink.
    Session,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Spans => "spans",
            Mode::Session => "session",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a child process: run one end-to-end repetition against
    /// these reference checksums and report it on stdout.
    rep: Option<References>,
}

const USAGE: &str =
    "usage: hamster-perfbench --workload <sw_kernels|hybrid_kernels|kv_hybrid> --seed N --seconds S --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut rep) = (1u64, 10u64, false, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--rep" => rep = Some(References::decode(&value()?)?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, rep })
}

/// The per-node result of one program run under a [`Probe`].
struct NodeOut {
    result: BenchResult,
    ready: Instant,
    done: Instant,
    /// Virtual interval of the program (after the start-up barrier).
    virt: (u64, u64),
    sched0: host::Sched,
    sched1: host::Sched,
    calls: Calls,
    monitor: hamster_core::monitor::ModuleStats,
}

/// One runtime's life: bring-up, one program on every node, teardown.
struct RunOut {
    setup_s: f64,
    wall_s: f64,
    /// The program's makespan: the largest node `total_ns`.
    virt_ns: u64,
    checks: u64,
    failures: u64,
    /// Layer counters summed over nodes, read after `run` returned.
    counters: BTreeMap<String, f64>,
    calls: Calls,
    /// Node-thread host ns inside the program, summed over nodes.
    node_host_ns: u64,
    /// Summed node-thread on-CPU and run-queue ns.
    sched: host::Sched,
    /// Trace session events (session runs only).
    events: Vec<TraceEvent>,
    /// Per-node calls and program intervals (session runs only).
    node_calls: Vec<Vec<probe::Span>>,
    roots: Vec<(u64, u64)>,
}

/// Bring up a runtime on `platform`, run `body` on every node after a
/// start-up barrier, check each node's checksum against `expect`, and
/// tear down. Counters are read only after `run` returns: the protocol
/// ones before teardown, the fabric ones after it drained.
fn run_once(
    platform: PlatformKind,
    mode: Mode,
    epoch: Instant,
    expect: u64,
    body: &(dyn Fn(&Probe<HamsterWorld>) -> BenchResult + Sync),
) -> RunOut {
    let session = (mode == Mode::Session).then(TraceSession::begin);
    let t0 = Instant::now();
    let rt = Runtime::new(ClusterConfig::new(NODES, platform));
    let (_, nodes) = rt.run(|ham| {
        let w = Probe::new(HamsterWorld::new(ham.clone()), mode != Mode::Plain, epoch);
        w.inner().barrier(STARTUP_BARRIER);
        let ready = Instant::now();
        let sched0 = host::thread_sched();
        let v0 = w.now_ns();
        let result = body(&w);
        let v1 = w.now_ns();
        let sched1 = host::thread_sched();
        NodeOut {
            result,
            ready,
            done: Instant::now(),
            virt: (v0, v1),
            sched0,
            sched1,
            calls: w.into_calls(),
            monitor: ham.monitor().clone(),
        }
    });
    let mut counters = BTreeMap::new();
    let prefix = if platform == PlatformKind::SwDsm { "swdsm" } else { "hybriddsm" };
    for node in 0..NODES {
        for (k, v) in rt.platform_stats(node) {
            *counters.entry(format!("{prefix}.{k}")).or_insert(0.0) += v as f64;
        }
    }
    counters.insert(
        "interconnect.engine_cpu_s".into(),
        host::threads_oncpu_ns("net-worker") as f64 / 1e9,
    );
    let events = session.map(TraceSession::finish).unwrap_or_default();
    drop(rt);
    let t_end = Instant::now();

    let ready = nodes.iter().map(|n| n.ready).max().expect("at least one node");
    let mut out = RunOut {
        setup_s: (ready - t0).as_secs_f64(),
        wall_s: (t_end - ready).as_secs_f64(),
        virt_ns: nodes.iter().map(|n| n.result.total_ns).max().unwrap_or(0),
        checks: nodes.len() as u64,
        failures: nodes.iter().filter(|n| n.result.checksum != expect).count() as u64,
        counters,
        calls: Calls::default(),
        node_host_ns: 0,
        sched: host::Sched::default(),
        events,
        node_calls: Vec::new(),
        roots: Vec::new(),
    };
    for n in &nodes {
        for (module, keys) in [
            ("mem", &["reads", "writes", "bulk_bytes"][..]),
            ("sync", &["locks", "barriers"][..]),
            ("cons", &["sync_barriers"][..]),
        ] {
            let snap = n.monitor.query(module);
            for k in keys {
                *out.counters.entry(format!("hamster-core.{module}.{k}")).or_insert(0.0) +=
                    snap[k] as f64;
            }
        }
        out.calls.add(&n.calls);
        out.node_host_ns += (n.done - n.ready).as_nanos() as u64;
        out.sched.oncpu_ns += n.sched1.oncpu_ns.saturating_sub(n.sched0.oncpu_ns);
        out.sched.runqueue_ns += n.sched1.runqueue_ns.saturating_sub(n.sched0.runqueue_ns);
    }
    // The fabric view is shared by every node's monitor; it drained when
    // the runtime dropped.
    let net = nodes[0].monitor.query("net");
    for k in ["delivered", "requests", "posts", "bytes"] {
        out.counters.insert(format!("interconnect.{k}"), net[k] as f64);
    }
    if mode == Mode::Session {
        out.roots = nodes.iter().map(|n| n.virt).collect();
        out.node_calls = nodes.into_iter().map(|n| n.calls.spans).collect();
    }
    out
}

/// Reference checksums, computed before anything is timed.
struct References {
    kernels: [u64; 3],
    kv: u64,
}

impl References {
    fn encode(&self) -> String {
        let [a, b, c] = self.kernels;
        format!("{a:x},{b:x},{c:x},{:x}", self.kv)
    }

    fn decode(s: &str) -> Result<Self, String> {
        let v = s
            .split(',')
            .map(|x| u64::from_str_radix(x, 16))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("--rep: {e}"))?;
        match v[..] {
            [a, b, c, kv] => Ok(Self { kernels: [a, b, c], kv }),
            _ => Err("--rep takes four checksums".into()),
        }
    }
}

fn grid_checksum(rows: &[Vec<f64>], pick: [usize; 3]) -> u64 {
    pick.iter().flat_map(|&i| &rows[i]).fold(0, |acc, &v| checksum_f64(acc, v))
}

/// The checksum every node of an SMP run agrees on.
fn smp_checksum(body: impl Fn(&HamsterWorld) -> BenchResult + Send + Sync) -> u64 {
    let rt = Runtime::new(ClusterConfig::new(NODES, PlatformKind::Smp));
    let (_, rs) = rt.run(|ham| body(&HamsterWorld::new(ham.clone())));
    BenchResult::merge(&rs).checksum
}

fn references(w: Workload, seed: u64) -> References {
    if w == Workload::KvHybrid {
        let cfg = kv_config(seed);
        let tel = Telemetry::new(cfg.tenants, KV_WINDOW_NS);
        return References {
            kernels: [0; 3],
            kv: smp_checksum(|hw| apps::kv::serve(hw, &cfg, &tel)),
        };
    }
    let n = SOR_N;
    References {
        kernels: [
            grid_checksum(&apps::sor::reference(n, SOR_ITERS), [1, n / 2, n - 2]),
            grid_checksum(&apps::lu::reference(LU_N), [0, LU_N / 2, LU_N - 1]),
            smp_checksum(|hw| Kernel::Water.run(hw)),
        ],
        kv: 0,
    }
}

/// One repetition of the workload: the three kernels, or the KV service.
struct Iteration {
    mode: Mode,
    setup_s: Vec<f64>,
    wall_s: f64,
    virt_ns: u64,
    kernel_virt_ns: [u64; 3],
    /// Host wall per program run (one per kernel, or one for KV).
    run_walls: Vec<f64>,
    /// Layer counters per kernel (kernel workloads only).
    kernel_counters: Vec<BTreeMap<String, f64>>,
    checks: u64,
    failures: u64,
    counters: BTreeMap<String, f64>,
    calls: Calls,
    node_host_ns: u64,
    sched: host::Sched,
    /// Readings from the trace session (session repetitions only).
    session_readings: BTreeMap<&'static str, f64>,
    /// Exact KV request latencies, virtual ns (session repetitions only).
    kv_latencies: Vec<u64>,
    /// Exact fabric request round trips, virtual ns (session repetitions
    /// only; the fabric's own histogram is per runtime and bucketed).
    rtts: Vec<u64>,
    spans_json: Option<String>,
}

impl Iteration {
    /// Host CPU seconds of the node threads and the engine workers.
    fn cpu_s(&self) -> f64 {
        self.sched.oncpu_ns as f64 / 1e9 + self.get("interconnect.engine_cpu_s")
    }

    /// A summed layer counter (0 where the platform lacks it).
    fn get(&self, k: &str) -> f64 {
        self.counters.get(k).copied().unwrap_or(0.0)
    }
}

fn iteration(w: Workload, refs: &References, seed: u64, mode: Mode, epoch: Instant) -> Iteration {
    let mut it = Iteration {
        mode,
        setup_s: Vec::new(),
        wall_s: 0.0,
        virt_ns: 0,
        kernel_virt_ns: [0; 3],
        run_walls: Vec::new(),
        kernel_counters: Vec::new(),
        checks: 0,
        failures: 0,
        counters: BTreeMap::new(),
        calls: Calls::default(),
        node_host_ns: 0,
        sched: host::Sched::default(),
        session_readings: BTreeMap::new(),
        kv_latencies: Vec::new(),
        rtts: Vec::new(),
        spans_json: None,
    };
    let mut parents = Vec::new();
    let mut node_spans = Vec::new();
    let mut absorb = |it: &mut Iteration, name: &str, r: RunOut| {
        it.setup_s.push(r.setup_s);
        it.wall_s += r.wall_s;
        it.run_walls.push(r.wall_s);
        it.virt_ns += r.virt_ns;
        it.checks += r.checks;
        it.failures += r.failures;
        for (k, v) in r.counters {
            *it.counters.entry(k).or_insert(0.0) += v;
        }
        it.calls.add(&r.calls);
        it.node_host_ns += r.node_host_ns;
        it.sched.oncpu_ns += r.sched.oncpu_ns;
        it.sched.runqueue_ns += r.sched.runqueue_ns;
        if mode == Mode::Session {
            read_trace(it, &r.events);
            node_spans.extend(spans::resolve(
                name,
                &r.roots,
                r.node_calls,
                &r.events,
                &mut parents,
            ));
        }
    };
    match w {
        Workload::KvHybrid => {
            let cfg = kv_config(seed);
            let tel = Telemetry::new(cfg.tenants, KV_WINDOW_NS);
            let r =
                run_once(w.platform(), mode, epoch, refs.kv, &|pw| apps::kv::serve(pw, &cfg, &tel));
            absorb(&mut it, "kv", r);
        }
        _ => {
            for (i, k) in KERNELS.into_iter().enumerate() {
                let r = run_once(w.platform(), mode, epoch, refs.kernels[i], &|pw| k.run(pw));
                it.kernel_virt_ns[i] = r.virt_ns;
                it.kernel_counters.push(r.counters.clone());
                absorb(&mut it, k.name(), r);
            }
        }
    }
    if mode == Mode::Session {
        it.spans_json = Some(spans::to_json(w.name(), &parents, &node_spans));
    }
    it
}

/// Fold one trace session into the session readings: analyzer lanes,
/// bus stalls, and exact KV latencies and fabric round trips.
fn read_trace(it: &mut Iteration, events: &[TraceEvent]) {
    let report = analyzer::analyze(events);
    let lane = |l: analyzer::Lane| {
        report.nodes.iter().map(|n| n.lanes[l as usize]).sum::<u64>() as f64 / 1e9
    };
    let mut add = |k: &'static str, v: f64| *it.session_readings.entry(k).or_insert(0.0) += v;
    add("analyzer.page_fault_virt_s", lane(analyzer::Lane::PageFault));
    add("analyzer.lock_wait_virt_s", lane(analyzer::Lane::LockWait));
    add("analyzer.barrier_wait_virt_s", lane(analyzer::Lane::BarrierWait));
    let stalls: Vec<_> = events.iter().filter(|e| e.module == "bus" && e.op == "stall").collect();
    add("sim.bus_stalls", stalls.len() as f64);
    add("sim.bus_stall_virt_s", stalls.iter().map(|e| e.arg).sum::<u64>() as f64 / 1e9);
    let durations = |module: &'static str, op: Option<&'static str>| {
        events
            .iter()
            .filter(move |e| e.module == module && op.is_none_or(|o| e.op == o))
            .map(|e| e.dur_ns)
    };
    it.kv_latencies.extend(durations("kv", None));
    it.rtts.extend(durations("net", Some("request")));
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The `q`-quantile of sorted samples (nearest rank).
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Smallest and largest value.
fn band(v: &[f64]) -> (f64, f64) {
    v.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// For counts over repetitions: `Some((min, max))`.
    band: Option<(f64, f64)>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit, band: None }
}

/// One end-to-end repetition, as its child process reports it.
struct Rep {
    wall_s: f64,
    virt_ns: u64,
    kernel_virt_ns: [u64; 3],
    /// `VmHWM` of the child process, MiB.
    peak_rss_mib: f64,
    /// Median set-up time over the child's bring-ups.
    setup_s: f64,
    checks: u64,
    failures: u64,
}

impl Rep {
    fn encode(&self) -> String {
        let [a, b, c] = self.kernel_virt_ns;
        format!(
            "rep {} {} {a} {b} {c} {} {} {} {}",
            self.wall_s, self.virt_ns, self.peak_rss_mib, self.setup_s, self.checks, self.failures
        )
    }

    fn decode(line: &str) -> Option<Self> {
        let f: Vec<&str> = line.strip_prefix("rep ")?.split(' ').collect();
        let int = |i: usize| f.get(i)?.parse::<u64>().ok();
        let real = |i: usize| f.get(i)?.parse::<f64>().ok();
        Some(Self {
            wall_s: real(0)?,
            virt_ns: int(1)?,
            kernel_virt_ns: [int(2)?, int(3)?, int(4)?],
            peak_rss_mib: real(5)?,
            setup_s: real(6)?,
            checks: int(7)?,
            failures: int(8)?,
        })
    }
}

/// The end-to-end metrics: medians over repetitions.
fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    vec![
        metric("wall_s", med(&|r| r.wall_s), "s"),
        metric("setup_s", med(&|r| r.setup_s), "s"),
        metric("peak_rss_mib", med(&|r| r.peak_rss_mib), "MiB"),
        metric("virtual_s", med(&|r| r.virt_ns as f64 / 1e9), "s"),
    ]
}

/// Counter metrics reported per layer, with their units, in the order
/// `BENCHMARK.json` lists them.
const COUNTERS: &[(&str, &str)] = &[
    ("interconnect.delivered", "count"),
    ("interconnect.requests", "count"),
    ("interconnect.posts", "count"),
    ("interconnect.bytes", "bytes"),
    ("swdsm.getpages", "count"),
    ("swdsm.diffs", "count"),
    ("swdsm.diff_bytes", "bytes"),
    ("swdsm.twins", "count"),
    ("swdsm.invalidations", "count"),
    ("swdsm.lock_acquires", "count"),
    ("swdsm.lock_queued", "count"),
    ("swdsm.barriers", "count"),
    ("hybriddsm.local_reads", "count"),
    ("hybriddsm.remote_reads", "count"),
    ("hybriddsm.local_writes", "count"),
    ("hybriddsm.remote_writes", "count"),
    ("hybriddsm.bulk_bytes", "bytes"),
    ("hybriddsm.flushes", "count"),
    ("hybriddsm.lock_acquires", "count"),
    ("hybriddsm.barriers", "count"),
    ("hamster-core.mem.reads", "count"),
    ("hamster-core.mem.writes", "count"),
    ("hamster-core.mem.bulk_bytes", "bytes"),
    ("hamster-core.sync.locks", "count"),
    ("hamster-core.sync.barriers", "count"),
    ("hamster-core.cons.sync_barriers", "count"),
];

/// The per-layer metrics. Counters come from every repetition and carry
/// their band; host times from plain repetitions where the probe would
/// distort them, per-op times from span repetitions, and trace readings
/// from session repetitions.
fn per_layer(all: &[Iteration], kv_requests: u64) -> Vec<Metric> {
    let of = |m: Mode| all.iter().filter(|i| i.mode == m).collect::<Vec<_>>();
    let (plain, spanned, session) = (of(Mode::Plain), of(Mode::Spans), of(Mode::Session));
    let med = |its: &[&Iteration], f: &dyn Fn(&Iteration) -> f64| {
        median(&its.iter().map(|i| f(i)).collect::<Vec<_>>())
    };
    let everyone: Vec<&Iteration> = all.iter().collect();
    let mut out = Vec::new();
    for &(k, unit) in COUNTERS {
        let vals: Vec<f64> = all.iter().map(|i| i.get(k)).collect();
        out.push(Metric { name: k.into(), value: median(&vals), unit, band: Some(band(&vals)) });
    }
    let sorted = |f: &dyn Fn(&Iteration) -> &Vec<u64>| {
        let mut v: Vec<u64> = session.iter().flat_map(|i| f(i).iter().copied()).collect();
        v.sort_unstable();
        v
    };
    let rtt = sorted(&|i| &i.rtts);
    out.push(metric("interconnect.rtt_p50_us", quantile(&rtt, 0.50) / 1e3, "us"));
    out.push(metric("interconnect.rtt_p99_us", quantile(&rtt, 0.99) / 1e3, "us"));
    out.push(metric(
        "interconnect.engine_cpu_s",
        med(&plain, &|i| i.get("interconnect.engine_cpu_s")),
        "s",
    ));
    out.push(metric(
        "interconnect.engine_cpu_us_per_msg",
        med(&plain, &|i| {
            ratio(i.get("interconnect.engine_cpu_s") * 1e6, i.get("interconnect.delivered"))
        }),
        "us/msg",
    ));
    out.push(metric(
        "swdsm.lock_queued_ratio",
        med(&everyone, &|i| ratio(i.get("swdsm.lock_queued"), i.get("swdsm.lock_acquires"))),
        "ratio",
    ));
    out.push(metric(
        "hybriddsm.remote_read_ratio",
        med(&everyone, &|i| {
            let remote = i.get("hybriddsm.remote_reads");
            ratio(remote, remote + i.get("hybriddsm.local_reads"))
        }),
        "ratio",
    ));
    for k in [
        "analyzer.page_fault_virt_s",
        "analyzer.lock_wait_virt_s",
        "analyzer.barrier_wait_virt_s",
        "sim.bus_stalls",
        "sim.bus_stall_virt_s",
    ] {
        let unit = if k.ends_with("_s") { "s" } else { "count" };
        out.push(metric(
            k,
            med(&session, &|i| i.session_readings.get(k).copied().unwrap_or(0.0)),
            unit,
        ));
    }
    for (o, op) in OPS.iter().enumerate() {
        out.push(metric(
            format!("models.{op}.calls"),
            med(&spanned, &|i| i.calls.count[o] as f64),
            "count",
        ));
        out.push(metric(
            format!("models.{op}.host_s"),
            med(&spanned, &|i| i.calls.host_ns[o] as f64 / 1e9),
            "s",
        ));
        out.push(metric(
            format!("models.{op}.virt_s"),
            med(&spanned, &|i| i.calls.virt_ns[o] as f64 / 1e9),
            "s",
        ));
    }
    out.push(metric(
        "apps.self_host_s",
        med(&spanned, &|i| i.node_host_ns.saturating_sub(i.calls.host_total()) as f64 / 1e9),
        "s",
    ));
    for (k, kernel) in KERNELS.iter().enumerate() {
        out.push(metric(
            format!("apps.{}.virt_s", kernel.name()),
            med(&everyone, &|i| i.kernel_virt_ns[k] as f64 / 1e9),
            "s",
        ));
    }
    let lat = sorted(&|i| &i.kv_latencies);
    out.push(metric("kv.p50_us", quantile(&lat, 0.50) / 1e3, "us"));
    out.push(metric("kv.p99_us", quantile(&lat, 0.99) / 1e3, "us"));
    out.push(metric("kv.p999_us", quantile(&lat, 0.999) / 1e3, "us"));
    out.push(metric(
        "kv.throughput_rps",
        med(&everyone, &|i| ratio(kv_requests as f64, i.virt_ns as f64 / 1e9)),
        "1/s",
    ));
    let node_wall = |i: &Iteration| i.node_host_ns as f64 / 1e9;
    out.push(metric("cluster.node_oncpu_s", med(&plain, &|i| i.sched.oncpu_ns as f64 / 1e9), "s"));
    out.push(metric(
        "cluster.node_runqueue_s",
        med(&plain, &|i| i.sched.runqueue_ns as f64 / 1e9),
        "s",
    ));
    out.push(metric(
        "cluster.node_blocked_s",
        med(&plain, &|i| {
            (node_wall(i) - (i.sched.oncpu_ns + i.sched.runqueue_ns) as f64 / 1e9).max(0.0)
        }),
        "s",
    ));
    let wall = |its: &[&Iteration]| median(&its.iter().map(|i| i.wall_s).collect::<Vec<_>>());
    out.push(metric(
        "trace.overhead_pct",
        (ratio(wall(&spanned), wall(&plain)) - 1.0) * 100.0,
        "%",
    ));
    out
}

/// Figure 3 readings (hybrid advantage over the software DSM), as the
/// paper reports them and as EXPERIMENTS.md measured them at the
/// paper's sizes with 3 WATER steps.
const FIG3: [(&str, &str, &str); 3] = [
    ("sor", "about +50%", "+59%"),
    ("lu", "about +55% (LU all)", "+80%"),
    ("water", "about +20% (343)", "+32%"),
];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    if let Some(refs) = &args.rep {
        child_rep(w, args.seed, refs);
        return;
    }
    let env = host::Envelope::probe(NODES);
    eprintln!(
        "perfbench {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let refs = references(w, args.seed);
    let start = Instant::now();
    let (mut reps, mut iters) = (Vec::new(), Vec::new());
    loop {
        if args.trace {
            let mode = MODES[iters.len() % MODES.len()];
            let it = iteration(w, &refs, args.seed, mode, start);
            eprintln!(
                "  rep{} wall {:.3} s {:.3?}, virtual {:.6} s, checks {}/{} ok",
                if mode == Mode::Plain { String::new() } else { format!(" ({})", mode.name()) },
                it.wall_s,
                it.run_walls,
                it.virt_ns as f64 / 1e9,
                it.checks - it.failures,
                it.checks
            );
            iters.push(it);
        } else {
            reps.push(spawn_rep(&args, &refs));
        }
        let enough = !args.trace || iters.len() >= MODES.len();
        if enough && start.elapsed().as_secs() >= args.seconds {
            break;
        }
    }
    let (attempted, failed): (u64, u64) = if args.trace {
        (iters.iter().map(|i| i.checks).sum(), iters.iter().map(|i| i.failures).sum())
    } else {
        (reps.iter().map(|r| r.checks).sum(), reps.iter().map(|r| r.failures).sum())
    };
    let kv_requests = if w == Workload::KvHybrid {
        let c = kv_config(args.seed);
        (c.rounds * c.batch * NODES) as u64
    } else {
        0
    };
    let metrics = if args.trace { per_layer(&iters, kv_requests) } else { end_to_end(&reps) };
    let kernel_virts: Vec<[u64; 3]> = if args.trace {
        iters.iter().map(|i| i.kernel_virt_ns).collect()
    } else {
        reps.iter().map(|r| r.kernel_virt_ns).collect()
    };

    // Readable report.
    let mut rep = String::new();
    let _ = writeln!(
        rep,
        "workload {} seed {} | nodes {NODES} | nproc {} | available_parallelism {} | engine workers {} | commit {}",
        w.name(),
        args.seed,
        env.nproc,
        env.available_parallelism,
        env.engine_workers,
        env.commit
    );
    let _ = writeln!(
        rep,
        "{} repetitions, error_rate {} ({failed} of {attempted} checked outputs failed)",
        kernel_virts.len(),
        ratio(failed as f64, attempted as f64)
    );
    for m in &metrics {
        let band = match m.band {
            Some((lo, hi)) if lo == hi => "exact".to_string(),
            Some((lo, hi)) => format!("banded {lo}..{hi}"),
            None => String::new(),
        };
        let _ = writeln!(rep, "  {:<40} {:>18.6} {:<7} {band}", m.name, m.value, m.unit);
    }
    if w == Workload::KvHybrid && args.trace {
        let _ = writeln!(
            rep,
            "  kv samples (exact, session repetitions): {}",
            iters.iter().map(|i| i.kv_latencies.len()).sum::<usize>()
        );
    }
    if w != Workload::KvHybrid {
        if args.trace {
            kernel_bands(&iters, &mut rep);
        }
        fig3_readings(w, &kernel_virts, &mut rep);
    }
    eprint!("{rep}");

    let _ = std::fs::create_dir_all(OUT_DIR);
    let tag = format!("{}-seed{}-trace{}", w.name(), args.seed, args.trace as u8);
    let _ = std::fs::write(format!("{OUT_DIR}/{tag}.txt"), &rep);
    if let Some(json) = iters.iter().rev().find_map(|i| i.spans_json.as_ref()) {
        let _ = std::fs::write(format!("{OUT_DIR}/{tag}-spans.json"), json);
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    );
}

/// Run one end-to-end repetition in a child process of this binary, so
/// the median over repetitions also spans what stays fixed for a
/// process's life (memory layout, allocator arenas, thread placement),
/// which otherwise shifts whole runs against each other.
fn spawn_rep(args: &Args, refs: &References) -> Rep {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed", &args.seed.to_string()])
        .args(["--rep", &refs.encode()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start a repetition");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rep = stdout.lines().last().filter(|_| out.status.success()).and_then(Rep::decode);
    rep.unwrap_or_else(|| {
        eprintln!("a repetition failed ({})", out.status);
        std::process::exit(1);
    })
}

/// The child side of [`spawn_rep`]: time set-up on its own bring-ups,
/// run the workload once, and print the [`Rep`] line.
fn child_rep(w: Workload, seed: u64, refs: &References) {
    let epoch = Instant::now();
    let mut setup: Vec<f64> = (0..SETUP_PROBES)
        .map(|_| run_once(w.platform(), Mode::Plain, epoch, 0, &|_| BenchResult::default()).setup_s)
        .collect();
    let steal0 = host::steal_s();
    let it = iteration(w, refs, seed, Mode::Plain, epoch);
    setup.extend(&it.setup_s);
    let rep = Rep {
        wall_s: it.wall_s,
        virt_ns: it.virt_ns,
        kernel_virt_ns: it.kernel_virt_ns,
        peak_rss_mib: host::peak_rss_mib(),
        setup_s: median(&setup),
        checks: it.checks,
        failures: it.failures,
    };
    eprintln!(
        "  rep wall {:.3} s {:.3?}, cpu {:.3} s, steal {:.2} s, peak {:.1} MiB, virtual {:.6} s, checks {}/{} ok",
        it.wall_s,
        it.run_walls,
        it.cpu_s(),
        host::steal_s() - steal0,
        rep.peak_rss_mib,
        it.virt_ns as f64 / 1e9,
        it.checks - it.failures,
        it.checks
    );
    println!("{}", rep.encode());
}

/// Print, per kernel, which nonzero counters repeated exactly over the
/// repetitions and which moved (the workload totals above mix them).
fn kernel_bands(iters: &[Iteration], rep: &mut String) {
    let _ = writeln!(rep, "Per-kernel counters over {} repetitions:", iters.len());
    for (k, kernel) in KERNELS.iter().enumerate() {
        let (mut exact, mut banded) = (Vec::new(), Vec::new());
        for &(name, _) in COUNTERS {
            let vals: Vec<f64> = iters
                .iter()
                .map(|i| i.kernel_counters[k].get(name).copied().unwrap_or(0.0))
                .collect();
            let (lo, hi) = band(&vals);
            if hi == 0.0 {
                continue;
            }
            if lo == hi {
                exact.push(format!("{name}={lo}"));
            } else {
                banded.push(format!("{name}={lo}..{hi}"));
            }
        }
        let _ = writeln!(rep, "  {:<6} exact: {}", kernel.name(), exact.join(" "));
        let _ = writeln!(
            rep,
            "  {:<6} banded: {}",
            "",
            if banded.is_empty() { "none".into() } else { banded.join(" ") }
        );
    }
}

/// Print the per-kernel virtual times beside Figure 3. The other
/// platform's times come from its last run in this checkout, if any.
fn fig3_readings(w: Workload, kernel_virts: &[[u64; 3]], rep: &mut String) {
    let mine: Vec<f64> = (0..3)
        .map(|k| median(&kernel_virts.iter().map(|v| v[k] as f64 / 1e9).collect::<Vec<_>>()))
        .collect();
    let _ = std::fs::create_dir_all(OUT_DIR);
    let file = |wl: Workload| format!("{OUT_DIR}/{}-kernel-virt.txt", wl.name());
    let text: String = mine.iter().map(|v| format!("{v}\n")).collect();
    let _ = std::fs::write(file(w), text);
    let other =
        if w == Workload::SwKernels { Workload::HybridKernels } else { Workload::SwKernels };
    let theirs: Option<Vec<f64>> = std::fs::read_to_string(file(other))
        .ok()
        .map(|t| t.lines().filter_map(|l| l.parse().ok()).collect())
        .filter(|v: &Vec<f64>| v.len() == 3);
    let _ = writeln!(rep, "Figure 3 readings (a reading, not a gate; the model is not validated beyond this comparison):");
    for (k, (name, paper, measured)) in FIG3.iter().enumerate() {
        let adv = theirs.as_ref().map_or("n/a (run the other kernel workload)".to_string(), |t| {
            let (sw, hy) = if w == Workload::SwKernels { (mine[k], t[k]) } else { (t[k], mine[k]) };
            format!("{:+.1}%", ratio(sw - hy, sw) * 100.0)
        });
        let _ = writeln!(
            rep,
            "  {name:<6} {:.6} virtual s here | hybrid advantage {adv} | paper {paper} | EXPERIMENTS.md {measured}",
            mine[k]
        );
    }
}

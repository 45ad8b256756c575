//! Criterion micro-benchmarks of the framework implementation itself
//! (host wall-clock cost of the simulation's primitives; the *virtual*
//! times of the paper's figures come from the `fig*` binaries).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_diff(c: &mut Criterion) {
    use memwire::{Diff, PAGE_SIZE};
    let twin = vec![0u8; PAGE_SIZE];
    let mut cur = twin.clone();
    for i in (0..PAGE_SIZE).step_by(97) {
        cur[i] = 1;
    }
    c.bench_function("diff_create_sparse_page", |b| {
        b.iter(|| Diff::between(black_box(&twin), black_box(&cur)))
    });
    let d = Diff::between(&twin, &cur);
    c.bench_function("diff_apply_sparse_page", |b| {
        let mut page = twin.clone();
        b.iter(|| d.apply(black_box(&mut page)))
    });

    // One relaxation step over a page of f64s (the SOR shape): every
    // value moves a little, so its low mantissa bytes change and its
    // exponent bytes stay, leaving hundreds of short runs per page.
    let values: Vec<f64> = (0..PAGE_SIZE / 8).map(|i| 1.0 + i as f64 / 3.0).collect();
    let twin: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    let cur: Vec<u8> =
        values.iter().flat_map(|v| (0.75 * v + 0.25 * (v + 1e-3)).to_le_bytes()).collect();
    c.bench_function("diff_create_dense_f64_page", |b| {
        b.iter(|| Diff::between(black_box(&twin), black_box(&cur)))
    });
    let d = Diff::between(&twin, &cur);
    c.bench_function("diff_apply_dense_f64_page", |b| {
        let mut page = twin.clone();
        b.iter(|| d.apply(black_box(&mut page)))
    });
}

fn bench_clock_and_server(c: &mut Criterion) {
    use sim::{Server, VirtualClock};
    let clock = VirtualClock::new();
    c.bench_function("virtual_clock_advance", |b| b.iter(|| clock.advance(black_box(7))));
    let server = Server::new();
    c.bench_function("server_serve", |b| b.iter(|| server.serve(black_box(5), black_box(3))));
}

fn bench_statset(c: &mut Criterion) {
    use sim::StatSet;
    let s = StatSet::new(&["a", "b", "c"]);
    c.bench_function("statset_add_by_name", |b| b.iter(|| s.add(black_box("b"), 1)));
}

fn bench_network_roundtrip(c: &mut Criterion) {
    use interconnect::{downcast, Network, Outcome};
    use sim::{LinkCost, VirtualClock};
    let link = LinkCost {
        send_overhead_ns: 10,
        recv_overhead_ns: 10,
        latency_ns: 100,
        bytes_per_sec: 1_000_000_000,
        handler_ns: 10,
    };
    let net = Network::builder(2, link).build();
    net.router(1).register(1, |_c, _s, p| Outcome::reply(downcast::<u64>(p) + 1, 8));
    let port = net.port(0, VirtualClock::new());
    c.bench_function("fabric_request_roundtrip", |b| {
        b.iter(|| downcast::<u64>(port.request(1, 1, black_box(5u64), 8)))
    });
}

fn bench_dsm_ops(c: &mut Criterion) {
    use cluster::{Cluster, FabricConfig, LinkKind};
    use memwire::Distribution;
    use swdsm::{DsmConfig, SwDsm};
    // Single node: exercise the local fast paths (collective allocation
    // with one participant completes immediately).
    let cl = Cluster::new(FabricConfig::builder().nodes(1).link(LinkKind::Ethernet).build());
    let dsm = SwDsm::install(&cl, DsmConfig::default());
    let node = dsm.node(cl.node_ctx(0));
    let a = node.alloc(4096, Distribution::Block);
    c.bench_function("swdsm_local_read_u64", |b| b.iter(|| node.read_u64(black_box(a))));
    c.bench_function("swdsm_local_write_u64", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(1);
            node.write_u64(black_box(a), v)
        })
    });
    c.bench_function("swdsm_bulk_read_4k", |b| {
        let mut buf = vec![0u8; 4096];
        b.iter(|| node.read_bytes(black_box(a), &mut buf))
    });
}

fn bench_hybrid_ops(c: &mut Criterion) {
    use cluster::{Cluster, FabricConfig, LinkKind};
    use hybriddsm::{HybridConfig, HybridDsm};
    use memwire::Distribution;
    let cl = Cluster::new(FabricConfig::builder().nodes(1).link(LinkKind::Sci).build());
    let dsm = HybridDsm::install(&cl, HybridConfig::default());
    let node = dsm.node(cl.node_ctx(0));
    let a = node.alloc(4096, Distribution::Block);
    c.bench_function("hybrid_local_read_u64", |b| b.iter(|| node.read_u64(black_box(a))));
    c.bench_function("hybrid_local_write_u64", |b| {
        b.iter(|| node.write_u64(black_box(a), black_box(3)))
    });
}

criterion_group!(
    benches,
    bench_diff,
    bench_clock_and_server,
    bench_statset,
    bench_network_roundtrip,
    bench_dsm_ops,
    bench_hybrid_ops
);
criterion_main!(benches);

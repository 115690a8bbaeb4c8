//! Event-loop hot-path benchmarks: the calendar-queue scheduler in
//! isolation (a wheel-heavy hold mix and a real cell's push-delay mix),
//! plus the two canonical end-to-end scenarios tracked in
//! `BENCH_netsim.json` (see `src/bin/bench_netsim.rs`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use csig_netsim::{EventKind, EventQueue, LinkConfig, NodeId, SimDuration, SimTime, Simulator};
use csig_tcp::{ClientBehavior, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Hold-model scheduler loop: pre-fill `pending` events, then pop one
/// and push one `offset(rng)` nanoseconds after the popped event's time,
/// `ops` times. Pending stays at `pending`.
fn hold(ops: u64, seed: u64, pending: u32, offset: fn(&mut StdRng) -> u64) -> u64 {
    let mut q = EventQueue::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = SimTime::ZERO;
    for i in 0..pending {
        q.push(
            now + SimDuration::from_nanos(offset(&mut rng)),
            EventKind::Start(NodeId(i)),
        );
    }
    let mut popped = 0u64;
    for _ in 0..ops {
        if let Some(e) = q.pop() {
            now = e.time;
            popped += 1;
        }
        q.push(
            now + SimDuration::from_nanos(offset(&mut rng)),
            EventKind::Start(NodeId(0)),
        );
    }
    popped
}

/// A classic hold-model mix: ~1k events pending, mostly short-horizon
/// offsets (the LinkService/Deliver regime), salted with same-tick ties
/// and occasional far-future events that exercise the overflow tier.
/// Nearly every push goes through the wheel.
fn hold_mix_offset(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..100u32) {
        // Same-tick tie: lands in the bucket being drained.
        0..=4 => 0,
        // Far future: beyond the wheel window, via the overflow heap.
        5..=6 => rng.gen_range(400_000_000..2_000_000_000),
        // Short horizon: the service/delivery regime.
        _ => rng.gen_range(1..2_000_000),
    }
}

/// The push-delay mix measured on one 40-flow `external` campaign cell
/// (about 110 events pending): most pushes land at the current instant
/// or within a bucket of it and go straight to the near tier. Shares are
/// per mille of the pushes in the listed ranges (98.2% of the cell's
/// pushes; the rest fell in ranges between these).
fn cell_mix_offset(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..982u32) {
        0..=367 => 0,
        368..=442 => rng.gen_range(1..=64),
        443..=520 => rng.gen_range(65..=500),
        521..=590 => rng.gen_range(501..=2_000),
        591..=752 => rng.gen_range(8_000..=16_000),
        753..=824 => rng.gen_range(33_000..=65_000),
        825..=980 => rng.gen_range(500_000..=1_000_000),
        _ => rng.gen_range(270_000_000..=1_000_000_000),
    }
}

fn lean_tcp() -> TcpConfig {
    TcpConfig {
        record_samples: false,
        ..TcpConfig::default()
    }
}

/// One 4 MB transfer over a 50 Mbps / 10 ms duplex.
fn single_flow(seed: u64) -> u64 {
    let mut sim = Simulator::new(seed);
    let server = sim.add_host(Box::new(TcpServerAgent::new(
        lean_tcp(),
        ServerSendPolicy::Fixed(4_000_000),
    )));
    let client = sim.add_host(Box::new(TcpClientAgent::new(
        server,
        lean_tcp(),
        ClientBehavior::Once,
        1,
    )));
    sim.add_duplex_link(
        server,
        client,
        LinkConfig::new(50_000_000, SimDuration::from_millis(10)).buffer_ms(50),
    );
    sim.compute_routes();
    sim.set_event_budget(50_000_000);
    sim.run();
    sim.events_processed()
}

/// 32 clients fetching 1 MB each through a shared 100 Mbps bottleneck.
fn contended_32(seed: u64) -> u64 {
    let mut sim = Simulator::new(seed);
    let mut server_agent = TcpServerAgent::new(lean_tcp(), ServerSendPolicy::Fixed(1_000_000));
    server_agent.keep_completed = false;
    let server = sim.add_host(Box::new(server_agent));
    let r1 = sim.add_router();
    let r2 = sim.add_router();
    sim.add_duplex_link(
        server,
        r1,
        LinkConfig::new(1_000_000_000, SimDuration::from_millis(1)),
    );
    sim.add_duplex_link(
        r1,
        r2,
        LinkConfig::new(100_000_000, SimDuration::from_millis(10)).buffer_ms(50),
    );
    for i in 0..32u32 {
        let client = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            lean_tcp(),
            ClientBehavior::Once,
            i + 1,
        )));
        sim.add_duplex_link(
            r2,
            client,
            LinkConfig::new(1_000_000_000, SimDuration::from_millis(1)),
        );
    }
    sim.compute_routes();
    sim.set_event_budget(200_000_000);
    sim.run();
    sim.events_processed()
}

fn bench_event_loop(c: &mut Criterion) {
    const HOLD_OPS: u64 = 200_000;
    let single_events = single_flow(1);
    let contended_events = contended_32(1);

    let mut g = c.benchmark_group("event_loop");
    g.throughput(Throughput::Elements(HOLD_OPS));
    g.bench_function("scheduler_hold_mix", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(hold(HOLD_OPS, seed, 1024, hold_mix_offset))
        })
    });
    g.bench_function("scheduler_cell_mix", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(hold(HOLD_OPS, seed, 110, cell_mix_offset))
        })
    });
    g.throughput(Throughput::Elements(single_events));
    g.bench_function("single_flow_4mb", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(single_flow(seed))
        })
    });
    g.sample_size(10);
    g.throughput(Throughput::Elements(contended_events));
    g.bench_function("contended_bottleneck_32", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(contended_32(seed))
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_event_loop
}
criterion_main!(benches);

//! Event-loop throughput tracker: times the simulator hot path on two
//! canonical scenarios and writes a machine-readable `BENCH_netsim.json`
//! so the performance trajectory is recorded PR over PR.
//!
//! Scenarios:
//! * `single_flow` — one 4 MB TCP transfer over a 50 Mbps / 10 ms duplex.
//! * `contended_32` — 32 TCP clients behind one shared 100 Mbps
//!   bottleneck, all ramping together (the paper's self-induced
//!   congestion shape, scaled up).
//!
//! Each scenario runs `--reps` times (default 5) and reports the
//! *fastest* repetition (wall-clock noise only ever slows a run down).
//! The figures are for the host they were measured on; a speed claim
//! is an A/B of two builds on one host, not a ratio against a number
//! recorded elsewhere.
//!
//! Usage: `bench_netsim [--reps N] [--out PATH]`

use csig_netsim::{LinkConfig, SimDuration, Simulator};
use csig_tcp::{ClientBehavior, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent};
use std::time::Instant;

/// One timed scenario outcome.
struct Measurement {
    name: &'static str,
    events: u64,
    wall_s: f64,
    peak_pending: usize,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
    fn ns_per_event(&self) -> f64 {
        self.wall_s * 1e9 / self.events as f64
    }
}

fn lean_tcp() -> TcpConfig {
    TcpConfig {
        record_samples: false,
        ..TcpConfig::default()
    }
}

/// One 4 MB transfer over a simple duplex path.
fn single_flow(seed: u64) -> Simulator {
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
    sim
}

/// 32 clients, each on its own access link, all fetching 1 MB through a
/// shared 100 Mbps bottleneck at once.
fn contended_32(seed: u64) -> Simulator {
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
    // The contended bottleneck: 100 Mbps, 10 ms, 50 ms of buffer.
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
    sim
}

fn run_scenario(name: &'static str, reps: u32, build: fn(u64) -> Simulator) -> Measurement {
    let mut best: Option<Measurement> = None;
    for rep in 0..reps {
        let mut sim = build(1 + rep as u64);
        sim.set_event_budget(200_000_000);
        let start = Instant::now();
        sim.run();
        let wall_s = start.elapsed().as_secs_f64();
        let m = Measurement {
            name,
            events: sim.events_processed(),
            wall_s,
            peak_pending: peak_pending(&sim),
        };
        best = match best {
            Some(b) if b.wall_s <= m.wall_s => Some(b),
            _ => Some(m),
        };
    }
    match best {
        Some(b) => b,
        None => unreachable!("reps >= 1"),
    }
}

/// High-water mark of the scheduler's pending-event count.
fn peak_pending(sim: &Simulator) -> usize {
    sim.peak_pending_events()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let mut reps: u32 = 5;
    let mut out = String::from("BENCH_netsim.json");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--reps" => {
                i += 1;
                reps = args[i].parse().unwrap_or(5).max(1);
            }
            "--out" => {
                i += 1;
                out.clone_from(&args[i]);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    type Scenario = (&'static str, fn(u64) -> Simulator);
    let scenarios: Vec<Scenario> =
        vec![("single_flow", single_flow), ("contended_32", contended_32)];

    let mut entries = Vec::new();
    for (name, build) in scenarios {
        let m = run_scenario(name, reps, build);
        let fields = format!(
            "      \"events\": {},\n      \"wall_s\": {:.6},\n      \"events_per_sec\": {:.0},\n      \"ns_per_event\": {:.1},\n      \"peak_pending_events\": {}",
            m.events,
            m.wall_s,
            m.events_per_sec(),
            m.ns_per_event(),
            m.peak_pending,
        );
        eprintln!(
            "{:>14}: {:>9} events in {:.3}s = {:>10.0} events/sec ({:.0} ns/event, peak pending {})",
            m.name,
            m.events,
            m.wall_s,
            m.events_per_sec(),
            m.ns_per_event(),
            m.peak_pending,
        );
        entries.push(format!(
            "    \"{}\": {{\n{}\n    }}",
            json_escape(name),
            fields
        ));
    }

    let doc = format!(
        "{{\n  \"reps\": {reps},\n  \"scenarios\": {{\n{}\n  }}\n}}\n",
        entries.join(",\n")
    );
    if let Err(e) = std::fs::write(&out, &doc) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");
}

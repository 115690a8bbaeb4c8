//! The simulation workloads: `self_induced` and `external` testbed
//! cells run through the executor, one verdict (or typed skip) each.

use crate::alloc::AllocStats;
use crate::setup::{Setup, UNIT_STREAM};
use crate::stats::{highest_tail, median, percentile, ratio};
use crate::{run_chunks, Phase, Workload, MIN_UNITS};
use csig_core::SignatureClassifier;
use csig_exec::{Campaign, Executor, Scenario};
use csig_features::{CongestionClass, FlowFeatures, FlowProbe};
use csig_netsim::rng::derive_seed;
use csig_netsim::{PacketRecord, PacketSink, SimDuration};
use csig_obs::{MetricsRegistry, Snapshot};
use csig_tcp::TcpServerAgent;
use csig_testbed::{
    build, run_test_observed, small_grid, Profile, SweepScenario, TestResult, TestbedConfig,
    TEST_FLOW,
};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Units per executor campaign: four rounds of the 3 × 3 grid, so
/// every chunk holds each grid point equally often and a two-worker
/// chunk idles only at its tail.
const CHUNK: usize = 36;

/// The `i`-th unit of the workload's stream: grid point `i mod 9`, with
/// its own seed from the unit stream. Units never repeat, so a run
/// measures as many distinct cells as fit in its time.
fn unit(workload: Workload, seed: u64, i: usize) -> (u64, SweepScenario) {
    let grid = small_grid();
    let cell = SweepScenario {
        access: grid[i % grid.len()],
        external: workload == Workload::External,
        profile: Profile::Scaled,
    };
    (
        derive_seed(derive_seed(seed, UNIT_STREAM), i as u64 + 1),
        cell,
    )
}

/// Units `range` of the stream as a campaign, each wrapped by `wrap`.
fn campaign<S>(
    setup: &Setup,
    range: std::ops::Range<usize>,
    wrap: impl Fn(SweepScenario) -> S,
) -> Campaign<S> {
    let mut campaign = Campaign::new(setup.seed);
    for i in range {
        let (seed, cell) = unit(setup.workload, setup.seed, i);
        campaign.push_seeded(seed, wrap(cell));
    }
    campaign
}

/// Chunk `c` of the stream.
fn chunk<S>(setup: &Setup, c: usize, wrap: impl Fn(SweepScenario) -> S) -> Campaign<S> {
    campaign(setup, c * CHUNK..(c + 1) * CHUNK, wrap)
}

/// Report any of the first `n` unit seeds that the training sweep used.
fn check_disjoint(setup: &Setup, n: usize, phase: &mut Phase) {
    let train: BTreeSet<u64> = setup.train_seeds.iter().copied().collect();
    for i in 0..n {
        let (seed, _) = unit(setup.workload, setup.seed, i);
        if train.contains(&seed) {
            phase
                .problems
                .push(format!("unit {i} seed {seed:#x} is also a training seed"));
        }
    }
}

/// The testbed configuration a `SweepScenario` runs (mirrors its
/// private `config`; the traced run checks the two agree).
fn config(cell: &SweepScenario, seed: u64) -> TestbedConfig {
    let cfg = cell.profile.config(cell.access, seed);
    if cell.external {
        cfg.externally_congested()
    } else {
        cfg
    }
}

/// What must repeat exactly when a unit runs again.
fn fingerprint(r: &TestResult) -> String {
    format!("{:?} {:?} {}", r.features, r.slow_start, r.events)
}

/// Verdict class, or `None` for a typed skip.
fn classify(clf: &SignatureClassifier, r: &TestResult) -> Option<CongestionClass> {
    r.features
        .as_ref()
        .ok()
        .map(|f| clf.classify_with_confidence(f).0)
}

/// Run one unit untimed so lazy set-up and caches are warm.
pub fn warm_up(workload: Workload, seed: u64, clf: &SignatureClassifier) {
    let (s, cell) = unit(workload, seed, 0);
    black_box(classify(clf, &cell.run(s)));
}

/// One timed unit: `run_test` through `SweepScenario`, then inference.
struct Unit<'a> {
    cell: SweepScenario,
    clf: &'a SignatureClassifier,
}

struct UnitOut {
    elapsed: Duration,
    events: u64,
    fingerprint: String,
    verdict: Option<CongestionClass>,
    intended: CongestionClass,
}

impl Scenario for Unit<'_> {
    type Artifact = UnitOut;

    fn run(&self, seed: u64) -> UnitOut {
        let t = Instant::now();
        let r = self.cell.run(seed);
        let verdict = classify(self.clf, &r);
        let elapsed = t.elapsed();
        UnitOut {
            elapsed,
            events: r.events,
            fingerprint: fingerprint(&r),
            verdict,
            intended: r.intended,
        }
    }
}

/// Verdicts matching the intended class, and verdicts.
#[derive(Default)]
struct Accuracy {
    right: u64,
    verdicts: u64,
}

impl Accuracy {
    fn add(&mut self, verdict: Option<CongestionClass>, intended: CongestionClass) {
        if let Some(class) = verdict {
            self.verdicts += 1;
            self.right += u64::from(class == intended);
        }
    }

    fn value(&self) -> f64 {
        ratio(self.right as f64, self.verdicts as f64)
    }
}

/// Add `unit_ms_p50`/`unit_ms_p90` and their sample counts.
pub fn unit_times(phase: &mut Phase, unit_ms: &[f64]) {
    let n = unit_ms.len();
    if highest_tail(n).is_none() {
        phase
            .problems
            .push(format!("{n} units cannot support a p90 (need {MIN_UNITS})"));
    }
    phase.metric("unit_ms_p50", median(unit_ms), "ms");
    phase.metric(
        "unit_ms_p90",
        percentile(unit_ms, 90.0).unwrap_or(0.0),
        "ms",
    );
    phase.notes.push(format!(
        "unit_ms_p50 and unit_ms_p90 over n={n} units; highest supported tail p{}",
        highest_tail(n).unwrap_or(0.0)
    ));
}

/// Chunks every run completes: the reference set for accuracy and the
/// p90 (`MIN_UNITS` rounded up to whole chunks).
const REFERENCE_CHUNKS: usize = MIN_UNITS.div_ceil(CHUNK);

/// Units re-run after the timed phase to check they repeat exactly.
const RECHECK: usize = 9;

/// The end-to-end run: chunks of distinct cells, tracing off.
pub fn timed(workload: Workload, setup: &Setup, budget: Duration) -> Phase {
    let mut phase = Phase::default();
    let exec = Executor::new(workload.jobs());
    let clf = &setup.clf;
    let wrap = |cell| Unit { cell, clf };
    let mut first: Vec<Option<String>> = vec![None; RECHECK];
    let mut unit_ms = Vec::new();
    let mut events = 0u64;
    let mut accuracy = Accuracy::default();
    let chunks = run_chunks(
        &exec,
        budget,
        REFERENCE_CHUNKS,
        |c| chunk(setup, c, wrap),
        |c, i, out| {
            phase.attempted += 1;
            let out = match out {
                Ok(out) => out,
                Err(e) => return phase.fail(e.to_string()),
            };
            if c < REFERENCE_CHUNKS {
                accuracy.add(out.verdict, out.intended);
            }
            if c == 0 && i < RECHECK {
                first[i] = Some(out.fingerprint);
            }
            unit_ms.push(out.elapsed.as_secs_f64() * 1e3);
            events += out.events;
        },
    );
    check_disjoint(setup, chunks.count * CHUNK, &mut phase);
    let ok = phase.attempted - phase.failed;
    phase.speed = chunks.speed;
    let again = exec.run_isolated(&campaign(setup, 0..RECHECK, wrap));
    for (i, out) in again.outcomes.into_iter().enumerate() {
        phase.attempted += 1;
        if out.ok().map(|o| o.fingerprint) != first[i] {
            phase.fail(format!("unit {i} gave a different result when run again"));
        }
    }
    let secs = chunks.wall.as_secs_f64();
    phase.metric("verdicts_per_s", ok as f64 / secs, "1/s");
    unit_times(&mut phase, &unit_ms);
    phase.metric("sim_events_per_s", events as f64 / secs, "1/s");
    phase.metric("accuracy", accuracy.value(), "frac");
    phase.notes.push(format!(
        "{} chunks of {CHUNK} distinct cells in {secs:.3} s on {} workers; \
         accuracy {}/{} verdicts over the first {} cells; the first {RECHECK} cells then ran again",
        chunks.count,
        exec.jobs(),
        accuracy.right,
        accuracy.verdicts,
        REFERENCE_CHUNKS * CHUNK
    ));
    phase
}

/// `FlowProbe` behind a sink that times each `push`.
struct TimedProbe {
    probe: FlowProbe,
    busy: Duration,
    records: u64,
}

impl PacketSink for TimedProbe {
    fn on_record(&mut self, rec: &PacketRecord) {
        let t = Instant::now();
        self.probe.push(rec);
        self.busy += t.elapsed();
        self.records += 1;
    }
}

/// Deterministic counters read from the `run_test_observed` snapshot.
const SNAPSHOT_COUNTERS: [&str; 14] = [
    "sim.events",
    "sim.packets_sent",
    "sim.packets_delivered",
    "sim.packets_dropped",
    "sim.queue_hwm_bytes",
    "tcp.segments_sent",
    "tcp.retransmits",
    "tcp.fast_retransmits",
    "tcp.timeouts",
    "tcp.rtt_samples",
    "tcp.bytes_acked",
    "rtt.samples",
    "flows.verdicts",
    "flows.skips_insufficient",
];

fn snapshot_value(snap: &Snapshot, name: &str) -> u64 {
    snap.counter(name).or_else(|| snap.gauge(name)).unwrap_or(0)
}

/// One traced unit: the plain unit, its public-call replica with every
/// layer timed, and `run_test_observed`, on the same cell.
struct TracedUnit<'a> {
    cell: SweepScenario,
    clf: &'a SignatureClassifier,
}

#[derive(Default)]
struct TracedOut {
    busy: Duration,
    plain: Duration,
    observed: Duration,
    unit: Duration,
    build: Duration,
    run: Duration,
    tap: Duration,
    extract: Duration,
    classify: Duration,
    events: u64,
    records: u64,
    peak_pending: u64,
    peak_pool: u64,
    allocs: u64,
    run_allocs: u64,
    peak_bytes: u64,
    counters: [u64; SNAPSHOT_COUNTERS.len()],
    features: Option<FlowFeatures>,
    analysis: String,
    verdict: Option<CongestionClass>,
    intended: Option<CongestionClass>,
    problems: Vec<String>,
}

impl Scenario for TracedUnit<'_> {
    type Artifact = TracedOut;

    fn run(&self, seed: u64) -> TracedOut {
        let started = Instant::now();
        let mut out = TracedOut::default();

        let t = Instant::now();
        let plain = self.cell.run(seed);
        black_box(classify(self.clf, &plain));
        out.plain = t.elapsed();

        let cfg = config(&self.cell, seed);
        self.replica(&cfg, &mut out);
        if out.events != plain.events {
            out.problems.push(format!(
                "replica ran {} events, run_test {}",
                out.events, plain.events
            ));
        }
        if out.analysis != format!("{:?} {:?}", plain.features, plain.slow_start) {
            out.problems
                .push("replica features or slow start differ from run_test".into());
        }
        out.intended = Some(plain.intended);

        let reg = MetricsRegistry::new();
        let t = Instant::now();
        let observed = run_test_observed(&cfg, &reg, None);
        black_box(classify(self.clf, &observed));
        out.observed = t.elapsed();
        if format!("{observed:?}") != format!("{plain:?}") {
            out.problems
                .push("run_test_observed result differs from run_test".into());
        }
        let snap = reg.snapshot();
        for (slot, name) in out.counters.iter_mut().zip(SNAPSHOT_COUNTERS) {
            *slot = snapshot_value(&snap, name);
        }
        if out.counters[0] != plain.events {
            // SNAPSHOT_COUNTERS[0] is `sim.events`.
            out.problems
                .push("sim.events differs from TestResult::events".into());
        }
        out.busy = started.elapsed();
        out
    }
}

impl TracedUnit<'_> {
    /// `run_test` rebuilt from public calls, each layer timed.
    fn replica(&self, cfg: &TestbedConfig, out: &mut TracedOut) {
        let alloc = AllocStats::now();
        let t0 = Instant::now();
        let mut tb = build(cfg);
        out.build = t0.elapsed();
        let probe = TimedProbe {
            probe: FlowProbe::new(TEST_FLOW),
            busy: Duration::ZERO,
            records: 0,
        };
        let handle = tb.sim.attach_sink(tb.server1, Box::new(probe));
        let horizon = tb.test_end + SimDuration::from_millis(500);
        let allocs_before_run = alloc.allocs_since();
        let t = Instant::now();
        tb.sim.run_until(horizon);
        out.run = t.elapsed();
        out.run_allocs = alloc.allocs_since() - allocs_before_run;
        black_box(
            tb.sim
                .agent::<TcpServerAgent>(tb.server1)
                .and_then(|s| s.connection(TEST_FLOW).map(|c| c.stats.clone())),
        );
        if let Some(p) = tb.sim.sink::<TimedProbe>(handle) {
            let t = Instant::now();
            let features = p.probe.features();
            let slow_start = p.probe.slow_start();
            black_box((p.probe.throughput(), p.probe.capacity_estimate_bps()));
            out.extract = t.elapsed();
            out.analysis = format!("{features:?} {slow_start:?}");
            let t = Instant::now();
            out.verdict = features
                .as_ref()
                .ok()
                .map(|f| self.clf.classify_with_confidence(f).0);
            out.classify = t.elapsed();
            out.features = features.ok();
            out.tap = p.busy;
            out.records = p.records;
        } else {
            out.problems
                .push("timed probe missing after the run".into());
        }
        out.events = tb.sim.events_processed();
        out.peak_pending = tb.sim.peak_pending_events() as u64;
        out.peak_pool = tb.sim.peak_pool_packets() as u64;
        drop(tb);
        out.unit = t0.elapsed();
        out.allocs = alloc.allocs_since();
        out.peak_bytes = alloc.peak_bytes_since();
    }
}

/// Add the reconciliation notes and `unaccounted_frac`: the share of
/// `unit` (summed over `n` units) that `layers` do not cover.
pub fn reconcile(
    phase: &mut Phase,
    layers: &[(&str, Duration)],
    unit: Duration,
    n: usize,
    rest: &str,
) {
    let unit_s = unit.as_secs_f64();
    let per_unit = |d: f64| d * 1e3 / n.max(1) as f64;
    let accounted: f64 = layers.iter().map(|(_, d)| d.as_secs_f64()).sum();
    phase.metric("unaccounted_frac", 1.0 - accounted / unit_s, "frac");
    phase.notes.push(format!(
        "reconciliation over {n} traced units, {:.3} ms per unit:",
        per_unit(unit_s)
    ));
    let rows = layers
        .iter()
        .map(|(name, d)| (*name, d.as_secs_f64()))
        .chain([(rest, unit_s - accounted)]);
    for (name, d) in rows {
        phase.notes.push(format!(
            "  {name:<40} {:>8.3} ms/unit {:>7.4} of unit",
            per_unit(d),
            d / unit_s
        ));
    }
}

/// Mean nanoseconds per `classify_with_confidence` call over `features`.
pub fn classify_ns(clf: &SignatureClassifier, features: &[FlowFeatures]) -> f64 {
    if features.is_empty() {
        return 0.0;
    }
    let reps = (200_000 / features.len()).max(1);
    let t = Instant::now();
    for _ in 0..reps {
        for f in features {
            black_box(clf.classify_with_confidence(black_box(f)));
        }
    }
    t.elapsed().as_nanos() as f64 / (reps * features.len()) as f64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The traced run: every unit re-run through the replica and the
/// observed path; reports per-layer metrics.
pub fn traced(workload: Workload, setup: &Setup, budget: Duration) -> Phase {
    let mut phase = Phase::default();
    let exec = Executor::new(workload.jobs());
    let clf = &setup.clf;
    let mut all: Vec<TracedOut> = Vec::new();
    let mut first_chunk = 0;
    let chunks = run_chunks(
        &exec,
        budget,
        1,
        |c| chunk(setup, c, |cell| TracedUnit { cell, clf }),
        |c, i, out| {
            phase.attempted += 1;
            match out {
                Ok(out) if out.problems.is_empty() => {
                    first_chunk += usize::from(c == 0);
                    all.push(out)
                }
                Ok(out) => phase.fail(format!("unit {i}: {}", out.problems.join("; "))),
                Err(e) => phase.fail(e.to_string()),
            }
        },
    );
    check_disjoint(setup, chunks.count * CHUNK, &mut phase);
    phase.speed = chunks.speed.clone();
    let first = &all[..first_chunk];
    let n_first = first.len().max(1) as f64;
    let mean = |f: &dyn Fn(&TracedOut) -> u64| first.iter().map(f).sum::<u64>() as f64 / n_first;
    let max = |f: &dyn Fn(&TracedOut) -> u64| first.iter().map(f).max().unwrap_or(0) as f64;
    let sum = |f: &dyn Fn(&TracedOut) -> Duration| all.iter().map(f).sum::<Duration>();
    let med = |f: &dyn Fn(&TracedOut) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    let all_events: u64 = all.iter().map(|o| o.events).sum();
    let all_records: u64 = all.iter().map(|o| o.records).sum();

    let counter = |name: &str| {
        let i = SNAPSHOT_COUNTERS.iter().position(|n| *n == name);
        i.map_or(0.0, |i| mean(&|o| o.counters[i]))
    };
    let netsim = |o: &TracedOut| o.run.saturating_sub(o.tap);
    phase.metric("netsim.run_ms", med(&|o| ms(netsim(o))), "ms");
    phase.metric(
        "netsim.ns_per_event",
        ratio(sum(&netsim).as_nanos() as f64, all_events as f64),
        "ns",
    );
    phase.metric("netsim.events", mean(&|o| o.events), "count");
    phase.metric(
        "netsim.peak_pending_events",
        max(&|o| o.peak_pending),
        "count",
    );
    phase.metric("netsim.peak_pool_packets", max(&|o| o.peak_pool), "count");
    phase.metric(
        "netsim.packets_dropped",
        counter("sim.packets_dropped"),
        "count",
    );
    phase.metric(
        "netsim.queue_hwm_bytes",
        counter("sim.queue_hwm_bytes"),
        "B",
    );
    phase.metric("features.tap_ms", med(&|o| ms(o.tap)), "ms");
    phase.metric("features.records", mean(&|o| o.records), "count");
    phase.metric(
        "features.ns_per_record",
        ratio(sum(&|o| o.tap).as_nanos() as f64, all_records as f64),
        "ns",
    );
    phase.metric("features.extract_us", med(&|o| ms(o.extract) * 1e3), "us");
    phase.metric("tcp.segments_sent", counter("tcp.segments_sent"), "count");
    phase.metric("tcp.retransmits", counter("tcp.retransmits"), "count");
    phase.metric("tcp.rtt_samples", counter("tcp.rtt_samples"), "count");
    phase.metric("rtt.samples", counter("rtt.samples"), "count");
    phase.metric("testbed.build_us", med(&|o| ms(o.build) * 1e3), "us");
    phase.metric(
        "exec.busy_frac",
        sum(&|o| o.busy).as_secs_f64() / (chunks.wall.as_secs_f64() * exec.jobs() as f64),
        "frac",
    );
    let features: Vec<FlowFeatures> = first.iter().filter_map(|o| o.features).collect();
    phase.metric(
        "dtree.classify_ns",
        classify_ns(&setup.clf, &features),
        "ns",
    );
    phase.metric(
        "alloc.per_event",
        ratio(
            first.iter().map(|o| o.run_allocs).sum::<u64>() as f64,
            first.iter().map(|o| o.events).sum::<u64>() as f64,
        ),
        "count",
    );
    phase.metric("alloc.per_unit", mean(&|o| o.allocs), "count");
    phase.metric("alloc.peak_bytes", max(&|o| o.peak_bytes), "B");
    let plain = sum(&|o| o.plain).as_secs_f64();
    phase.metric(
        "obs.overhead_frac",
        sum(&|o| o.observed).as_secs_f64() / plain - 1.0,
        "frac",
    );
    let unit = sum(&|o| o.unit);
    phase.metric(
        "trace_overhead_frac",
        unit.as_secs_f64() / plain - 1.0,
        "frac",
    );
    let layers = [
        ("testbed.build", sum(&|o| o.build)),
        ("netsim (scheduler + link + tcp agents)", sum(&netsim)),
        ("features.tap", sum(&|o| o.tap)),
        ("features.extract", sum(&|o| o.extract)),
        ("dtree.classify", sum(&|o| o.classify)),
    ];
    reconcile(
        &mut phase,
        &layers,
        unit,
        all.len(),
        "unaccounted (teardown, ConnStats copy)",
    );
    phase.notes.push(
        "scheduler, link/queue and TCP-agent time share netsim.run_ms until in-program spans land"
            .into(),
    );

    let mut accuracy = Accuracy::default();
    for o in first {
        if let Some(intended) = o.intended {
            accuracy.add(o.verdict, intended);
        }
    }
    phase.notes.push(format!(
        "{} traced chunks of {CHUNK} cells on {} workers; counters are means over the first chunk ({} units); accuracy {}/{}",
        chunks.count,
        exec.jobs(),
        first.len(),
        accuracy.right,
        accuracy.verdicts
    ));
    for (i, name) in SNAPSHOT_COUNTERS.iter().enumerate() {
        phase.notes.push(format!(
            "counter {name} = {} (mean per unit, first chunk)",
            mean(&|o| o.counters[i])
        ));
    }
    phase.notes.push(format!(
        "counter netsim.peak_pending_events = {}, netsim.peak_pool_packets = {}, alloc.per_unit = {} (first chunk)",
        max(&|o| o.peak_pending),
        max(&|o| o.peak_pool),
        mean(&|o| o.allocs)
    ));
    phase
}

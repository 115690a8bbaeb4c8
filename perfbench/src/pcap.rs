//! The `classify_pcap` workload: the offline `csig classify` path over
//! multiplexed server-side captures simulated during set-up.

use crate::alloc::AllocStats;
use crate::setup::{Setup, CAPTURE_STREAM};
use crate::sim::{classify_ns, reconcile, unit_times};
use crate::stats::{median, ratio};
use crate::{run_chunks, Phase, MIN_UNITS};
use csig_core::{analyze_capture, FlowReport, LiveAnalyzer, SignatureClassifier};
use csig_exec::{Campaign, Executor, Scenario};
use csig_features::{CongestionClass, FlowFeatures};
use csig_netsim::rng::derive_seed;
use csig_netsim::{Capture, FlowId, SimDuration};
use csig_obs::MetricsRegistry;
use csig_testbed::{build, small_grid, AccessParams, TestbedConfig, TEST_FLOW};
use csig_trace::{import_pcap, write_pcap, ServerSelector};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Captures each set-up repetition simulates. Repetitions simulate
/// distinct captures, so three give a pass of 108.
pub const CAPTURES_PER_SETUP: usize = 36;

/// A simulated capture and what classifying it must give.
pub struct CaptureCase {
    /// Records tapped at the measurement server.
    pub capture: Capture,
    /// What the cell was built to create.
    pub intended: CongestionClass,
    /// Flow id the test flow gets on import (flows are numbered in
    /// order of first appearance).
    pub test_flow: u32,
    /// `analyze_capture` on the in-memory capture, per imported flow id.
    pub expected: Vec<(u32, String)>,
    /// Events the simulation processed.
    pub events: u64,
    /// Seconds the simulation took.
    pub sim_s: f64,
}

/// §3.3 multiplexing cell: the test flow shares the access link with
/// `cross` bulk flows from the same server.
struct CaptureCell {
    access: AccessParams,
    external: bool,
    cross: u32,
}

impl Scenario for CaptureCell {
    type Artifact = (Capture, CongestionClass, u64, Duration);

    fn run(&self, seed: u64) -> Self::Artifact {
        let t = Instant::now();
        let mut cfg = TestbedConfig::scaled(self.access, seed);
        cfg.access_cross_flows = self.cross;
        if self.external {
            cfg = cfg.externally_congested();
        }
        let mut tb = build(&cfg);
        let handle = tb.attach_capture();
        tb.sim
            .run_until(tb.test_end + SimDuration::from_millis(500));
        let events = tb.sim.events_processed();
        let capture = tb.sim.take_capture(handle);
        (capture, cfg.intended_class(), events, t.elapsed())
    }
}

/// What a verdict must keep through a pcap round trip. The importer
/// rebases timestamps to the first packet's second, so the slow-start
/// window is compared by its length, not its position.
fn verdict_key(r: &FlowReport) -> String {
    match &r.verdict {
        Ok(v) => {
            let ss = &v.slow_start;
            let len_ns = ss
                .first_data_at
                .zip(ss.end)
                .map(|(a, b)| i128::from(b.as_nanos()) - i128::from(a.as_nanos()));
            format!(
                "{:?} {} {:?} {len_ns:?} {}",
                v.class, v.confidence, v.features, ss.bytes_acked
            )
        }
        Err(e) => format!("{e:?}"),
    }
}

/// Capture cell `i`: grid point `i mod 9`, self and external
/// alternating, 2–5 access cross flows (each count with both classes),
/// with its own seed.
fn cell(seed: u64, i: usize) -> (u64, CaptureCell) {
    let grid = small_grid();
    let cell = CaptureCell {
        access: grid[i % grid.len()],
        external: i % 2 == 1,
        cross: 2 + (i / 2 % 4) as u32,
    };
    (
        derive_seed(derive_seed(seed, CAPTURE_STREAM), i as u64 + 1),
        cell,
    )
}

/// Simulate captures `part × 36 …` and record their in-memory verdicts.
pub fn generate(
    seed: u64,
    part: usize,
    clf: &SignatureClassifier,
) -> Result<Vec<CaptureCase>, String> {
    let mut campaign = Campaign::new(seed);
    for i in part * CAPTURES_PER_SETUP..(part + 1) * CAPTURES_PER_SETUP {
        let (s, c) = cell(seed, i);
        campaign.push_seeded(s, c);
    }
    let run = Executor::new(0).run_isolated(&campaign);
    if !run.is_success() {
        return Err(run.summary());
    }
    let mut cases = Vec::new();
    for (capture, intended, events, sim) in run.artifacts() {
        // Import numbers flows by first appearance among TCP records.
        let mut order: Vec<FlowId> = Vec::new();
        for rec in &capture.records {
            if rec.pkt.tcp().is_some() && !order.contains(&rec.pkt.flow) {
                order.push(rec.pkt.flow);
            }
        }
        let id = |f: FlowId| order.iter().position(|&o| o == f).map(|p| p as u32);
        let mut expected: Vec<(u32, String)> = analyze_capture(clf, &capture)
            .iter()
            .filter_map(|r| Some((id(r.flow)?, verdict_key(r))))
            .collect();
        expected.sort();
        let test_flow = id(TEST_FLOW).ok_or("test flow missing from a capture")?;
        cases.push(CaptureCase {
            capture,
            intended,
            test_flow,
            expected,
            events,
            sim_s: sim.as_secs_f64(),
        });
    }
    Ok(cases)
}

/// Whether simulating capture 0 again gives the same records.
pub fn first_repeats(seed: u64, cases: &[CaptureCase]) -> bool {
    let (s, c) = cell(seed, 0);
    let (capture, ..) = c.run(s);
    cases
        .first()
        .is_some_and(|case| case.capture.records == capture.records)
}

/// Export, re-import and classify one capture.
fn round_trip(case: &CaptureCase, clf: &SignatureClassifier) -> Result<Vec<FlowReport>, String> {
    let mut bytes = Vec::new();
    write_pcap(&case.capture, &mut bytes).map_err(|e| e.to_string())?;
    let imported =
        import_pcap(&bytes[..], ServerSelector::MostBytesSent).map_err(|e| e.to_string())?;
    Ok(analyze_capture(clf, &imported))
}

/// Compare round-trip reports with the in-memory ones; return the test
/// flow's verdict class (`None` for a skip).
fn check(case: &CaptureCase, reports: &[FlowReport]) -> Result<Option<CongestionClass>, String> {
    let got: Vec<(u32, String)> = reports.iter().map(|r| (r.flow.0, verdict_key(r))).collect();
    if got != case.expected {
        let (g, e) = got
            .iter()
            .zip(&case.expected)
            .find(|(g, e)| g != e)
            .map_or((None, None), |(g, e)| (Some(g), Some(e)));
        return Err(format!(
            "round trip gave {} reports, in memory {}; first difference {g:?} vs {e:?}",
            got.len(),
            case.expected.len()
        ));
    }
    let test = reports
        .iter()
        .find(|r| r.flow.0 == case.test_flow)
        .ok_or("test flow missing after import")?;
    Ok(test.verdict.as_ref().ok().map(|v| v.class))
}

/// Classify one capture untimed so caches are warm.
pub fn warm_up(clf: &SignatureClassifier, cases: &[CaptureCase]) {
    if let Some(case) = cases.first() {
        black_box(round_trip(case, clf).ok());
    }
}

/// One timed unit: `write_pcap` → `import_pcap` → `analyze_capture`.
struct Unit<'a> {
    case: &'a CaptureCase,
    clf: &'a SignatureClassifier,
}

struct UnitOut {
    elapsed: Duration,
    flows: u64,
    verdict: Option<CongestionClass>,
}

impl Scenario for Unit<'_> {
    type Artifact = Result<UnitOut, String>;

    fn run(&self, _seed: u64) -> Self::Artifact {
        let t = Instant::now();
        let reports = round_trip(self.case, self.clf)?;
        let elapsed = t.elapsed();
        Ok(UnitOut {
            elapsed,
            flows: reports.len() as u64,
            verdict: check(self.case, &reports)?,
        })
    }
}

fn campaign<'a, S>(setup: &'a Setup, wrap: impl Fn(&'a CaptureCase) -> S) -> Campaign<S> {
    let mut campaign = Campaign::new(setup.seed);
    for (i, case) in setup.captures.iter().enumerate() {
        campaign.push_seeded(i as u64, wrap(case));
    }
    campaign
}

/// Test-flow accuracy over the first pass.
fn accuracy(cases: &[CaptureCase], verdicts: &[Option<CongestionClass>]) -> (u64, u64) {
    let mut right = 0;
    let mut total = 0;
    for (case, v) in cases.iter().zip(verdicts) {
        if let Some(class) = v {
            total += 1;
            right += u64::from(*class == case.intended);
        }
    }
    (right, total)
}

/// The end-to-end run over the captures, tracing off.
pub fn timed(setup: &Setup, budget: Duration) -> Phase {
    let mut phase = Phase::default();
    let clf = &setup.clf;
    let exec = Executor::sequential();
    let mut unit_ms = Vec::new();
    let mut flows = 0u64;
    let mut first = vec![None; setup.captures.len()];
    let min_passes = MIN_UNITS.div_ceil(setup.captures.len().max(1));
    let make_pass = |_| campaign(setup, |case| Unit { case, clf });
    let passes = run_chunks(&exec, budget, min_passes, make_pass, |pass, i, out| {
        phase.attempted += 1;
        match out {
            Ok(Ok(out)) => {
                if pass == 0 {
                    first[i] = out.verdict;
                }
                unit_ms.push(out.elapsed.as_secs_f64() * 1e3);
                flows += out.flows;
            }
            Ok(Err(e)) => phase.fail(format!("capture {i}: {e}")),
            Err(e) => phase.fail(e.to_string()),
        }
    });
    phase.speed = passes.speed;
    let secs = passes.wall.as_secs_f64();
    let (right, total) = accuracy(&setup.captures, &first);
    phase.metric("verdicts_per_s", flows as f64 / secs, "1/s");
    unit_times(&mut phase, &unit_ms);
    phase.metric(
        "sim_events_per_s",
        ratio(setup.sim_events as f64, setup.sim_busy_s),
        "1/s",
    );
    phase.metric("accuracy", ratio(right as f64, total as f64), "frac");
    phase.notes.push(format!(
        "{} passes of {} captures in {secs:.3} s; {flows} flow reports; test-flow accuracy {right}/{total}; \
         sim_events_per_s is the set-up simulation's (no simulation runs in the timed phase)",
        passes.count,
        setup.captures.len()
    ));
    phase
}

/// One traced unit: the plain unit, the same steps timed one by one,
/// and the analysis again through `LiveAnalyzer::with_metrics`.
struct TracedUnit<'a> {
    case: &'a CaptureCase,
    clf: &'a SignatureClassifier,
}

#[derive(Default)]
struct TracedOut {
    busy: Duration,
    plain: Duration,
    unit: Duration,
    write: Duration,
    import: Duration,
    analyze: Duration,
    observed: Duration,
    bytes: u64,
    allocs: u64,
    peak_bytes: u64,
    rtt_samples: u64,
    features: Vec<FlowFeatures>,
    verdict: Option<CongestionClass>,
}

impl Scenario for TracedUnit<'_> {
    type Artifact = Result<TracedOut, String>;

    fn run(&self, _seed: u64) -> Self::Artifact {
        let started = Instant::now();
        let mut out = TracedOut::default();
        let t = Instant::now();
        black_box(round_trip(self.case, self.clf)?);
        out.plain = t.elapsed();

        let alloc = AllocStats::now();
        let t0 = Instant::now();
        let mut bytes = Vec::new();
        write_pcap(&self.case.capture, &mut bytes).map_err(|e| e.to_string())?;
        out.write = t0.elapsed();
        let t = Instant::now();
        let imported =
            import_pcap(&bytes[..], ServerSelector::MostBytesSent).map_err(|e| e.to_string())?;
        out.import = t.elapsed();
        let t = Instant::now();
        let reports = analyze_capture(self.clf, &imported);
        out.analyze = t.elapsed();
        out.unit = t0.elapsed();
        out.allocs = alloc.allocs_since();
        out.peak_bytes = alloc.peak_bytes_since();
        out.bytes = bytes.len() as u64;
        out.verdict = check(self.case, &reports)?;

        let reg = MetricsRegistry::new();
        let t = Instant::now();
        let mut live = LiveAnalyzer::new(self.clf.clone()).with_metrics(&reg);
        for rec in &imported.records {
            live.push(rec);
        }
        let observed = live.finish();
        out.observed = t.elapsed();
        let same = observed.len() == reports.len()
            && observed
                .iter()
                .zip(&reports)
                .all(|(a, b)| a.flow == b.flow && verdict_key(a) == verdict_key(b));
        if !same {
            return Err("LiveAnalyzer::with_metrics verdicts differ from analyze_capture".into());
        }
        out.rtt_samples = reg.snapshot().counter("rtt.samples").unwrap_or(0);
        out.features = reports
            .iter()
            .filter_map(|r| r.verdict.as_ref().ok().map(|v| v.features))
            .collect();
        out.busy = started.elapsed();
        Ok(out)
    }
}

/// The traced run: per-step timings of the round trip.
pub fn traced(setup: &Setup, budget: Duration) -> Phase {
    let mut phase = Phase::default();
    let clf = &setup.clf;
    let exec = Executor::sequential();
    let mut all: Vec<TracedOut> = Vec::new();
    let mut first_pass = 0;
    let make_pass = |_| campaign(setup, |case| TracedUnit { case, clf });
    let passes = run_chunks(&exec, budget, 1, make_pass, |pass, i, out| {
        phase.attempted += 1;
        match out {
            Ok(Ok(out)) => {
                first_pass += usize::from(pass == 0);
                all.push(out);
            }
            Ok(Err(e)) => phase.fail(format!("capture {i}: {e}")),
            Err(e) => phase.fail(e.to_string()),
        }
    });
    phase.speed = passes.speed.clone();
    let first = &all[..first_pass];
    let n_first = first.len().max(1) as f64;
    let mean = |f: &dyn Fn(&TracedOut) -> u64| first.iter().map(f).sum::<u64>() as f64 / n_first;
    let sum = |f: &dyn Fn(&TracedOut) -> Duration| all.iter().map(f).sum::<Duration>();
    let med_ms = |f: &dyn Fn(&TracedOut) -> Duration| {
        median(
            &all.iter()
                .map(|o| f(o).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };

    phase.metric("rtt.samples", mean(&|o| o.rtt_samples), "count");
    phase.metric(
        "exec.busy_frac",
        sum(&|o| o.busy).as_secs_f64() / passes.wall.as_secs_f64(),
        "frac",
    );
    phase.metric("trace.pcap_write_ms", med_ms(&|o| o.write), "ms");
    phase.metric("trace.pcap_import_ms", med_ms(&|o| o.import), "ms");
    phase.metric("trace.pcap_bytes", mean(&|o| o.bytes), "B");
    phase.metric("core.analyze_ms", med_ms(&|o| o.analyze), "ms");
    let features: Vec<FlowFeatures> = first.iter().flat_map(|o| o.features.clone()).collect();
    phase.metric(
        "dtree.classify_ns",
        classify_ns(&setup.clf, &features),
        "ns",
    );
    phase.metric("alloc.per_unit", mean(&|o| o.allocs), "count");
    phase.metric(
        "alloc.peak_bytes",
        first.iter().map(|o| o.peak_bytes).max().unwrap_or(0) as f64,
        "B",
    );
    let analyze = sum(&|o| o.analyze).as_secs_f64();
    phase.metric(
        "obs.overhead_frac",
        sum(&|o| o.observed).as_secs_f64() / analyze - 1.0,
        "frac",
    );
    let unit = sum(&|o| o.unit);
    phase.metric(
        "trace_overhead_frac",
        unit.as_secs_f64() / sum(&|o| o.plain).as_secs_f64() - 1.0,
        "frac",
    );
    let layers = [
        ("trace.pcap_write", sum(&|o| o.write)),
        ("trace.pcap_import", sum(&|o| o.import)),
        ("core.analyze (LiveAnalyzer + dtree)", sum(&|o| o.analyze)),
    ];
    reconcile(&mut phase, &layers, unit, all.len(), "unaccounted");

    let verdicts: Vec<Option<CongestionClass>> = first.iter().map(|o| o.verdict).collect();
    let (right, total) = accuracy(&setup.captures, &verdicts);
    phase.notes.push(format!(
        "{} traced passes of {} captures; counters are means over the first pass; test-flow accuracy {right}/{total}",
        passes.count,
        setup.captures.len()
    ));
    phase
}

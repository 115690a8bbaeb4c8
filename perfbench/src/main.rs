//! End-to-end and per-layer benchmark of the congestion-signature
//! pipeline.
//!
//! ```text
//! perfbench --workload <self_induced|external|classify_pcap> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up trains the classifier (and, for `classify_pcap`, simulates the
//! captures) three times and reports the median. The timed phase then
//! runs seed-derived units in executor campaigns until `--seconds` have
//! elapsed and at least [`MIN_UNITS`] units ran. With `--trace 0` the
//! last output line carries the end-to-end metrics; with `--trace 1`
//! every unit is also re-run through public-call replicas that time each
//! layer, and the line carries the per-layer metrics. Output checks run
//! in both modes; a failed check makes the line read `"correct": false`
//! and the exit code 1. See `README.md`.

mod alloc;
mod pcap;
mod report;
mod setup;
mod sim;
mod speed;
mod stats;

use csig_exec::{Campaign, Executor, Scenario, ScenarioOutcome};
use report::{Metric, Outcome};
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Fewest units a timed phase may measure: enough for ten samples
/// beyond the 90th percentile.
pub const MIN_UNITS: usize = 100;

/// Times set-up runs in one process; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Self-induced testbed cells, one worker.
    SelfInduced,
    /// Externally congested testbed cells, two workers.
    External,
    /// Offline classification of multiplexed server-side captures.
    ClassifyPcap,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "self_induced" => Some(Workload::SelfInduced),
            "external" => Some(Workload::External),
            "classify_pcap" => Some(Workload::ClassifyPcap),
            _ => None,
        }
    }

    /// Executor workers in the timed phase.
    pub fn jobs(self) -> usize {
        match self {
            Workload::External => 2,
            Workload::SelfInduced | Workload::ClassifyPcap => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What a timed or traced phase measured.
#[derive(Default)]
pub struct Phase {
    /// Units attempted.
    pub attempted: u64,
    /// Units that panicked, errored or failed a check.
    pub failed: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
    /// Calibration kernel times, ms.
    pub speed: Vec<f64>,
}

impl Phase {
    /// Record a metric for the result line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    /// Count one failed unit with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }
}

/// What [`run_chunks`] measured.
pub struct Chunks {
    /// Summed wall time of the chunks.
    pub wall: Duration,
    /// Chunks run.
    pub count: usize,
    /// Calibration kernel times, ms (see [`speed`]).
    pub speed: Vec<f64>,
}

/// Kernel samples per worker after each chunk.
const SPEED_SAMPLES: usize = 4;

/// Run campaigns `chunk(0)`, `chunk(1)`, … whole, until the chunk
/// boundary nearest `budget` once at least `min_chunks` ran, handing every outcome to
/// `each` with its chunk number and index in the chunk. After each chunk
/// every worker times the calibration kernel, outside the chunk's wall
/// time, so the samples see the same sharing of the cores as the units.
pub fn run_chunks<S, C, F>(
    exec: &Executor,
    budget: Duration,
    min_chunks: usize,
    chunk: C,
    mut each: F,
) -> Chunks
where
    S: Scenario + Sync,
    C: Fn(usize) -> Campaign<S>,
    F: FnMut(usize, usize, ScenarioOutcome<S::Artifact>),
{
    let start = Instant::now();
    let mut out = Chunks {
        wall: Duration::ZERO,
        count: 0,
        speed: Vec::new(),
    };
    let kernel = |_: u64| speed::sample();
    let mut calibration = Campaign::new(0);
    for _ in 0..exec.jobs() * SPEED_SAMPLES {
        calibration.push(kernel);
    }
    loop {
        let campaign = chunk(out.count);
        let t = Instant::now();
        let run = exec.run_isolated(&campaign);
        out.wall += t.elapsed();
        for (index, outcome) in run.outcomes.into_iter().enumerate() {
            each(out.count, index, outcome);
        }
        out.count += 1;
        out.speed
            .extend(exec.run_isolated(&calibration).artifacts());
        // Stop at the chunk boundary nearest the budget.
        let elapsed = start.elapsed();
        let half_chunk = elapsed / (2 * out.count as u32);
        if out.count >= min_chunks && elapsed + half_chunk >= budget {
            return out;
        }
    }
}

/// Peak resident set of this process, MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    println!(
        "# workload={:?} seed={} seconds={} trace={} jobs={} available_parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.jobs(),
        csig_exec::default_jobs()
    );

    let setup = match setup::repeated(args.workload, args.seed, SETUP_REPS) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "# set-up: {} reps, median {:.3} s, dtree.train_ms median {:.3}",
        SETUP_REPS, setup.setup_s, setup.train_ms
    );

    let mut phase = match (args.workload, args.trace) {
        (Workload::ClassifyPcap, false) => pcap::timed(&setup, budget),
        (Workload::ClassifyPcap, true) => pcap::traced(&setup, budget),
        (w, false) => sim::timed(w, &setup, budget),
        (w, true) => sim::traced(w, &setup, budget),
    };
    phase.problems.splice(0..0, setup.problems.iter().cloned());

    if args.trace {
        phase.metric("dtree.train_ms", setup.train_ms, "ms");
        // Layers a workload does not exercise read 0.
        phase.metrics = in_order(&phase.metrics, PER_LAYER, Some(0.0)).unwrap_or_default();
    } else {
        phase.metric("setup_s", setup.setup_s, "s");
        match peak_rss_mb() {
            Some(mb) => phase.metric("peak_rss_mb", mb, "MB"),
            None => phase.problems.push("cannot read VmHWM".into()),
        }
        match in_order(&phase.metrics, END_TO_END, None) {
            Ok(ordered) => phase.metrics = ordered,
            Err(name) => phase.problems.push(format!("metric {name} missing")),
        }
    }

    let mut samples = setup.speed.clone();
    samples.extend(&phase.speed);
    let k = speed::factor(&samples);
    phase.notes.push(format!(
        "host speed: calibration kernel median {} ms over {} samples; timings are scaled by {k} \
         to a host where it takes {} ms (raw values follow)",
        stats::median(&samples),
        samples.len(),
        speed::REFERENCE_MS
    ));
    for m in &mut phase.metrics {
        let raw = m.value;
        speed::scale(m, k);
        if m.value != raw {
            phase
                .notes
                .push(format!("raw {} = {raw} {}", m.name, m.unit));
        }
    }
    for note in &phase.notes {
        println!("# {note}");
    }
    let failed_frac = stats::ratio(phase.failed as f64, phase.attempted as f64);
    println!(
        "# failed_frac = {failed_frac} ({} of {} units)",
        phase.failed, phase.attempted
    );
    for p in phase.problems.iter().take(20) {
        println!("# CHECK FAILED: {p}");
    }
    if phase.problems.len() > 20 {
        println!("# … {} more failed checks", phase.problems.len() - 20);
    }
    for m in &phase.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let outcome = Outcome {
        correct: phase.problems.is_empty() && phase.failed == 0,
        attempted: phase.attempted.max(1),
        failed: phase.failed,
        metrics: phase.metrics,
    };
    let line = outcome.to_json();
    if let Err(e) = report::parse_outcome(&line) {
        eprintln!("perfbench: malformed result line ({e}): {line}");
        std::process::exit(2);
    }
    println!("{line}");
    if !outcome.correct {
        std::process::exit(1);
    }
}

/// End-to-end metrics in report order, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("sim_events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "frac"),
];

/// Per-layer metrics in report order, with units. Counts are means per
/// unit over the first pass; times are medians per unit or ratios of
/// sums over every traced unit (see `README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.run_ms", "ms"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.events", "count"),
    ("netsim.peak_pending_events", "count"),
    ("netsim.peak_pool_packets", "count"),
    ("netsim.packets_dropped", "count"),
    ("netsim.queue_hwm_bytes", "B"),
    ("features.tap_ms", "ms"),
    ("features.records", "count"),
    ("features.ns_per_record", "ns"),
    ("features.extract_us", "us"),
    ("tcp.segments_sent", "count"),
    ("tcp.retransmits", "count"),
    ("tcp.rtt_samples", "count"),
    ("rtt.samples", "count"),
    ("testbed.build_us", "us"),
    ("exec.busy_frac", "frac"),
    ("trace.pcap_write_ms", "ms"),
    ("trace.pcap_import_ms", "ms"),
    ("trace.pcap_bytes", "B"),
    ("core.analyze_ms", "ms"),
    ("dtree.classify_ns", "ns"),
    ("dtree.train_ms", "ms"),
    ("alloc.per_event", "count"),
    ("alloc.per_unit", "count"),
    ("alloc.peak_bytes", "B"),
    ("obs.overhead_frac", "frac"),
    ("unaccounted_frac", "frac"),
    ("trace_overhead_frac", "frac"),
];

/// `measured` reordered to `names`, with the listed units. A name not
/// measured takes the value `absent`, or without one fails the call
/// with that name.
fn in_order(
    measured: &[Metric],
    names: &[(&str, &str)],
    absent: Option<f64>,
) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|&(name, unit)| {
            let value = match measured.iter().find(|m| m.name == name) {
                Some(m) => m.value,
                None => absent.ok_or_else(|| name.to_string())?,
            };
            Ok(Metric {
                name: name.into(),
                value,
                unit: unit.into(),
            })
        })
        .collect()
}

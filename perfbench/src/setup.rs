//! Set-up: train the classifier on a sweep whose seeds are disjoint from
//! every timed unit, build the workload's inputs, and warm the path once.

use crate::pcap::{self, CaptureCase};
use crate::{sim, speed, stats, Workload};
use csig_core::{train_from_results, SignatureClassifier};
use csig_dtree::TreeParams;
use csig_exec::Executor;
use csig_netsim::rng::derive_seed;
use csig_testbed::{small_grid, Profile, Sweep};
use std::time::Instant;

/// Congestion threshold for labeling training flows (the `csig train`
/// default).
const THRESHOLD: f64 = 0.7;

/// Repetitions of every grid point and scenario in the training sweep.
const TRAIN_REPS: u32 = 1;

/// Seed streams derived from `--seed`, one per input family.
pub const TRAIN_STREAM: u64 = 1;
/// Seed stream of the timed testbed cells.
pub const UNIT_STREAM: u64 = 2;
/// Seed stream of the simulated captures.
pub const CAPTURE_STREAM: u64 = 3;

/// Everything the timed phase needs, plus set-up measurements.
pub struct Setup {
    /// The workload this set-up serves.
    pub workload: Workload,
    /// The `--seed` everything derives from.
    pub seed: u64,
    /// The trained model.
    pub clf: SignatureClassifier,
    /// Seeds of the training cells (never used by a timed unit).
    pub train_seeds: Vec<u64>,
    /// Captures to classify (`classify_pcap` only).
    pub captures: Vec<CaptureCase>,
    /// Median set-up wall time, s.
    pub setup_s: f64,
    /// Median model-fitting time, ms.
    pub train_ms: f64,
    /// Events simulated during set-up, over every repetition.
    pub sim_events: u64,
    /// Busy seconds those set-up simulations took.
    pub sim_busy_s: f64,
    /// Calibration kernel times taken around the repetitions, ms.
    pub speed: Vec<f64>,
    /// Failed set-up checks.
    pub problems: Vec<String>,
}

struct Trained {
    clf: SignatureClassifier,
    train_ms: f64,
    seeds: Vec<u64>,
    events: u64,
    busy_s: f64,
}

fn train(seed: u64) -> Result<Trained, String> {
    let sweep = Sweep {
        grid: small_grid(),
        reps: TRAIN_REPS,
        profile: Profile::Scaled,
        seed: derive_seed(seed, TRAIN_STREAM),
    };
    let campaign = sweep.campaign();
    let seeds = campaign.iter().map(|(s, _)| *s).collect();
    let mut busy_s = 0.0;
    let run = Executor::new(0)
        .run_isolated_with_progress(&campaign, |e| busy_s += e.scenario_elapsed.as_secs_f64());
    if !run.is_success() {
        return Err(run.summary());
    }
    let results = run.artifacts();
    let t = Instant::now();
    let clf = train_from_results(&results, THRESHOLD, TreeParams::default())
        .ok_or("training sweep labeled a single class")?;
    Ok(Trained {
        clf,
        train_ms: t.elapsed().as_secs_f64() * 1e3,
        seeds,
        events: results.iter().map(|r| r.events).sum(),
        busy_s,
    })
}

/// Run set-up `reps` times and report median timings. Every repetition
/// trains the model, which must come out the same each time; for
/// `classify_pcap` each also simulates its own 36 captures.
pub fn repeated(workload: Workload, seed: u64, reps: usize) -> Result<Setup, String> {
    let mut setup_s = Vec::new();
    let mut train_ms = Vec::new();
    let mut problems = Vec::new();
    let mut sim_events = 0;
    let mut sim_busy_s = 0.0;
    let mut speed = Vec::new();
    let mut models = Vec::new();
    let mut captures = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        speed.extend((0..5).map(|_| speed::sample()));
        let t = Instant::now();
        let trained = train(seed)?;
        let before = captures.len();
        if workload == Workload::ClassifyPcap {
            captures.extend(pcap::generate(seed, rep, &trained.clf)?);
            pcap::warm_up(&trained.clf, &captures[before..]);
        } else {
            sim::warm_up(workload, seed, &trained.clf);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        train_ms.push(trained.train_ms);
        let new = &captures[before..];
        sim_events += trained.events + new.iter().map(|c| c.events).sum::<u64>();
        sim_busy_s += trained.busy_s + new.iter().map(|c| c.sim_s).sum::<f64>();
        models.push(trained.clf.to_json());
        last = Some(trained);
    }
    speed.extend((0..5).map(|_| speed::sample()));
    if models.windows(2).any(|w| w[0] != w[1]) {
        problems.push("set-up repetitions trained different models".into());
    }
    if workload == Workload::ClassifyPcap && !pcap::first_repeats(seed, &captures) {
        problems.push("capture 0 simulated again gave different records".into());
    }
    let trained = last.ok_or("no set-up repetitions")?;
    Ok(Setup {
        workload,
        seed,
        clf: trained.clf,
        train_seeds: trained.seeds,
        captures,
        setup_s: stats::median(&setup_s),
        train_ms: stats::median(&train_ms),
        sim_events,
        sim_busy_s,
        speed,
        problems,
    })
}

//! # dgf-perfbench — the DfMS benchmark
//!
//! Four seeded workloads drive the system through its public API only:
//! DGL XML through a journaled `DfmsServer` (`wire_ingest`), a two-shard
//! `Fabric` (`fabric_history`), `Dfms::recover` over a generated journal
//! (`crash_recover`) and a checksum sweep over a replicated library
//! (`integrity_sweep`). Every output is checked. The untraced binary
//! prints the end-to-end metrics; the traced binary (counting allocator,
//! benchmark-side spans) prints the per-layer metrics. See `README.md`
//! in this directory for the metric and workload definitions.

pub mod common;
pub mod crash_recover;
pub mod fabric_history;
pub mod integrity_sweep;
pub mod record;
pub mod stats;
pub mod trace;
pub mod wire_ingest;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// The workloads, in the order the documentation lists them.
pub const WORKLOADS: [&str; 4] = [
    "wire_ingest",
    "fabric_history",
    "crash_recover",
    "integrity_sweep",
];

/// The end-to-end metrics every workload reports, each defined on the
/// workload's own traffic (name, unit).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics the traced run reports (name, unit). A layer a
/// workload never calls reports 0 on that workload.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("xml.parse_us_per_kb", "us/KiB"),
    ("dgl.parse_us_per_request", "us/req"),
    ("dgl.response_bytes", "B/resp"),
    ("lint.gate_us_per_flow", "us/flow"),
    ("lint.allocs_per_flow", "allocs/flow"),
    ("dfms.steps", "count"),
    ("dfms.step_us", "us/step"),
    ("dfms.allocs_per_step", "allocs/step"),
    ("dfms.provenance_us_per_record", "us/record"),
    ("dfms.provenance_allocs_per_record", "allocs/record"),
    ("dfms.history_cost_ratio", "ratio"),
    ("dfms.runs_retained", "count"),
    ("obs.spans_per_kflow", "spans/kflow"),
    ("obs.why_marks_per_kflow", "marks/kflow"),
    ("obs.why_paths_per_kflow", "paths/kflow"),
    ("obs.events_total", "count"),
    ("obs.scrape_bytes", "B"),
    ("dfms.server.lock_hold_us", "us/req"),
    ("dfms.server.queue_wait_us", "us/req"),
    ("dfms.server.handoff_us", "us/req"),
    ("dfms.server.queue_depth_max", "count"),
    ("dfms.server.submit_p99_ms", "ms/req"),
    ("dfms.server.status_p50_ms", "ms/req"),
    ("dfms.server.status_p99_ms", "ms/req"),
    ("dfms.server.scrape_p50_ms", "ms/req"),
    ("journal.records_per_command", "records/cmd"),
    ("journal.bytes_per_command", "B/cmd"),
    ("journal.fsyncs_per_command", "fsyncs/cmd"),
    ("journal.append_us_per_record", "us/record"),
    ("journal.checkpoints", "count"),
    ("journal.checkpoint_submit_ms", "ms/submit"),
    ("journal.checkpoint_submit_share", "ratio"),
    ("journal.file_bytes", "B"),
    ("journal.errors", "count"),
    ("journal.read_ms_per_mb", "ms/MiB"),
    ("dfms.recovery.commands_replayed", "count"),
    ("dfms.recovery.records_verified", "count"),
    ("dfms.recovery.divergences", "count"),
    ("dfms.recovery.steps_skipped_restart", "count"),
    ("dfms.recovery.redrive_ms", "ms/recovery"),
    ("dfms.recovery.checkpoint_ms", "ms/recovery"),
    ("fabric.route_us", "us/req"),
    ("fabric.pump_ms_first_tenth", "ms/wave"),
    ("fabric.pump_ms_last_tenth", "ms/wave"),
    ("fabric.deliveries", "count"),
    ("fabric.federated_runs", "count"),
    ("fabric.shard_step_skew", "ratio"),
    ("scheduler.schedule_us_per_binding", "us/binding"),
    ("scheduler.retries_per_exec", "ratio"),
    ("scheduler.virtual_data_hit_ratio", "ratio"),
    ("triggers.firings", "count"),
    ("triggers.eval_us_per_firing", "us/firing"),
    ("dgms.digest_ms_per_object", "ms/object"),
    ("dgms.digest_share_of_round", "ratio"),
    ("dgms.ops", "count"),
    ("dgms.bytes_moved", "B"),
    ("dgms.checksum_mismatches", "count"),
    ("simgrid.sim_s", "sim_s"),
];

/// Per-layer metrics that must repeat exactly between two traced runs
/// of one seed (the counts later changes can cite as counts).
pub const EXACT_COUNTS: [&str; 20] = [
    "dgl.response_bytes",
    "lint.allocs_per_flow",
    "dfms.steps",
    "dfms.allocs_per_step",
    "dfms.provenance_allocs_per_record",
    "dfms.runs_retained",
    "obs.spans_per_kflow",
    "obs.why_marks_per_kflow",
    "obs.why_paths_per_kflow",
    "obs.scrape_bytes",
    "journal.records_per_command",
    "journal.bytes_per_command",
    "journal.fsyncs_per_command",
    "journal.checkpoints",
    "journal.file_bytes",
    "dfms.recovery.commands_replayed",
    "dfms.recovery.records_verified",
    "fabric.deliveries",
    "fabric.federated_runs",
    "simgrid.sim_s",
];

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Config {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Timed-phase budget: whole repetitions run until it is spent.
    pub seconds: f64,
    /// Traced run: per-layer metrics, benchmark-side spans.
    pub traced: bool,
    /// Where journals, run records and traces go.
    pub work_dir: PathBuf,
}

impl Config {
    /// A fresh directory for this run's journals.
    pub fn journal_dir(&self) -> PathBuf {
        let dir = self.work_dir.join("journals").join(format!(
            "{}-{}",
            self.workload,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .expect("create the journal directory inside the work directory");
        dir
    }
}

/// Operation accounting: every operation attempted, every one that
/// failed or whose output was wrong, and the first few reasons.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Run-level invariants that did not hold.
    pub broken: u64,
    /// The first reasons, for the log.
    pub reasons: Vec<String>,
}

impl Checks {
    const KEEP: usize = 8;

    /// Count one operation; `ok` says whether its output checked out.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(why());
        }
    }

    /// Check a run-level invariant (not an operation).
    pub fn invariant(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.broken += 1;
            self.note(why());
        }
    }

    fn note(&mut self, reason: String) {
        if self.reasons.len() < Self::KEEP {
            self.reasons.push(reason);
        }
    }

    /// True when nothing failed and every invariant held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken == 0 && self.attempted > 0
    }
}

/// One workload-specific end-to-end value, kept in the run record and
/// printed with its sample count.
#[derive(Debug, Clone)]
pub struct Detail {
    /// Name, as the workload table defines it (`submit_p99_ms`, ...).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
}

/// Everything a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation accounting.
    pub checks: Checks,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// The workload's headline rate (operations per second), taken
    /// across the repetitions as the workload's module describes.
    pub throughput_per_s: f64,
    /// The workload's unit-operation time, ms, taken the same way.
    pub op_ms: f64,
    /// Workload-specific end-to-end values.
    pub details: Vec<Detail>,
    /// Per-layer values (traced runs), by [`PER_LAYER`] name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Raw series for the run record.
    pub series: Vec<(String, Vec<f64>)>,
    /// Per-repetition series for the run record (position `i` of each
    /// repetition is the same operation).
    pub per_rep: Vec<(String, Vec<Vec<f64>>)>,
    /// Timed repetitions run.
    pub repetitions: usize,
}

impl Outcome {
    /// Record a workload-specific value.
    pub fn detail(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) {
        self.details.push(Detail {
            name: name.into(),
            unit,
            value,
            samples,
        });
    }

    /// Record a percentile detail, or note that the samples cannot
    /// support it.
    pub fn percentile_detail(&mut self, name: &str, samples: &[f64], p: f64) -> Option<f64> {
        match stats::percentile(samples, p) {
            Ok(v) => {
                self.detail(name, "ms", v, samples.len());
                Some(v)
            }
            Err(r) => {
                println!(
                    "  {name}: refused ({} samples, {} beyond)",
                    r.samples, r.beyond
                );
                None
            }
        }
    }

    /// Set a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// Keep a raw series for the run record.
    pub fn keep(&mut self, name: &str, samples: &[f64]) {
        self.series.push((name.to_owned(), samples.to_vec()));
    }

    /// Keep a per-repetition series for the run record.
    pub fn keep_reps(&mut self, name: &str, reps: &[Vec<f64>]) {
        self.per_rep.push((name.to_owned(), reps.to_vec()));
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run one workload.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Outcome {
    match cfg.workload.as_str() {
        "wire_ingest" => wire_ingest::run(cfg, tracer),
        "fabric_history" => fabric_history::run(cfg, tracer),
        "crash_recover" => crash_recover::run(cfg, tracer),
        "integrity_sweep" => integrity_sweep::run(cfg, tracer),
        other => unreachable!("workload {other:?} was validated by the argument parser"),
    }
}

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> [--work-dir <dir>] [--commit <sha>]";

/// Parse the command line into a [`Config`] and the commit label.
pub fn parse_args(args: &[String], traced: bool) -> Result<(Config, String), String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced,
        work_dir: PathBuf::from(".perfbench"),
    };
    let mut commit = "unknown".to_owned();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => cfg.workload = value()?,
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--work-dir" => cfg.work_dir = PathBuf::from(value()?),
            "--commit" => commit = value()?,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}\n{USAGE}"));
    }
    if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok((cfg, commit))
}

/// The shared `main` of both binaries: run, record, print the result.
/// Returns the process exit code.
pub fn main_with(traced: bool) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, commit) = match parse_args(&args, traced) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!(
        "perfbench {} seed={} seconds={} traced={}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.traced
    );
    let mut tracer = Tracer::new(traced);
    let outcome = run(&cfg, &mut tracer);
    let peak_rss_mb = common::peak_rss_mb();
    let metrics = record::metrics(&cfg, &outcome, peak_rss_mb);
    record::print_details(&outcome);
    for (name, unit, value) in &metrics {
        println!("  {name} = {value} {unit}");
    }
    for reason in &outcome.checks.reasons {
        println!("  CHECK FAILED: {reason}");
    }
    match record::write_run_record(&cfg, &commit, &outcome, &metrics, traced.then_some(&tracer)) {
        Ok(path) => println!("  run record: {}", path.display()),
        Err(e) => println!("  run record not written: {e}"),
    }
    println!("{}", record::result_line(&outcome.checks, &metrics));
    0
}

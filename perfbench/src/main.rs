//! End-to-end and per-layer benchmark of the paper's real jobs.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload as a closed loop with one client for `S` seconds,
//! checks every job's output, and prints every metric with its unit; the
//! last line of standard output is the JSON result. `--trace 0` gives
//! the end-to-end metrics, measured with tracing off; `--trace 1`
//! replays the jobs with a span around every layer call and gives the
//! per-layer metrics. NOTES.md explains the workloads and metrics.
//!
//! The shard coordinator spawns its workers by re-running this
//! executable as `perfbench shard work --connect HOST:PORT ...`.

mod calibrate;
mod jobs;
mod stats;
mod traced;

use jobs::{reference_digest, run_job, Ctx, JobResult, Seeds, WorkCounts, Workload};
use sfr_core::exec::NullProgress;
use stats::{median, result_json, tail, Metric};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 4] = [
    ("norm_jobs_per_s", "1/s"),
    ("norm_job_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, as in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 32] = [
    ("build.ms", "ms"),
    ("build.gates", "count"),
    ("lint.ms", "ms"),
    ("lint.faults_pruned", "count"),
    ("lint.prune_ratio", "ratio"),
    ("collapse.ms", "ms"),
    ("collapse.ratio", "ratio"),
    ("golden.ms", "ms"),
    ("faultsim.ms", "ms"),
    ("faultsim.faults", "count"),
    ("faultsim.drop_ratio", "ratio"),
    ("faultsim.cycles", "count"),
    ("analyze.ms", "ms"),
    ("analyze.faults", "count"),
    ("analyze.us_per_fault", "us"),
    ("analyze.class_member_share", "ratio"),
    ("grade.ms", "ms"),
    ("grade.packs", "count"),
    ("grade.lane_occupancy", "ratio"),
    ("grade.mc_batches", "count"),
    ("grade.converged_ratio", "ratio"),
    ("grade.lane_cycles", "count"),
    ("grade.ns_per_lane_cycle", "ns"),
    ("testset.ms", "ms"),
    ("worstcase.ms", "ms"),
    ("shard.ms", "ms"),
    ("shard.leases", "count"),
    ("shard.fenced", "count"),
    ("shard.remote_share", "ratio"),
    ("shard.over_local_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.bench_overhead_pct", "%"),
];

struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = jobs::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (expected {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| format!("bad --seconds `{value}` (a whole number >= 1)"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() >= 2 && args[0] == "shard" && args[1] == "work" {
        std::process::exit(shard_worker(&args[2..]));
    }
    match parse_options(&args) {
        Ok(opts) => std::process::exit(run(&opts)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    }
}

/// A shard worker spawned by this benchmark's coordinator.
fn shard_worker(args: &[String]) -> i32 {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let Some(connect) = flag("--connect") else {
        eprintln!("perfbench worker: missing --connect");
        return 2;
    };
    let defaults = sfr_shard::WorkConfig::default();
    let cfg = sfr_shard::WorkConfig {
        connect: connect.clone(),
        max_retries: flag("--max-retries")
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.max_retries),
        ..defaults
    };
    match sfr_shard::work(&cfg, &NullProgress) {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            1
        }
    }
}

/// Runs `f`, turning a panic into an error: a caught panic is a failed
/// job, never a crashed benchmark.
fn caught<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(format!(
            "panic: {}",
            sfr_core::exec::panic_message(&*payload)
        )),
    }
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Tracks a run's jobs: how many were attempted, which failed and why,
/// and that every job repeats the first one's work counts.
#[derive(Default)]
struct Ledger {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    /// The first successful job's work counts, per kind of job the run
    /// executes.
    counts: BTreeMap<&'static str, WorkCounts>,
}

impl Ledger {
    /// Books one job of kind `kind`; returns its wall time in ms when
    /// it succeeded with the reference digest and the work counts of
    /// the run's first job of that kind.
    fn book(
        &mut self,
        kind: &'static str,
        reference: Option<u64>,
        result: Result<JobResult, String>,
    ) -> Option<f64> {
        self.attempted += 1;
        let failure = match result {
            Err(e) => e,
            Ok(job) if Some(job.digest) != reference => format!(
                "output digest {:#018x} differs from the reference {}",
                job.digest,
                reference.map_or("(none)".into(), |r| format!("{r:#018x}"))
            ),
            Ok(job) => match self.counts.get(kind) {
                Some(first) if *first != job.counts => {
                    format!("work counts changed: {} (first job: {first})", job.counts)
                }
                _ => {
                    self.counts.entry(kind).or_insert(job.counts);
                    return Some(ms(job.elapsed));
                }
            },
        };
        self.failed += 1;
        self.failures.push(format!("{kind}: {failure}"));
        None
    }
}

/// Set-up rounds before the first timed job; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;

fn run(opts: &Options) -> i32 {
    let started = Instant::now();
    let w = opts.workload;
    let seeds = Seeds::new(opts.seed);
    let work_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
        .join("perfbench-work");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return 1;
    }
    println!(
        "perfbench {} seed {} (test seed {:#x}, grade seed {:#x}), {} thread(s), {} s, trace {}",
        w.name(),
        opts.seed,
        seeds.test,
        seeds.grade,
        w.threads(),
        opts.seconds,
        u8::from(opts.trace)
    );
    let mut bench = Bench {
        w,
        ctx: Ctx { work_dir, seeds },
        ledger: Ledger::default(),
        setup_s: Vec::new(),
        setup_raw_s: Vec::new(),
        kernel_ms: vec![calibrate::kernel_ms()],
        reference: None,
    };

    for _ in 0..SETUP_ROUNDS {
        bench.setup_round();
    }
    // At the named seeds the results must also match the committed
    // digest; jobs are still held to the cross-check's digest, so a
    // changed result fails the run once rather than every job.
    let committed = match (w.committed_digest(opts.seed), bench.reference) {
        (None, _) => "no committed digest for this seed".to_string(),
        (Some(want), Some(got)) if want == got => "matches the committed digest".to_string(),
        (Some(want), _) => {
            bench.ledger.failures.push(format!(
                "set-up: results differ from the committed digest {want:#018x}"
            ));
            format!("committed digest is {want:#018x}")
        }
    };
    println!(
        "set-up rounds (cross-check path), s: {}, scaled to the reference speed: {}; reference digest {} ({committed})",
        join(&bench.setup_raw_s, 3),
        join(&bench.setup_s, 3),
        bench
            .reference
            .map_or("(none)".into(), |r| format!("{r:#018x}")),
    );
    println!(
        "first timed job starts {:.3} s after benchmark start",
        started.elapsed().as_secs_f64()
    );

    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let metrics = if opts.trace {
        bench.traced_loop(deadline, opts.seed)
    } else {
        bench.timed_loop(deadline)
    };

    let ledger = &bench.ledger;
    for (kind, counts) in &ledger.counts {
        println!("work counts per {kind}: {counts}");
    }
    for f in &ledger.failures {
        println!("FAILED {f}");
    }
    for m in &metrics {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let correct = ledger.failures.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{}",
        result_json(correct, ledger.attempted, ledger.failed, &metrics)
    );
    0
}

/// What one step of the traced loop runs.
#[derive(Clone, Copy)]
enum Step {
    /// The untraced job with the program's `TraceWriter` sink attached.
    Writer,
    /// The untraced job.
    Plain,
    /// The job's flow replayed as separate calls inside spans.
    Replay,
    /// A sharded diffeq campaign replayed inside spans
    /// (`classify_static` only): where the shard layer is measured.
    Shard,
    /// A local grade of diffeq: the baseline the sharded campaign is
    /// compared with.
    Local,
}

/// One run of one workload.
struct Bench {
    w: Workload,
    ctx: Ctx,
    ledger: Ledger,
    /// Duration of each set-up round scaled to the reference host
    /// speed, s.
    setup_s: Vec<f64>,
    /// Wall time of each set-up round, s.
    setup_raw_s: Vec<f64>,
    /// Reference kernel times, ms, in run order: one before the first
    /// set-up round, then one after every set-up round and timed job.
    kernel_ms: Vec<f64>,
    /// The cross-check digest every job must reproduce.
    reference: Option<u64>,
}

impl Bench {
    /// One set-up round: the cross-check path, whose digest becomes the
    /// reference. Every round must reproduce the first one's digest.
    fn setup_round(&mut self) {
        let t = Instant::now();
        let digest = caught(|| reference_digest(self.w, &self.ctx));
        let raw = t.elapsed().as_secs_f64();
        self.setup_raw_s.push(raw);
        let scale = self.host_scale();
        self.setup_s.push(raw * scale);
        let round = self.setup_s.len();
        match (digest, self.reference) {
            (Ok(d), None) => self.reference = Some(d),
            (Ok(d), Some(r)) if d == r => {}
            (Ok(d), Some(r)) => self.ledger.failures.push(format!(
                "set-up round {round}: cross-check digest {d:#018x} differs from {r:#018x}"
            )),
            (Err(e), _) => self
                .ledger
                .failures
                .push(format!("set-up round {round}: {e}")),
        }
    }

    /// Runs the reference kernel right after a timed step and returns the
    /// factor that scales the step's time to the reference host speed:
    /// [`calibrate::REFERENCE_MS`] over the mean of the kernel times just
    /// before and just after the step, raised to the workload's
    /// [`Workload::host_exponent`].
    fn host_scale(&mut self) -> f64 {
        let before = self.kernel_ms[self.kernel_ms.len() - 1];
        let after = calibrate::kernel_ms();
        self.kernel_ms.push(after);
        (calibrate::REFERENCE_MS / ((before + after) / 2.0)).powf(self.w.host_exponent())
    }

    /// One job of the run's workload under `extra`.
    fn job(&self, extra: &dyn sfr_core::exec::Progress) -> Result<JobResult, String> {
        caught(|| run_job(self.w, &self.ctx, self.w.threads(), extra))
    }

    /// The end-to-end loop: identical jobs back to back, tracing off,
    /// each one followed by a run of the reference kernel.
    fn timed_loop(&mut self, deadline: Instant) -> Vec<Metric> {
        let mut times = Vec::new();
        // Each job's time scaled to the reference host speed.
        let mut norm = Vec::new();
        let (mut ok, mut job_s, mut norm_s) = (0usize, 0.0, 0.0);
        while self.ledger.attempted == 0 || Instant::now() < deadline {
            let job = self.job(&NullProgress);
            let scale = self.host_scale();
            match self.ledger.book("job", self.reference, job) {
                Some(t) => {
                    ok += 1;
                    job_s += t / 1e3;
                    norm_s += t * scale / 1e3;
                    times.push(t);
                    norm.push(t * scale);
                }
                // A failed job misses every latency percentile.
                None => {
                    times.push(f64::INFINITY);
                    norm.push(f64::INFINITY);
                }
            }
        }
        println!("job times in run order, ms: {}", join(&times, 0));
        println!(
            "reference kernel times in run order, ms: {}",
            join(&self.kernel_ms, 1)
        );
        println!(
            "job times scaled to the reference speed ({} ms kernel), ms: {}",
            calibrate::REFERENCE_MS,
            join(&norm, 0)
        );
        let (norm_tail, rank) = tail(&norm);
        println!(
            "norm_job_ms_tail is p{:.1} of {} jobs ({} beyond it); norm_job_ms_p50 {:.1} ms",
            100.0 * rank as f64 / norm.len() as f64,
            norm.len(),
            norm.len() - rank,
            median(&norm)
        );
        // The host's load moves raw wall times from run to run by more
        // than the bounds allow (NOTES.md, Steadiness): printed only.
        println!(
            "host wall time, not reported: job_ms_p50 {:.1} ms; job_ms_tail {:.1} ms; jobs_per_s {:.4}; setup {:.3} s; reference kernel median {:.2} ms",
            median(&times),
            tail(&times).0,
            ok as f64 / job_s,
            median(&self.setup_raw_s),
            median(&self.kernel_ms)
        );
        let values = [
            ok as f64 / norm_s,
            norm_tail,
            median(&self.setup_s),
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }

    /// The traced loop: rotations of trace-writer job, untraced job and
    /// replay (and, on `classify_static`, a sharded and a local diffeq
    /// campaign). Odd rotations run the steps in reverse order, so every
    /// pair of neighbours is measured in both orders; each overhead is
    /// the median over rotations of a step against its neighbour in the
    /// same rotation.
    fn traced_loop(&mut self, deadline: Instant, seed: u64) -> Vec<Metric> {
        let mut steps = vec![Step::Writer, Step::Plain, Step::Replay];
        // The digest a sharded diffeq campaign and a local grade of
        // diffeq must both reproduce.
        let mut local_reference = None;
        if self.w == Workload::ClassifyStatic {
            steps.extend([Step::Shard, Step::Local]);
            match caught(|| jobs::local_diffeq_job(self.ctx.seeds)) {
                Ok(local) => local_reference = Some(local.digest),
                Err(e) => self.ledger.failures.push(format!("local diffeq: {e}")),
            }
        }
        let trace_path = self
            .ctx
            .work_dir
            .join(format!("trace-{}.jsonl", self.w.name()));
        let mut tracer = traced::Tracer::new();
        let mut layer_samples: Vec<BTreeMap<&str, f64>> = Vec::new();
        let mut shard_samples: Vec<BTreeMap<&str, f64>> = Vec::new();
        let (mut writer_pct, mut replay_pct, mut over_local_ms) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut replays = 0;
        let mut rotation = 0;
        while rotation == 0 || Instant::now() < deadline {
            let mut order = steps.clone();
            if rotation % 2 == 1 {
                order.reverse();
            }
            rotation += 1;
            // Wall time of each step of this rotation, by `Step` index.
            let mut t: [Option<f64>; 5] = [None; 5];
            for step in order {
                t[step as usize] = match step {
                    Step::Replay | Step::Shard => {
                        replays += 1;
                        let r = caught(|| match step {
                            Step::Shard => traced::replay_shard(&self.ctx, &mut tracer, replays),
                            _ => traced::replay(
                                self.w,
                                &self.ctx,
                                self.w.threads(),
                                &mut tracer,
                                replays,
                            ),
                        });
                        let (kind, reference) = match step {
                            Step::Shard => ("sharded diffeq campaign", local_reference),
                            _ => ("replay", self.reference),
                        };
                        let booked = r.as_ref().map(|r| r.result.clone()).map_err(Clone::clone);
                        // Layer numbers count only from replays that
                        // reproduced the untraced job's digest.
                        let time = self.ledger.book(kind, reference, booked);
                        if let (Some(_), Ok(r)) = (time, &r) {
                            let sample = traced::layer_metrics(&tracer, r);
                            match step {
                                Step::Shard => shard_samples.push(sample),
                                _ => layer_samples.push(sample),
                            }
                        }
                        time
                    }
                    Step::Plain => {
                        let job = self.job(&NullProgress);
                        self.ledger.book("job", self.reference, job)
                    }
                    Step::Writer => {
                        let job = caught(|| {
                            let writer = sfr_core::obs::TraceWriter::create(&trace_path)
                                .map_err(|e| format!("cannot create trace: {e}"))?;
                            let job = self.job(&writer)?;
                            writer.finish().map_err(|e| format!("trace write: {e}"))?;
                            Ok(job)
                        });
                        self.ledger.book("trace-writer job", self.reference, job)
                    }
                    Step::Local => {
                        let local = caught(|| jobs::local_diffeq_job(self.ctx.seeds));
                        self.ledger.book("local diffeq", local_reference, local)
                    }
                };
            }
            let pair = |a: Step, b: Step| t[a as usize].zip(t[b as usize]);
            if let Some((w, p)) = pair(Step::Writer, Step::Plain) {
                writer_pct.push(100.0 * (w - p) / p);
            }
            if let Some((r, p)) = pair(Step::Replay, Step::Plain) {
                replay_pct.push(100.0 * (r - p) / p);
            }
            if let Some((s, l)) = pair(Step::Shard, Step::Local) {
                over_local_ms.push(s - l);
            }
        }
        let _ = std::fs::remove_file(&trace_path);
        let spans_path = self
            .ctx
            .work_dir
            .join(format!("spans-{}-seed{seed}.jsonl", self.w.name()));
        match tracer.write_jsonl(&spans_path) {
            Ok(()) => println!(
                "{} spans of {replays} replayed job(s) written to {}",
                tracer.spans.len(),
                spans_path.display()
            ),
            Err(e) => self
                .ledger
                .failures
                .push(format!("cannot write spans: {e}")),
        }
        if layer_samples.is_empty() {
            self.ledger
                .failures
                .push("no replay reproduced the reference digest".into());
        }
        println!(
            "{rotation} rotation(s); trace-writer over untraced, %: {}; replay over untraced, %: {}",
            join(&writer_pct, 1),
            join(&replay_pct, 1)
        );

        let mut derived = BTreeMap::new();
        derived.insert("shard.over_local_ms", median(&over_local_ms));
        derived.insert("obs.trace_overhead_pct", median(&writer_pct));
        derived.insert("obs.bench_overhead_pct", median(&replay_pct));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let samples = if name.starts_with("shard.") {
                    &shard_samples
                } else {
                    &layer_samples
                };
                let value = derived.get(name).copied().unwrap_or_else(|| {
                    let v: Vec<f64> = samples
                        .iter()
                        .map(|s| s.get(name).copied().unwrap_or(f64::NAN))
                        .collect();
                    median(&v)
                });
                Metric { name, value, unit }
            })
            .collect()
    }
}

/// Space-separated values with `digits` decimals.
fn join(values: &[f64], digits: usize) -> String {
    values
        .iter()
        .map(|v| format!("{v:.digits$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

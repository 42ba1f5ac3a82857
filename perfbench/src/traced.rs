//! The traced run: each job's flow replayed as separate public calls,
//! with a span recorded around every call into a layer.
//!
//! Spans are taken from outside the program — the benchmark times its
//! own calls. The one exception is a call that spans several layers
//! in one public function (`classify_system_collapsed`, and the shard
//! coordinator's `serve`): its split comes from the `PhaseDone`
//! durations the program already reports to a `Progress` observer, and
//! those spans carry `"source": "PhaseDone"`.
//!
//! A replay must reproduce the untraced job's digest before any of its
//! layer numbers are reported.

use crate::jobs::{
    measure_test_sets, paper_builder, shard_prepare, shard_serve, static_builder,
    static_classify_config, table3_picks, worst_case_systems, worst_cases, Ctx, Digest, JobResult,
    Meter, Workload, DESIGNS, TABLE3_DESIGNS,
};
use sfr_core::exec::{Phase, Progress, ProgressEvent, Tee, TraceRecord};
use sfr_core::{
    classify_system_collapsed, grade_faults_journaled_with_kernel, grade_pack_capacity,
    Classification, ClassifyConfig, FaultClasses, GradeReport, PreparedStudy, StuckAt, System,
};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed interval. Spans of one job share `job`.
pub struct Span {
    pub job: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub source: &'static str,
}

/// Keeps every span in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    job: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            job: 0,
        }
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            job: self.job,
            parent,
            name,
            start: now,
            end: now,
            source: "call",
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
    }

    fn call<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// Adds the program's reported phases as children of `parent`.
    fn adopt(&mut self, parent: usize, log: &PhaseLog) {
        let phases = log.phases.lock().expect("phase log lock");
        for &(phase, start, elapsed) in phases.iter() {
            let start = start.duration_since(self.epoch);
            self.spans.push(Span {
                job: self.job,
                parent: Some(parent),
                name: phase.label(),
                start,
                end: start + elapsed.unwrap_or_default(),
                source: "PhaseDone",
            });
        }
    }

    /// Every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"job\": {}, \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"source\": \"{}\"}}",
                s.job,
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.source
            )?;
        }
        out.flush()
    }

    /// Self time per span name over the spans of `job`, in ms: each
    /// span's duration minus the part its children cover.
    fn self_ms(&self, job: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ms: HashMap<usize, f64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.job == job) {
            if let Some(p) = s.parent {
                *child_ms.entry(p).or_default() += ms(s.end - s.start);
            }
        }
        let mut out = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate().filter(|(_, s)| s.job == job) {
            let own = ms(s.end - s.start) - child_ms.get(&id).copied().unwrap_or(0.0);
            *out.entry(s.name).or_insert(0.0) += own;
        }
        out
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Records when each phase the program reports started and how long it
/// says it took, and which faults its fault-simulation chunks carried
/// (the faults the analyze step then classifies).
#[derive(Default)]
struct PhaseLog {
    phases: Mutex<Vec<(Phase, Instant, Option<Duration>)>>,
    simulated_ids: Mutex<Vec<String>>,
}

impl Progress for PhaseLog {
    fn event(&self, event: ProgressEvent) {
        let mut phases = self.phases.lock().expect("phase log lock");
        match event {
            ProgressEvent::PhaseStart { phase } => phases.push((phase, Instant::now(), None)),
            ProgressEvent::PhaseDone { phase, elapsed, .. } => {
                if let Some(open) = phases
                    .iter_mut()
                    .rev()
                    .find(|(p, _, e)| *p == phase && e.is_none())
                {
                    open.2 = Some(elapsed);
                }
            }
            _ => {}
        }
    }

    fn record(&self, record: &TraceRecord) {
        if let TraceRecord::ChunkSimulated { fault_ids, .. } = record {
            self.simulated_ids
                .lock()
                .expect("phase log lock")
                .extend(fault_ids.iter().cloned());
        }
    }

    fn wants_records(&self) -> bool {
        true
    }
}

/// The counts one replayed job measured at its layer boundaries.
#[derive(Default)]
struct LayerCounts {
    gates: usize,
    universe: usize,
    analyzed: usize,
    class_members: usize,
    pack_capacity: usize,
    leases: usize,
    fenced: usize,
    packs_remote: usize,
    packs_local: usize,
    shard_ms: f64,
}

/// One replayed job.
pub struct Replay {
    pub result: JobResult,
    pub job: usize,
    layers: LayerCounts,
    snapshot: sfr_core::exec::CounterState,
}

/// Counts the analyzed faults that are not their structural
/// equivalence class's representative — the faults a per-class memo
/// of the analysis could skip.
fn class_members(sys: &System, analyzed: &[String]) -> usize {
    let universe = sys.controller_faults();
    let classes = FaultClasses::build(&sys.netlist, &universe);
    let index: HashMap<String, usize> = universe
        .iter()
        .enumerate()
        .map(|(i, f)| (f.to_string(), i))
        .collect();
    analyzed
        .iter()
        .filter(|id| {
            index
                .get(*id)
                .is_some_and(|&i| !classes.is_representative(i))
        })
        .count()
}

/// Replays one job of `workload` as separate public calls, each inside
/// a span, under job id `job`.
pub fn replay(
    workload: Workload,
    ctx: &Ctx,
    threads: usize,
    tracer: &mut Tracer,
    job: usize,
) -> Result<Replay, String> {
    tracer.job = job;
    let meter = Meter::default();
    let mut layers = LayerCounts::default();
    let mut d = Digest::default();
    let seeds = ctx.seeds;
    let root = tracer.begin("job", None);
    let t0 = Instant::now();
    // Analyzed faults per built study; their class membership is
    // worked out after the job's spans end.
    let mut deferred: Vec<(PreparedStudy, Vec<String>)> = Vec::new();
    match workload {
        Workload::ClassifyStatic => {
            for name in DESIGNS {
                for ts in seeds.detection_seeds() {
                    let prepared = tracer
                        .call("build", root, || static_builder(name, ts).build())
                        .map_err(|e| e.to_string())?;
                    let cfg = static_classify_config(ts, true);
                    let (c, ids) =
                        classify(tracer, root, &prepared, &cfg, true, &meter, &mut layers)?;
                    d.classification(&c);
                    deferred.push((prepared, ids));
                }
            }
        }
        Workload::PaperTables => {
            let mut parts = Vec::new();
            for name in TABLE3_DESIGNS {
                let cfg = seeds.paper_config();
                let prepared = tracer
                    .call("build", root, || {
                        paper_builder(name, seeds, threads, false).build()
                    })
                    .map_err(|e| e.to_string())?;
                let (c, report, ids) = classify_and_grade(
                    tracer,
                    root,
                    &prepared,
                    &cfg.classify,
                    &meter,
                    &mut layers,
                )?;
                let picked = table3_picks(&report.grades);
                let per_set = tracer.call("testset", root, || {
                    measure_test_sets(prepared.system(), &picked, &cfg.grade)
                })?;
                deferred.push((prepared, ids));
                parts.push((name, c, report, per_set));
            }
            let systems = tracer.call("build", root, || worst_case_systems(seeds))?;
            layers.gates += systems
                .iter()
                .map(|s| s.netlist.gate_count())
                .sum::<usize>();
            let wcs = tracer.call("worstcase", root, || worst_cases(&systems, seeds, threads));
            for (name, c, report, per_set) in &parts {
                d.str(name);
                d.classification(c);
                d.grades(&report.baseline, &report.grades);
                per_set.iter().for_each(|r| d.reports(r));
            }
            wcs.iter().for_each(|wc| d.worst_case(wc));
        }
    }
    let elapsed = t0.elapsed();
    tracer.end(root);
    for (prepared, ids) in &deferred {
        layers.class_members += class_members(prepared.system(), ids);
    }
    Ok(Replay {
        result: JobResult {
            elapsed,
            digest: d.finish(),
            counts: meter.counts(0),
        },
        job,
        layers,
        snapshot: meter.counters.snapshot(),
    })
}

/// Replays one sharded grading campaign of diffeq (`sfr shard serve
/// diffeq --spawn-workers 2`) under job id `job`: the coordinator's
/// study build, then `serve`, split by the phases it reports.
pub fn replay_shard(ctx: &Ctx, tracer: &mut Tracer, job: usize) -> Result<Replay, String> {
    tracer.job = job;
    let meter = Meter::default();
    let mut layers = LayerCounts::default();
    let mut d = Digest::default();
    let root = tracer.begin("job", None);
    let t0 = Instant::now();
    let (spec, prepared) = tracer.call("build", root, || shard_prepare(ctx))?;
    layers.gates += prepared.system().netlist.gate_count();
    let log = PhaseLog::default();
    let sinks: [&dyn Progress; 2] = [&meter, &log];
    let tee = Tee::new(&sinks);
    let id = tracer.begin("shard", Some(root));
    let served = shard_serve(ctx, &spec, prepared, &tee);
    tracer.end(id);
    tracer.adopt(id, &log);
    let (study, stats) = served?;
    d.study(&study);
    let elapsed = t0.elapsed();
    tracer.end(root);
    layers.shard_ms = ms(tracer.spans[id].end - tracer.spans[id].start);
    layers.leases = stats.leases_granted;
    layers.fenced = stats.results_fenced;
    layers.packs_remote = stats.packs_merged_remote;
    layers.packs_local = stats.packs_local;
    Ok(Replay {
        result: JobResult {
            elapsed,
            digest: d.finish(),
            counts: meter.counts(stats.leases_granted),
        },
        job,
        layers,
        snapshot: meter.counters.snapshot(),
    })
}

/// The classification call, split into the program's phases.
fn classify(
    tracer: &mut Tracer,
    root: usize,
    prepared: &PreparedStudy,
    cfg: &ClassifyConfig,
    collapse: bool,
    meter: &Meter,
    layers: &mut LayerCounts,
) -> Result<(Classification, Vec<String>), String> {
    let sys = prepared.system();
    layers.gates += sys.netlist.gate_count();
    layers.universe += sys.controller_faults().len();
    let engine = prepared.engine_kind().build();
    let log = PhaseLog::default();
    let sinks: [&dyn Progress; 2] = [meter, &log];
    let tee = Tee::new(&sinks);
    let id = tracer.begin("classify", Some(root));
    let (c, quarantined) =
        classify_system_collapsed(sys, cfg, engine.as_ref(), &tee, None, collapse);
    tracer.end(id);
    tracer.adopt(id, &log);
    if !quarantined.is_empty() {
        return Err(format!("{} chunk(s) quarantined", quarantined.len()));
    }
    let ids = log.simulated_ids.into_inner().expect("phase log lock");
    layers.analyzed += ids.len();
    Ok((c, ids))
}

/// Classification, then grading of the SFR faults on the kernel the
/// study's engine grades with — the two steps a study runs.
fn classify_and_grade(
    tracer: &mut Tracer,
    root: usize,
    prepared: &PreparedStudy,
    cfg: &ClassifyConfig,
    meter: &Meter,
    layers: &mut LayerCounts,
) -> Result<(Classification, GradeReport, Vec<String>), String> {
    let (c, ids) = classify(tracer, root, prepared, cfg, false, meter, layers)?;
    let sfr: Vec<StuckAt> = c.sfr().map(|f| f.fault).collect();
    let kernel = prepared.engine_kind().build().kernel();
    layers.pack_capacity = grade_pack_capacity(kernel);
    let report = tracer.call("grade", root, || {
        grade_faults_journaled_with_kernel(
            prepared.system(),
            &sfr,
            prepared.grade_config(),
            prepared.threads(),
            meter,
            None,
            kernel,
        )
    });
    if !report.incidents.is_empty() {
        return Err(format!("{} grading incident(s)", report.incidents.len()));
    }
    Ok((c, report, ids))
}

/// Ratio with an empty denominator reading 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of one replayed job, by `BENCHMARK.json` name.
pub fn layer_metrics(tracer: &Tracer, r: &Replay) -> BTreeMap<&'static str, f64> {
    let t = tracer.self_ms(r.job);
    let at = |name: &str| t.get(name).copied().unwrap_or(0.0);
    let s = &r.snapshot;
    let l = &r.layers;
    let c = &r.result.counts;
    let mut m = BTreeMap::new();
    m.insert("build.ms", at("build"));
    m.insert("build.gates", l.gates as f64);
    m.insert("lint.ms", at("lint"));
    m.insert("lint.faults_pruned", s.faults_pruned as f64);
    m.insert(
        "lint.prune_ratio",
        ratio(s.faults_pruned as f64, l.universe as f64),
    );
    m.insert("collapse.ms", at("collapse"));
    m.insert(
        "collapse.ratio",
        ratio(
            s.faults_collapsed as f64,
            l.universe.saturating_sub(s.faults_pruned) as f64,
        ),
    );
    m.insert("golden.ms", at("golden"));
    m.insert("faultsim.ms", at("faultsim"));
    m.insert("faultsim.faults", s.faults_simulated as f64);
    m.insert(
        "faultsim.drop_ratio",
        ratio(s.faults_dropped as f64, s.faults_simulated as f64),
    );
    m.insert("faultsim.cycles", c.faultsim_cycles as f64);
    let analyze_ms = at("analyze");
    m.insert("analyze.ms", analyze_ms);
    m.insert("analyze.faults", l.analyzed as f64);
    m.insert(
        "analyze.us_per_fault",
        ratio(analyze_ms * 1e3, l.analyzed as f64),
    );
    m.insert(
        "analyze.class_member_share",
        ratio(l.class_members as f64, l.analyzed as f64),
    );
    let grade_ms = at("grade");
    m.insert("grade.ms", grade_ms);
    m.insert("grade.packs", s.grade_packs as f64);
    m.insert(
        "grade.lane_occupancy",
        ratio(
            (s.grade_pack_faults + s.grade_packs) as f64,
            (s.grade_packs * (l.pack_capacity + 1)) as f64,
        ),
    );
    m.insert("grade.mc_batches", s.mc_batches as f64);
    m.insert(
        "grade.converged_ratio",
        ratio(s.mc_converged as f64, (s.mc_converged + s.mc_capped) as f64),
    );
    m.insert("grade.lane_cycles", c.grade_lane_cycles as f64);
    m.insert(
        "grade.ns_per_lane_cycle",
        ratio(grade_ms * 1e6, c.grade_lane_cycles as f64),
    );
    m.insert("testset.ms", at("testset"));
    m.insert("worstcase.ms", at("worstcase"));
    m.insert("shard.ms", l.shard_ms);
    m.insert("shard.leases", l.leases as f64);
    m.insert("shard.fenced", l.fenced as f64);
    m.insert(
        "shard.remote_share",
        ratio(
            l.packs_remote as f64,
            (l.packs_remote + l.packs_local) as f64,
        ),
    );
    m
}

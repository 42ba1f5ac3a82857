//! The workloads. Each repeats one identical job — the same fixed unit
//! of work every time — on the program's public API, and checks the
//! job's output through a digest of its results.
//!
//! No job picks a simulation engine: every one runs on whatever the
//! library selects by default for its thread count, so a change of the
//! default engine shows up here. Every datapath is 4 bits wide, the
//! paper's width.

use sfr_core::exec::{par_map_indexed, Counters, NullProgress, Phase, Progress, ProgressEvent};
use sfr_core::{
    benchmarks, classify_system_collapsed, measure_power_lanes_with_testset,
    worst_case_extra_effects, Classification, ClassifyConfig, GradeConfig, MonteCarloResult,
    PowerGrade, PowerReport, PreparedStudy, StuckAt, Study, StudyBuilder, StudyConfig, System,
    TestSet, WorstCase,
};
use sfr_shard::{ServeConfig, ShardSpec, ShardStats};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The four paper designs, in the order `classify_static` visits them.
pub const DESIGNS: [&str; 4] = ["diffeq", "facet", "poly", "fir"];
/// The designs of the paper's Table 3.
pub const TABLE3_DESIGNS: [&str; 2] = ["diffeq", "poly"];
/// Datapath width of every job: the paper's.
const WIDTH: usize = 4;
/// Worker threads of the `paper_tables` job.
const PAPER_THREADS: usize = 2;
/// Worker processes the sharded campaign's coordinator spawns.
const SHARD_WORKERS: usize = 2;
/// Detection patterns of the `classify_static` job.
const STATIC_PATTERNS: usize = 1200;

/// The workload seed that reproduces the program's default inputs
/// (`sfr grade <b>` and the paper binaries as shipped).
pub const DEFAULT_SEED: u64 = 0;
/// A seed kept out of tuning, for confirming a later claim on inputs
/// the change was not written against.
pub const HELD_OUT_SEED: u64 = 90_001;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Classification only, with static pruning and fault collapsing,
    /// under three detection test sets.
    ClassifyStatic,
    /// The Table 3 flow on diffeq and poly, then the worst-case flow,
    /// at two threads.
    PaperTables,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ClassifyStatic, Workload::PaperTables];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClassifyStatic => "classify_static",
            Workload::PaperTables => "paper_tables",
        }
    }

    /// Worker threads of the workload's job.
    pub fn threads(self) -> usize {
        match self {
            Workload::ClassifyStatic => 1,
            Workload::PaperTables => PAPER_THREADS,
        }
    }

    /// How strongly the job's time follows the host's load, relative to
    /// the reference kernel (`calibrate.rs`): a job time is scaled by the
    /// kernel's slowdown raised to this power. Across runs on the
    /// measurement host the slope of log job time on log kernel time was
    /// 1.2–1.9 for `classify_static` and 0.9–1.0 for `paper_tables`
    /// (NOTES.md, The reference kernel).
    pub fn host_exponent(self) -> f64 {
        match self {
            Workload::ClassifyStatic => 1.5,
            Workload::PaperTables => 1.0,
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed reference digest of this workload's outputs at the
    /// named seeds. Any other seed is checked against the cross-check
    /// path alone.
    pub fn committed_digest(self, seed: u64) -> Option<u64> {
        let (default, held_out) = match self {
            Workload::ClassifyStatic => (0xedc9_b2e0_15f0_a697, 0x9927_d4a8_b1d7_46b9),
            Workload::PaperTables => (0xead6_1470_6e2a_53f9, 0x5882_8e15_a33c_2272),
        };
        match seed {
            DEFAULT_SEED => Some(default),
            HELD_OUT_SEED => Some(held_out),
            _ => None,
        }
    }
}

/// The generated inputs: the detection test-set seed and the Monte
/// Carlo grading seed. They are all a workload seed changes.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub test: u32,
    pub grade: u32,
}

impl Seeds {
    /// Derives the program's seeds from a workload seed.
    /// [`DEFAULT_SEED`] maps to the program's own defaults; any other
    /// seed is spread by SplitMix64.
    pub fn new(seed: u64) -> Seeds {
        if seed == DEFAULT_SEED {
            return Seeds {
                test: ClassifyConfig::default().test_seed,
                grade: GradeConfig::default().seed,
            };
        }
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Seeds {
            test: z as u32,
            grade: (z >> 32) as u32,
        }
    }

    /// The paper binaries' configuration with these seeds.
    pub fn paper_config(self) -> StudyConfig {
        self.apply(sfr_bench::paper_config())
    }

    /// The three detection test-set seeds `classify_static` classifies
    /// each design under; the first is [`Seeds::test`].
    pub fn detection_seeds(self) -> [u32; 3] {
        [self.test, self.test ^ 0x5A5A, self.test ^ 0xA5A5]
    }

    fn apply(self, mut cfg: StudyConfig) -> StudyConfig {
        cfg.classify.test_seed = self.test;
        cfg.grade.seed = self.grade;
        cfg
    }
}

/// Deterministic work a job did, read from the program's own
/// [`Counters`], [`ShardStats`] and event stream. Every job of one
/// workload and seed must repeat these exactly.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WorkCounts {
    pub faults_simulated: usize,
    pub faultsim_cycles: u64,
    pub grade_lane_cycles: u64,
    pub mc_batches: usize,
    pub grade_packs: usize,
    pub packs_restored: usize,
    pub leases: usize,
}

impl std::fmt::Display for WorkCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "faults_simulated={} faultsim_cycles={} grade_lane_cycles={} mc_batches={} grade_packs={} packs_restored={} leases={}",
            self.faults_simulated,
            self.faultsim_cycles,
            self.grade_lane_cycles,
            self.mc_batches,
            self.grade_packs,
            self.packs_restored,
            self.leases
        )
    }
}

/// The observer every job runs under: the program's [`Counters`] plus a
/// split of the simulated-cycle stream by the phase that emitted it
/// (fault simulation vs grading), which `Counters` keeps as one total.
#[derive(Default)]
pub struct Meter {
    pub counters: Counters,
    cycles: Mutex<PhaseCycles>,
}

#[derive(Default)]
struct PhaseCycles {
    open: Vec<Phase>,
    faultsim: u64,
    grade: u64,
}

impl Progress for Meter {
    fn event(&self, event: ProgressEvent) {
        self.counters.event(event);
        let mut c = self.cycles.lock().expect("meter lock");
        match event {
            ProgressEvent::PhaseStart { phase } => c.open.push(phase),
            ProgressEvent::PhaseDone { .. } => {
                c.open.pop();
            }
            ProgressEvent::CyclesSimulated { cycles } => match c.open.last() {
                Some(Phase::FaultSim) => c.faultsim += cycles,
                Some(Phase::Grade) => c.grade += cycles,
                _ => {}
            },
            _ => {}
        }
    }
}

impl Meter {
    /// The work counts observed so far; `leases` comes from the shard
    /// coordinator's return value.
    pub fn counts(&self, leases: usize) -> WorkCounts {
        let s = self.counters.snapshot();
        let c = self.cycles.lock().expect("meter lock");
        WorkCounts {
            faults_simulated: s.faults_simulated,
            faultsim_cycles: c.faultsim,
            grade_lane_cycles: c.grade,
            mc_batches: s.mc_batches,
            grade_packs: s.grade_packs,
            packs_restored: s.packs_restored,
            leases,
        }
    }
}

/// FNV-1a over a canonical rendering of a job's results.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Exact bits: any change to a simulated statistic changes the
    /// digest.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The classification tallies and every fault's class, with the
    /// evidence behind an SFI verdict (its first detecting cycle or the
    /// oracle's mismatch).
    pub fn classification(&mut self, c: &Classification) {
        for n in [c.total(), c.sfi_count(), c.cfr_count(), c.sfr_count()] {
            self.u64(n as u64);
        }
        for f in &c.faults {
            self.str(&f.fault.to_string());
            self.str(&format!("{:?}", f.class));
        }
    }

    /// The grade table: baseline, then fault, mean power bits and %
    /// change of every graded fault.
    pub fn grades(&mut self, baseline: &MonteCarloResult, grades: &[PowerGrade]) {
        self.f64(baseline.mean_uw);
        self.u64(grades.len() as u64);
        for g in grades {
            self.str(&g.fault.to_string());
            self.f64(g.mean_uw);
            self.f64(g.pct_change);
        }
    }

    pub fn study(&mut self, s: &Study) {
        self.str(&s.name);
        self.classification(&s.classification);
        self.grades(&s.baseline, &s.grades);
    }

    pub fn reports(&mut self, reports: &[PowerReport]) {
        for r in reports {
            self.f64(r.total_uw);
        }
    }

    pub fn worst_case(&mut self, wc: &WorstCase) {
        self.u64(wc.extra_loads as u64);
        self.u64(wc.select_flips as u64);
        self.f64(wc.baseline.total_uw);
        self.f64(wc.worst.total_uw);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// What one executed job produced.
#[derive(Clone)]
pub struct JobResult {
    /// Wall time of the program calls alone (digesting excluded).
    pub elapsed: Duration,
    pub digest: u64,
    pub counts: WorkCounts,
}

/// Where jobs keep files (the shard coordinator's journal).
pub struct Ctx {
    pub work_dir: PathBuf,
    pub seeds: Seeds,
}

impl Ctx {
    fn journal(&self) -> PathBuf {
        self.work_dir
            .join(format!("shard-{}.journal", std::process::id()))
    }
}

/// A study must complete without quarantines, watchdog hits or journal
/// degradation: an incident means the program caught a failure.
fn clean(study: Study) -> Result<Study, String> {
    if study.is_clean() {
        Ok(study)
    } else {
        Err(format!(
            "{}: {} incident(s): {}",
            study.name,
            study.incidents.len(),
            study.incidents[0]
        ))
    }
}

/// The classification settings of the `classify_static` job (or of its
/// unpruned cross-check when `static_prune` is off).
pub fn static_classify_config(test_seed: u32, static_prune: bool) -> ClassifyConfig {
    ClassifyConfig {
        test_seed,
        test_patterns: STATIC_PATTERNS,
        static_prune,
        ..Default::default()
    }
}

/// The `classify_static` builder for one design: what `sfr classify
/// <design> --static-prune --collapse` builds.
pub fn static_builder(design: &str, test_seed: u32) -> StudyBuilder {
    StudyBuilder::new(design)
        .classify_config(static_classify_config(test_seed, true))
        .collapse(true)
        .threads(1)
}

/// Classifies one design; `pruned` selects the static pre-pass plus
/// collapsing (the job) or neither (the cross-check).
fn classify_design(
    design: &str,
    test_seed: u32,
    pruned: bool,
    progress: &dyn Progress,
) -> Result<Classification, String> {
    let prepared = static_builder(design, test_seed)
        .build()
        .map_err(|e| e.to_string())?;
    let engine = prepared.engine_kind().build();
    let (c, quarantined) = classify_system_collapsed(
        prepared.system(),
        &static_classify_config(test_seed, pruned),
        engine.as_ref(),
        progress,
        None,
        pruned,
    );
    if quarantined.is_empty() {
        Ok(c)
    } else {
        Err(format!(
            "{design}: {} chunk(s) quarantined",
            quarantined.len()
        ))
    }
}

/// The `paper_tables` Table 3 part for one design, as the `table3`
/// binary computes it: classify and grade under the paper's
/// configuration, then measure the fault-free circuit and five faults
/// spanning the power range on the paper's three test sets.
pub struct Table3Part {
    pub study: Study,
    pub per_set: Vec<Vec<PowerReport>>,
}

/// The five faults Table 3 shows: evenly spaced through the grades
/// ordered by mean power.
pub fn table3_picks(grades: &[PowerGrade]) -> Vec<StuckAt> {
    let mut order: Vec<usize> = (0..grades.len()).collect();
    order.sort_by(|&a, &b| grades[a].mean_uw.total_cmp(&grades[b].mean_uw));
    let rows = 5.min(order.len());
    (0..rows)
        .map(|i| grades[order[i * (order.len() - 1) / (rows - 1).max(1)]].fault)
        .collect()
}

/// Measures `picked` (plus the fault-free lane) on the paper's three
/// test sets.
pub fn measure_test_sets(
    sys: &System,
    picked: &[StuckAt],
    cfg: &GradeConfig,
) -> Result<Vec<Vec<PowerReport>>, String> {
    let trio = TestSet::paper_trio(sys.pattern_width()).map_err(|e| e.to_string())?;
    trio.iter()
        .map(|ts| measure_power_lanes_with_testset(sys, picked, ts, cfg).map_err(|e| e.to_string()))
        .collect()
}

/// A Table 3 study of one design under the paper's configuration.
/// `collapse` selects the collapsed grading path, whose tables the
/// program guarantees to be bit-identical.
pub fn paper_builder(design: &str, seeds: Seeds, threads: usize, collapse: bool) -> StudyBuilder {
    StudyBuilder::new(design)
        .config(seeds.paper_config())
        .collapse(collapse)
        .threads(threads)
}

fn table3_part(
    design: &str,
    seeds: Seeds,
    threads: usize,
    collapse: bool,
    progress: &dyn Progress,
) -> Result<Table3Part, String> {
    let prepared = paper_builder(design, seeds, threads, collapse)
        .build()
        .map_err(|e| e.to_string())?;
    let grade = prepared.grade_config().clone();
    let study = clean(prepared.run_with(progress))?;
    let picked = table3_picks(&study.grades);
    let per_set = measure_test_sets(&study.system, &picked, &grade)?;
    Ok(Table3Part { study, per_set })
}

/// The worst-case systems: diffeq, facet and poly built under the
/// paper's configuration, as the `worstcase` binary builds them.
pub fn worst_case_systems(seeds: Seeds) -> Result<Vec<System>, String> {
    let cfg = seeds.paper_config();
    benchmarks::all_benchmarks(WIDTH)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|(_, emitted)| System::build(emitted, cfg.system).map_err(|e| e.to_string()))
        .collect()
}

/// The worst-case search over `systems`, one design per task.
pub fn worst_cases(systems: &[System], seeds: Seeds, threads: usize) -> Vec<WorstCase> {
    let cfg = seeds.paper_config();
    par_map_indexed(threads, systems.len(), |i| {
        worst_case_extra_effects(&systems[i], &cfg.grade)
    })
}

/// The spec `sfr shard serve diffeq` distributes, with this run's seeds.
pub fn shard_spec(seeds: Seeds) -> ShardSpec {
    let mut spec = ShardSpec::new("diffeq", WIDTH);
    spec.test_seed = seeds.test;
    spec.grade_seed = seeds.grade;
    spec
}

/// Builds the coordinator's study of a sharded grading campaign on a
/// fresh journal, so every campaign starts from nothing.
pub fn shard_prepare(ctx: &Ctx) -> Result<(ShardSpec, PreparedStudy), String> {
    let journal = ctx.journal();
    remove_if_present(&journal)?;
    let spec = shard_spec(ctx.seeds);
    let prepared = spec
        .study_builder()
        .threads(1)
        .checkpoint(&journal)
        .build()
        .map_err(|e| e.to_string())?;
    Ok((spec, prepared))
}

/// Serves `prepared` to [`SHARD_WORKERS`] worker processes the
/// coordinator spawns (this executable, run as `shard work`), merges
/// their packs and removes the journal.
pub fn shard_serve(
    ctx: &Ctx,
    spec: &ShardSpec,
    prepared: PreparedStudy,
    progress: &dyn Progress,
) -> Result<(Study, ShardStats), String> {
    let cfg = ServeConfig {
        spawn_workers: SHARD_WORKERS,
        ..Default::default()
    };
    let result = sfr_shard::serve(prepared, spec, &cfg, progress);
    remove_if_present(&ctx.journal())?;
    let (study, stats) = result?;
    Ok((clean(study)?, stats))
}

fn remove_if_present(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove {}: {e}", path.display())),
    }
}

/// Runs one job of `workload` under `extra` (plus the job's own
/// [`Meter`]). `threads` only applies to `paper_tables`.
pub fn run_job(
    workload: Workload,
    ctx: &Ctx,
    threads: usize,
    extra: &dyn Progress,
) -> Result<JobResult, String> {
    let meter = Meter::default();
    let sinks: [&dyn Progress; 2] = [&meter, extra];
    let tee = sfr_core::exec::Tee::new(&sinks);
    let seeds = ctx.seeds;
    let mut d = Digest::default();
    let start = Instant::now();
    let elapsed = match workload {
        Workload::ClassifyStatic => {
            let classes = DESIGNS
                .iter()
                .flat_map(|name| seeds.detection_seeds().map(|ts| (name, ts)))
                .map(|(name, ts)| classify_design(name, ts, true, &tee))
                .collect::<Result<Vec<_>, _>>()?;
            let elapsed = start.elapsed();
            classes.iter().for_each(|c| d.classification(c));
            elapsed
        }
        Workload::PaperTables => {
            let parts = TABLE3_DESIGNS
                .iter()
                .map(|name| table3_part(name, seeds, threads, false, &tee))
                .collect::<Result<Vec<_>, _>>()?;
            let wcs = worst_cases(&worst_case_systems(seeds)?, seeds, threads);
            let elapsed = start.elapsed();
            digest_paper(&mut d, &parts, &wcs);
            elapsed
        }
    };
    Ok(JobResult {
        elapsed,
        digest: d.finish(),
        counts: meter.counts(0),
    })
}

pub fn digest_paper(d: &mut Digest, parts: &[Table3Part], wcs: &[WorstCase]) {
    for p in parts {
        d.study(&p.study);
        p.per_set.iter().for_each(|r| d.reports(r));
    }
    wcs.iter().for_each(|wc| d.worst_case(wc));
}

/// The cross-check: the same results computed along a path the program
/// guarantees to be bit-identical but that shares less code with the
/// job — the unpruned, uncollapsed classifier for `classify_static`,
/// and collapsed grading for the Table 3 part of `paper_tables` (whose
/// worst-case part runs on one thread).
pub fn reference_digest(workload: Workload, ctx: &Ctx) -> Result<u64, String> {
    let seeds = ctx.seeds;
    let mut d = Digest::default();
    match workload {
        Workload::ClassifyStatic => {
            for name in DESIGNS {
                for ts in seeds.detection_seeds() {
                    d.classification(&classify_design(name, ts, false, &NullProgress)?);
                }
            }
        }
        Workload::PaperTables => {
            let parts = TABLE3_DESIGNS
                .iter()
                .map(|name| table3_part(name, seeds, PAPER_THREADS, true, &NullProgress))
                .collect::<Result<Vec<_>, _>>()?;
            let wcs = worst_cases(&worst_case_systems(seeds)?, seeds, 1);
            digest_paper(&mut d, &parts, &wcs);
        }
    }
    Ok(d.finish())
}

/// A local grade of diffeq under the sharded campaign's spec, timed and
/// digested like a job: the run a sharded campaign must reproduce.
pub fn local_diffeq_job(seeds: Seeds) -> Result<JobResult, String> {
    let meter = Meter::default();
    let start = Instant::now();
    let study = local_diffeq(seeds, &meter)?;
    let elapsed = start.elapsed();
    let mut d = Digest::default();
    d.study(&study);
    Ok(JobResult {
        elapsed,
        digest: d.finish(),
        counts: meter.counts(0),
    })
}

/// The local run a sharded diffeq campaign must reproduce.
pub fn local_diffeq(seeds: Seeds, progress: &dyn Progress) -> Result<Study, String> {
    let spec = shard_spec(seeds);
    let study = spec
        .study_builder()
        .threads(1)
        .build()
        .map_err(|e| e.to_string())?
        .run_with(progress);
    clean(study)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seed: u64) -> Ctx {
        Ctx {
            work_dir: std::env::temp_dir(),
            seeds: Seeds::new(seed),
        }
    }

    fn twice(workload: Workload, threads: usize) -> (JobResult, JobResult) {
        let ctx = ctx(DEFAULT_SEED);
        let a = run_job(workload, &ctx, threads, &NullProgress).expect("first job");
        let b = run_job(workload, &ctx, threads, &NullProgress).expect("second job");
        (a, b)
    }

    #[test]
    fn classify_static_repeats_its_work_exactly() {
        let (a, b) = twice(Workload::ClassifyStatic, 1);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.counts, b.counts);
        assert!(a.counts.faults_simulated > 0 && a.counts.faultsim_cycles > 0);
        assert_eq!(a.counts.grade_packs, 0, "classification grades nothing");
    }

    #[test]
    fn paper_tables_repeats_its_work_across_runs_and_thread_counts() {
        let (a, b) = twice(Workload::PaperTables, PAPER_THREADS);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.counts, b.counts);
        assert!(a.counts.grade_lane_cycles > 0 && a.counts.mc_batches > 0);
        let one = run_job(Workload::PaperTables, &ctx(DEFAULT_SEED), 1, &NullProgress)
            .expect("one-thread job");
        assert_eq!(one.digest, a.digest);
        assert_eq!(one.counts, a.counts);
    }

    #[test]
    fn reference_paths_agree_with_the_jobs() {
        let ctx = ctx(HELD_OUT_SEED);
        for w in Workload::ALL {
            let job = run_job(w, &ctx, w.threads(), &NullProgress).expect("job");
            assert_eq!(reference_digest(w, &ctx).expect("reference"), job.digest);
        }
    }

    #[test]
    fn default_seed_is_the_program_default() {
        let s = Seeds::new(DEFAULT_SEED);
        assert_eq!(s.test, ClassifyConfig::default().test_seed);
        assert_eq!(s.grade, GradeConfig::default().seed);
        let h = Seeds::new(HELD_OUT_SEED);
        assert_ne!((h.test, h.grade), (s.test, s.grade));
    }
}

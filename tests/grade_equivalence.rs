//! Fixed-seed regression pinning the lane-packed grading engine — the
//! compiled op tape — to the scalar reference (the paper's Table 3
//! experiment): every fault's Monte Carlo mean, percentage change and
//! flag must be **bit-identical** between `grade_faults_scalar_with` and
//! `grade_faults_with`, at every thread count, and the per-test-set
//! measurement must agree fault-for-fault with the scalar simulator.
//! Every kernel (`SimKernel::Scalar`, `Tape`, `TapeWide`) is held to
//! the same contract.

#![allow(clippy::unwrap_used)]

use sfr_power::exec::{NullProgress, SimKernel};
use sfr_power::{
    benchmarks, classify_system, grade_faults_scalar_with, grade_faults_with,
    grade_faults_with_kernel, measure_power_lanes_with_testset, measure_power_tape_watched,
    measure_power_with_testset, ClassifyConfig, GradeConfig, MonteCarloConfig, PowerReport,
    StuckAt, System, SystemConfig, TapeProgram, TestSet, W256,
};

fn quick_grade_cfg() -> GradeConfig {
    GradeConfig {
        mc: MonteCarloConfig {
            rel_tolerance: 0.05,
            min_batches: 3,
            max_batches: 8,
        },
        patterns_per_batch: 60,
        ..Default::default()
    }
}

fn diffeq_sfr() -> (System, Vec<StuckAt>) {
    let emitted = benchmarks::diffeq(4).expect("diffeq builds");
    let sys = System::build(&emitted, SystemConfig::default()).expect("system builds");
    let cfg = ClassifyConfig {
        test_patterns: 240,
        ..Default::default()
    };
    let cls = classify_system(&sys, &cfg);
    let faults: Vec<StuckAt> = cls.sfr().map(|f| f.fault).collect();
    assert!(faults.len() > 1, "diffeq must yield SFR faults to compare");
    (sys, faults)
}

#[test]
fn lane_packed_grades_are_bit_identical_to_scalar_at_every_thread_count() {
    let (sys, faults) = diffeq_sfr();
    let cfg = quick_grade_cfg();
    let (base_ref, grades_ref) = grade_faults_scalar_with(&sys, &faults, &cfg, 1, &NullProgress);
    for threads in [1, 2, 8] {
        let (base, grades) = grade_faults_with(&sys, &faults, &cfg, threads, &NullProgress);
        assert_eq!(
            base.mean_uw, base_ref.mean_uw,
            "baseline, {threads} threads"
        );
        assert_eq!(base.batches, base_ref.batches);
        assert_eq!(grades.len(), grades_ref.len());
        for (g, r) in grades.iter().zip(&grades_ref) {
            assert_eq!(g.fault, r.fault);
            assert_eq!(g.mean_uw, r.mean_uw, "{:?}, {threads} threads", g.fault);
            assert_eq!(g.pct_change, r.pct_change, "{:?}", g.fault);
            assert_eq!(g.flagged, r.flagged, "{:?}", g.fault);
        }
    }
}

#[test]
fn tape_kernel_grades_are_bit_identical_to_scalar_at_every_thread_count() {
    let (sys, faults) = diffeq_sfr();
    let cfg = quick_grade_cfg();
    let (base_ref, grades_ref) = grade_faults_scalar_with(&sys, &faults, &cfg, 1, &NullProgress);
    for kernel in [SimKernel::Scalar, SimKernel::Tape, SimKernel::TapeWide] {
        for threads in [1, 2, 8] {
            let (base, grades) =
                grade_faults_with_kernel(&sys, &faults, &cfg, threads, &NullProgress, kernel);
            assert_eq!(
                base.mean_uw, base_ref.mean_uw,
                "baseline, {kernel:?}, {threads} threads"
            );
            assert_eq!(base.batches, base_ref.batches);
            assert_eq!(grades.len(), grades_ref.len());
            for (g, r) in grades.iter().zip(&grades_ref) {
                assert_eq!(g.fault, r.fault);
                assert_eq!(
                    g.mean_uw, r.mean_uw,
                    "{:?}, {kernel:?}, {threads} threads",
                    g.fault
                );
                assert_eq!(g.pct_change, r.pct_change, "{:?}, {kernel:?}", g.fault);
                assert_eq!(g.flagged, r.flagged, "{:?}, {kernel:?}", g.fault);
            }
        }
    }
}

/// Asserts two power reports are equal down to the bits of every float.
fn assert_bits_eq(got: &PowerReport, want: &PowerReport, what: &str) {
    assert_eq!(got.total_uw.to_bits(), want.total_uw.to_bits(), "{what}");
    assert_eq!(
        got.switching_uw.to_bits(),
        want.switching_uw.to_bits(),
        "{what}"
    );
    assert_eq!(got.clock_uw.to_bits(), want.clock_uw.to_bits(), "{what}");
    assert_eq!(got.cycles, want.cycles, "{what}");
}

#[test]
fn table3_wide_tape_measurement_matches_scalar_fault_for_fault() {
    let (sys, faults) = diffeq_sfr();
    let cfg = quick_grade_cfg();
    let ts = TestSet::pseudorandom(sys.pattern_width(), 200, 0xB007).expect("test set");
    // Every SFR fault in one 256-lane pack, past the 63 of a u64 word.
    let wprog = TapeProgram::<W256>::compile(&sys.netlist, &faults).expect("compiles");
    let (wide, _) = measure_power_tape_watched(&sys, &wprog, &ts, &cfg);
    assert_eq!(wide.len(), faults.len() + 1);
    assert_bits_eq(
        &wide[0],
        &measure_power_with_testset(&sys, None, &ts, &cfg),
        "lane 0 is fault-free",
    );
    for (lane, &f) in faults.iter().enumerate() {
        let scalar = measure_power_with_testset(&sys, Some(f), &ts, &cfg);
        assert_bits_eq(&wide[lane + 1], &scalar, &format!("{f:?}"));
    }
}

/// The `table3` binary's two measurements, on its default engine:
/// `grade_faults_with` for the Monte Carlo column and
/// `measure_power_lanes_with_testset` for the paper's three test sets,
/// against the scalar `grade_faults_scalar_with` and
/// `measure_power_with_testset`, bit for bit.
#[test]
fn table3_path_is_bit_identical_to_the_scalar_reference() {
    let (sys, faults) = diffeq_sfr();
    let cfg = quick_grade_cfg();
    let (base, grades) = grade_faults_with(&sys, &faults, &cfg, 2, &NullProgress);
    let (base_ref, grades_ref) = grade_faults_scalar_with(&sys, &faults, &cfg, 2, &NullProgress);
    assert_eq!(base.mean_uw.to_bits(), base_ref.mean_uw.to_bits());
    assert_eq!(
        base.half_width_uw.to_bits(),
        base_ref.half_width_uw.to_bits()
    );
    assert_eq!(grades.len(), grades_ref.len());
    for (g, r) in grades.iter().zip(&grades_ref) {
        assert_eq!(g.fault, r.fault);
        assert_eq!(g.mean_uw.to_bits(), r.mean_uw.to_bits(), "{:?}", g.fault);
        assert_eq!(
            g.pct_change.to_bits(),
            r.pct_change.to_bits(),
            "{:?}",
            g.fault
        );
        assert_eq!(g.flagged, r.flagged, "{:?}", g.fault);
    }
    // Five faults spanning the power range, as the binary picks them.
    let mut order: Vec<usize> = (0..grades.len()).collect();
    order.sort_by(|&a, &b| grades[a].mean_uw.total_cmp(&grades[b].mean_uw));
    let rows = 5.min(order.len());
    let picked: Vec<StuckAt> = (0..rows)
        .map(|i| grades[order[i * (order.len() - 1) / (rows - 1).max(1)]].fault)
        .collect();
    for ts in TestSet::paper_trio(sys.pattern_width()).expect("paper test sets") {
        let reports = measure_power_lanes_with_testset(&sys, &picked, &ts, &cfg).expect("fits");
        let seed = ts.seed();
        assert_bits_eq(
            &reports[0],
            &measure_power_with_testset(&sys, None, &ts, &cfg),
            &format!("fault-free, seed {seed:#x}"),
        );
        for (i, &f) in picked.iter().enumerate() {
            let scalar = measure_power_with_testset(&sys, Some(f), &ts, &cfg);
            assert_bits_eq(&reports[i + 1], &scalar, &format!("{f:?}, seed {seed:#x}"));
        }
    }
}

#[test]
fn table3_testset_measurement_matches_scalar_fault_for_fault() {
    let (sys, faults) = diffeq_sfr();
    let cfg = quick_grade_cfg();
    // A fixed-seed deterministic test set, as in Table 3's columns.
    let ts = TestSet::pseudorandom(sys.pattern_width(), 200, 0xB007).expect("test set");
    let reports =
        measure_power_lanes_with_testset(&sys, &faults[..faults.len().min(63)], &ts, &cfg)
            .expect("at most 63 faults packed");
    let baseline = measure_power_with_testset(&sys, None, &ts, &cfg);
    assert_eq!(
        reports[0].total_uw, baseline.total_uw,
        "lane 0 is fault-free"
    );
    assert_eq!(reports[0].cycles, baseline.cycles);
    for (lane, &f) in faults.iter().take(63).enumerate() {
        let scalar = measure_power_with_testset(&sys, Some(f), &ts, &cfg);
        let lane_rep = &reports[lane + 1];
        assert_eq!(lane_rep.total_uw, scalar.total_uw, "{f:?}");
        assert_eq!(lane_rep.switching_uw, scalar.switching_uw, "{f:?}");
        assert_eq!(lane_rep.clock_uw, scalar.clock_uw, "{f:?}");
        assert_eq!(
            lane_rep.percent_change_from(&reports[0]),
            scalar.percent_change_from(&baseline),
            "Table 3 pct change must be identical for {f:?}"
        );
    }
}

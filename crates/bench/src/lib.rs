//! Shared configuration for the table/figure regeneration binaries and
//! benches.
//!
//! Every experiment of the paper's evaluation section has a binary here
//! (`cargo run --release -p sfr-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — representative Diffeq SFR faults, effects and power |
//! | `table2` | Table 2 — fault breakdown for all three examples |
//! | `table3` | Table 3 — power consistency across test sets |
//! | `fig7` | Figure 7(a,b,c) — per-SFR-fault power scatter with ±5% band |
//! | `worstcase` | the Section 4 worst-case multi-effect experiment |
//!
//! The matching Criterion benches in `benches/` measure the *cost* of
//! each pipeline stage and the ablations called out in `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use sfr_core::exec::{Counters, Progress};
use sfr_core::obs::{Metrics, TraceWriter, TtyStatus};
use sfr_core::{ClassifyConfig, GradeConfig, MonteCarloConfig, StudyConfig};

/// The full-fidelity configuration used to regenerate the paper's
/// numbers: 1200-pattern TPGR detection (the paper's test-set size) and
/// Monte Carlo power to 1% relative confidence.
pub fn paper_config() -> StudyConfig {
    StudyConfig {
        classify: ClassifyConfig {
            test_patterns: 1200,
            ..Default::default()
        },
        grade: GradeConfig {
            mc: MonteCarloConfig {
                rel_tolerance: 0.01,
                min_batches: 8,
                max_batches: 80,
            },
            patterns_per_batch: 240,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A reduced configuration for Criterion benches (same pipeline, fewer
/// patterns/batches so iterations stay fast).
pub fn quick_config() -> StudyConfig {
    StudyConfig {
        classify: ClassifyConfig {
            test_patterns: 240,
            ..Default::default()
        },
        grade: GradeConfig {
            mc: MonteCarloConfig {
                rel_tolerance: 0.05,
                min_batches: 3,
                max_batches: 8,
            },
            patterns_per_batch: 60,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Reads the shared `--threads N` flag every table/figure binary
/// accepts (`cargo run -p sfr-bench --bin table2 -- --threads 8`).
/// Returns 1 when absent; 0 resolves to all available cores. Results
/// are byte-identical at every thread count — the flag only changes
/// wall-clock time.
///
/// # Errors
///
/// Names the flag when its value is missing or not a thread count.
pub fn threads_from_args() -> Result<usize, String> {
    let args: Vec<String> = std::env::args().collect();
    threads_from(&args)
}

fn threads_from(args: &[String]) -> Result<usize, String> {
    let threads = match flag_value(args, "--threads")? {
        None => 1,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("bad --threads value `{v}` (expected a thread count)"))?,
    };
    Ok(if threads == 0 {
        sfr_core::exec::default_threads()
    } else {
        threads
    })
}

/// The value following flag `name` in `args`, if the flag is present.
/// A flag that ends the argument list, or is followed by another
/// `--flag`, is missing its value: an error naming the flag, never a
/// silent default.
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("{name} needs a value")),
    }
}

/// Prints a campaign summary (the [`Counters`] snapshot, via its
/// `Display` impl) to stderr: faults simulated/dropped, Monte Carlo
/// convergence, per-phase wall time.
pub fn report_counters(counters: &Counters) {
    eprint!("{}", counters.snapshot());
}

/// The observability sinks every table/figure binary accepts:
/// `--trace-out FILE` (structured JSONL trace), `--metrics-out FILE`
/// (Prometheus text snapshot plus stderr summary), `--quiet` (no live
/// status line). Mirrors the `sfr` CLI flags so a bench run can be
/// instrumented the same way as a campaign.
pub struct ObsArgs {
    trace: Option<TraceWriter>,
    metrics: Option<(Metrics, String)>,
    tty: TtyStatus,
}

impl ObsArgs {
    /// Parses the observability flags from the process arguments and
    /// opens the requested sinks (creating parent directories).
    ///
    /// # Errors
    ///
    /// Fails when a sink flag is missing its value or the trace file
    /// cannot be created.
    pub fn from_env() -> std::io::Result<Self> {
        let args: Vec<String> = std::env::args().collect();
        let value = |name: &str| {
            flag_value(&args, name)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))
        };
        let trace = match value("--trace-out")? {
            Some(path) => Some(TraceWriter::create(path)?),
            None => None,
        };
        Ok(ObsArgs {
            trace,
            metrics: value("--metrics-out")?.map(|p| (Metrics::new(), p.to_string())),
            tty: TtyStatus::stderr(args.iter().any(|a| a == "--quiet")),
        })
    }

    /// The sink list (always including `counters`) to fan a run out to
    /// with [`sfr_core::exec::Tee`].
    pub fn sinks<'a>(&'a self, counters: &'a Counters) -> Vec<&'a dyn Progress> {
        let mut sinks: Vec<&dyn Progress> = vec![counters, &self.tty];
        if let Some(t) = &self.trace {
            sinks.push(t);
        }
        if let Some((m, _)) = &self.metrics {
            sinks.push(m);
        }
        sinks
    }

    /// Clears the status line, prints the metrics summary (when
    /// enabled), and finalizes the trace and metrics files.
    ///
    /// # Errors
    ///
    /// Fails when a sink file cannot be written.
    pub fn finish(self) -> std::io::Result<()> {
        self.tty.finish();
        if let Some((metrics, path)) = &self.metrics {
            eprint!("{}", metrics.render_summary());
            metrics.write_prometheus(path)?;
            eprintln!("metrics written to {path}");
        }
        if let Some(trace) = self.trace {
            let path = trace.path().display().to_string();
            trace.finish()?;
            eprintln!("trace written to {path}");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn threads_default_to_one_and_parse_a_count() {
        assert_eq!(threads_from(&args(&["table3"])), Ok(1));
        assert_eq!(threads_from(&args(&["table3", "--threads", "3"])), Ok(3));
        assert!(threads_from(&args(&["table3", "--threads", "0"])).is_ok_and(|n| n >= 1));
    }

    #[test]
    fn a_missing_or_bad_threads_value_is_an_error_naming_the_flag() {
        for bad in [
            &["table3", "--threads"][..],
            &["table3", "--threads", "--quiet"],
            &["table3", "--threads", "two"],
        ] {
            let err = threads_from(&args(bad)).unwrap_err();
            assert!(err.contains("--threads"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn a_sink_flag_without_a_path_is_an_error() {
        let list = args(&["fig7", "--quiet", "--trace-out"]);
        assert_eq!(
            flag_value(&list, "--trace-out"),
            Err("--trace-out needs a value".to_string())
        );
        assert_eq!(flag_value(&list, "--metrics-out"), Ok(None));
    }
}

//! The `sfr` command line refuses malformed input with an error that
//! names what is wrong and a nonzero exit, instead of panicking or
//! silently falling back to a default.

#![allow(clippy::unwrap_used)]

use std::process::Command;

/// Runs `sfr` with `args` and returns (succeeded, stderr).
fn sfr(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sfr"))
        .args(args)
        .output()
        .unwrap();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_value_flag_without_a_value_is_refused() {
    for (args, flag) in [
        (&["grade", "diffeq", "--threads"][..], "--threads"),
        (
            &["grade", "diffeq", "--trace-out", "--quiet"],
            "--trace-out",
        ),
        (&["classify", "facet", "--patterns"], "--patterns"),
    ] {
        let (ok, err) = sfr(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(
            err.contains(&format!("{flag} needs a value")),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn a_pattern_word_wider_than_64_bits_is_refused() {
    // diffeq has five data inputs: 13 bits each is a 65-bit pattern.
    for cmd in ["grade", "classify"] {
        let (ok, err) = sfr(&[cmd, "diffeq", "--width", "13"]);
        assert!(!ok, "{cmd} succeeded");
        assert!(
            err.contains("pattern width 65") && err.contains("64"),
            "{cmd}: {err}"
        );
        assert!(!err.contains("panicked"), "{cmd}: {err}");
    }
}

#[test]
fn retired_engines_are_refused() {
    for engine in ["lane", "threaded"] {
        let (ok, err) = sfr(&["grade", "facet", "--engine", engine]);
        assert!(!ok, "--engine {engine} succeeded");
        assert!(err.contains(&format!("unknown engine `{engine}`")), "{err}");
    }
}

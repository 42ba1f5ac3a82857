//! The host-speed reference: a fixed kernel, timed before and after every
//! job, that scales job times to one nominal host speed.
//!
//! The host's throughput for the same code changes by up to 1.7× over
//! stretches of seconds to minutes (NOTES.md, Steadiness). The kernel
//! does the same kind of work as the program's simulators — a
//! bit-parallel, levelized evaluation of a gate netlist with toggle
//! counting — but it is the benchmark's own code, so a change to the
//! program does not change it: a slower program reads slower, a slower
//! host does not.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's nominal wall time, ms: about what it takes on the
/// measurement host when nothing else slows it. A job time `t` measured
/// next to kernel times averaging `k` is reported as
/// `t * REFERENCE_MS / k`.
pub const REFERENCE_MS: f64 = 40.0;

/// Gates of the kernel's netlist.
const GATES: usize = 4096;
/// Primary inputs of the kernel's netlist.
const INPUTS: usize = 64;
/// Clock cycles the kernel simulates.
const CYCLES: usize = 1000;

/// Runs the kernel once and returns its wall time, ms: builds a fixed
/// pseudo-random netlist of two-input gates (each reading earlier nets
/// only, so index order is a topological order) and simulates it for
/// [`CYCLES`] cycles on 64 lanes of fresh random inputs, counting
/// output toggles.
pub fn kernel_ms() -> f64 {
    let start = Instant::now();
    let mut state = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let gates: Vec<(u8, u32, u32)> = (0..GATES)
        .map(|i| {
            let nets = (INPUTS + i) as u64;
            (
                (next() % 6) as u8,
                (next() % nets) as u32,
                (next() % nets) as u32,
            )
        })
        .collect();
    let mut nets = vec![0u64; INPUTS + GATES];
    let mut toggles = 0u64;
    for _ in 0..CYCLES {
        for v in &mut nets[..INPUTS] {
            *v = next();
        }
        for (i, &(op, a, b)) in gates.iter().enumerate() {
            let (x, y) = (nets[a as usize], nets[b as usize]);
            let out = match op {
                0 => x & y,
                1 => x | y,
                2 => x ^ y,
                3 => !(x & y),
                4 => !(x | y),
                _ => !x,
            };
            toggles += u64::from((out ^ nets[INPUTS + i]).count_ones());
            nets[INPUTS + i] = out;
        }
    }
    black_box(toggles);
    start.elapsed().as_secs_f64() * 1e3
}

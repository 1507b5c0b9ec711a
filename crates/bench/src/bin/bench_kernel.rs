//! Microbenchmark for the lane-widened bitset kernel.
//!
//! Isolates the single-thread win of the 4-lane AND+popcount primitive
//! (`culinaria_flavordb::kernel::and_popcount`, runtime-dispatched to a
//! POPCNT build when the CPU has it) against the scalar reference walk
//! (`kernel::scalar::and_popcount`), with no pooling, tiling, or cache
//! effects in the way. Universe sizes sweep the crossover region word
//! by word (64–320 bits) and then the pipeline's packed-profile sizes
//! (512 bits — two full lane groups; 4096 bits — lane-dominated).
//!
//! Three paths are timed per size: the scalar walk, the raw widened
//! loop (`kernel::widened`, no dispatch threshold), and the public
//! dispatcher, which routes operands below
//! [`kernel::SCALAR_BELOW_WORDS`] words to the scalar walk. The
//! summary records the measured crossover — the smallest word count
//! where the widened loop actually beats the scalar one — so the
//! compiled-in threshold can be audited against the machine.
//!
//! All paths fold every result into a checksum that is asserted equal
//! before any timing, so the measured loops provably do the same work.
//! The three paths are timed interleaved; each reports min, median and
//! MAD. Writes `BENCH_kernel.json`.
//!
//! Knobs: `CULINARIA_KERNEL_PAIRS` (default 4096 operand pairs per
//! universe), `CULINARIA_SEED` (default 2018), `CULINARIA_BENCH_OUT`
//! (default `BENCH_kernel.json`).

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use culinaria_bench::harness::{self, Obj, Run};
use culinaria_bench::{check_args, env_or};
use culinaria_flavordb::kernel;

/// Universe sizes in bits: every word count through the crossover
/// region, then eight words (two full lane groups, no tail) and
/// sixty-four words (lane-dominated).
const UNIVERSES: &[usize] = &[64, 128, 192, 256, 320, 512, 4096];

/// Timed repeats per path.
const TIME_REPS: usize = 5;

/// Word-operation budget per timed sample, so every universe size gets
/// a measurement in the milliseconds regardless of operand width.
const WORK_BUDGET: usize = 16_000_000;

/// `passes` sweeps of `f` over all pairs, folded into a checksum.
fn sweep(pairs: &[(Vec<u64>, Vec<u64>)], passes: usize, f: impl Fn(&[u64], &[u64]) -> u64) -> u64 {
    let mut checksum = 0u64;
    for _ in 0..passes {
        for (a, b) in pairs {
            checksum = checksum.wrapping_add(f(black_box(a), black_box(b)));
        }
    }
    black_box(checksum)
}

fn main() {
    check_args();
    let n_pairs: usize = env_or("CULINARIA_KERNEL_PAIRS", 4096);
    let seed: u64 = env_or("CULINARIA_SEED", 2018);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut rows = Vec::new();
    let mut crossover_words = None;
    for &bits in UNIVERSES {
        let words = bits / 64;
        let pairs: Vec<(Vec<u64>, Vec<u64>)> = (0..n_pairs)
            .map(|_| {
                let gen = |rng: &mut StdRng| (0..words).map(|_| rng.random()).collect::<Vec<u64>>();
                (gen(&mut rng), gen(&mut rng))
            })
            .collect();
        let passes = (WORK_BUDGET / (n_pairs * words).max(1)).max(1);

        let scalar_sum = sweep(&pairs, passes, kernel::scalar::and_popcount);
        assert_eq!(
            scalar_sum,
            sweep(&pairs, passes, kernel::widened::and_popcount),
            "kernel checksum diverged at {bits} bits"
        );
        assert_eq!(
            scalar_sum,
            sweep(&pairs, passes, kernel::and_popcount),
            "dispatched checksum diverged at {bits} bits"
        );

        let [scalar, widened, dispatched] = harness::time_ms(
            TIME_REPS,
            [
                &mut || sweep(&pairs, passes, kernel::scalar::and_popcount),
                &mut || sweep(&pairs, passes, kernel::widened::and_popcount),
                &mut || sweep(&pairs, passes, kernel::and_popcount),
            ],
        );
        let widened_speedup = scalar.min() / widened.min();
        let dispatched_speedup = scalar.min() / dispatched.min();
        eprintln!(
            "{bits:>5} bits ({words:>2} words): scalar {:.2} ms, widened {:.2} ms \
             ({widened_speedup:.2}x), dispatched {:.2} ms ({dispatched_speedup:.2}x) \
             ({passes} passes x {n_pairs} pairs)",
            scalar.min(),
            widened.min(),
            dispatched.min(),
        );
        if widened_speedup > 1.0 {
            crossover_words = crossover_words.or(Some(words));
        }
        rows.push(
            Obj::default()
                .set("bits", bits)
                .set("words", words)
                .set("passes", passes)
                .stat("scalar_ms", &scalar)
                .stat("widened_ms", &widened)
                .stat("dispatched_ms", &dispatched)
                .set("widened_speedup", widened_speedup)
                .set("dispatched_speedup", dispatched_speedup)
                .set("parity", "checksum-identical"),
        );
    }

    let run = Run {
        seed,
        scale: None,
        threads: 1,
        reps: TIME_REPS,
    };
    harness::summary("kernel_and_popcount", run)
        .set("n_pairs", n_pairs)
        .set("scalar_below_words", kernel::SCALAR_BELOW_WORDS)
        .set("measured_crossover_words", crossover_words)
        .set("universes", rows)
        .write("BENCH_kernel.json");
}

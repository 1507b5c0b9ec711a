//! Performance harness for the higher-order (n-tuple) analysis kernel.
//!
//! Times the bitset k-way intersection kernel (`ntuple::KTupleKernel` +
//! prefix-mask `IntersectScratch`, pooled blocked ensembles) against the
//! frozen pre-kernel walker (`ntuple::reference`: per-subset profile
//! materialization + allocating k-way set intersections, serial loops)
//! on k = 3 and k = 4, over every region of the generated world:
//!
//! * **observed sweep** — mean N_s^(k) of every cuisine;
//! * **Monte-Carlo ensembles** — the Random-model null per cuisine,
//!   both paths consuming identical block-seeded PRNG streams.
//!
//! Parity is asserted to the bit on every score and every ensemble,
//! and the pooled ensembles are re-run — and now *timed* — on 1, 2, 4
//! and 8 threads, producing a `scaling` curve with a parity flag at
//! every point. Every assert runs before the paths it checks are
//! timed. The summary lands in `BENCH_ntuple.json`.
//!
//! Knobs: `CULINARIA_SCALE` (default 0.1), `CULINARIA_NTUPLE_MC`
//! (default 10000), `CULINARIA_SEED` (default 2018),
//! `CULINARIA_THREADS` (default 0 = available parallelism),
//! `CULINARIA_BENCH_OUT` (default `BENCH_ntuple.json`).

use rand::rngs::StdRng;
use rand::SeedableRng;

use culinaria_bench::harness::{self, Obj, Run};
use culinaria_bench::{check_args, env_or, generate_logged, world_config_from_env};
use culinaria_core::monte_carlo::MonteCarloConfig;
use culinaria_core::ntuple::{self, ktuple_null_ensemble, mean_cuisine_ktuple_score, KTupleScorer};
use culinaria_core::null_models::{CuisineSampler, NullModel};
use culinaria_datagen::World;
use culinaria_recipedb::Region;
use culinaria_stats::rng::{derive_seed, derive_seed_labeled};
use culinaria_stats::{NullEnsemble, RunningStats};

/// The pre-kernel Monte-Carlo loop: serial blocks, allocating
/// `generate` per sample, frozen walker per score — on the **same**
/// `(k, model, block)` seed lattice as the pooled kernel ensembles, so
/// both paths draw identical streams.
fn baseline_ktuple_ensemble(
    scorer: &ntuple::reference::KTupleScorer<'_>,
    sampler: &CuisineSampler,
    model: NullModel,
    k: usize,
    n_recipes: usize,
    seed: u64,
) -> Option<NullEnsemble> {
    const BLOCK: usize = 2048;
    let n_blocks = n_recipes.div_ceil(BLOCK);
    let mut total = RunningStats::new();
    for b in 0..n_blocks {
        let lo = b * BLOCK;
        let hi = ((b + 1) * BLOCK).min(n_recipes);
        let stream = (k as u64) << 48 | (model.index() as u64) << 32 | b as u64;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, stream));
        let mut stats = RunningStats::new();
        for _ in lo..hi {
            let recipe = sampler.generate(model, &mut rng);
            stats.push(scorer.score_local(&recipe));
        }
        total.merge(&stats);
    }
    NullEnsemble::from_running(&total)
}

/// Timed repeats per path: the frozen walker's ensembles take seconds.
const TIME_REPS: usize = 3;

/// A region with a usable sampler and its salted run seed.
type Regions = [(Region, CuisineSampler, u64)];

/// Mean N_s^(k) of every region, by the frozen walker or the kernel.
fn observed(world: &World, regions: &Regions, k: usize, kernel: Option<usize>) -> Vec<f64> {
    let score = |region: Region| {
        let cuisine = world.recipes.cuisine(region);
        match kernel {
            Some(threads) => mean_cuisine_ktuple_score(&world.flavor, &cuisine, k, threads),
            None => ntuple::reference::mean_cuisine_ktuple_score(&world.flavor, &cuisine, k),
        }
    };
    regions
        .iter()
        .map(|(region, _, _)| score(*region))
        .collect()
}

/// The Random-model null of every region, by the frozen walker
/// (serial blocks) or the pooled kernel on `kernel` threads.
fn ensembles(
    world: &World,
    regions: &Regions,
    k: usize,
    n_mc: usize,
    kernel: Option<usize>,
) -> Vec<Option<NullEnsemble>> {
    let ensemble = |(region, sampler, seed): &(Region, CuisineSampler, u64)| {
        let cuisine = world.recipes.cuisine(*region);
        match kernel {
            Some(n_threads) => {
                let scorer = KTupleScorer::for_cuisine(&world.flavor, &cuisine, k);
                let cfg = MonteCarloConfig {
                    n_recipes: n_mc,
                    seed: *seed,
                    n_threads,
                };
                ktuple_null_ensemble(&scorer, sampler, NullModel::Random, &cfg)
            }
            None => {
                let scorer =
                    ntuple::reference::KTupleScorer::for_cuisine(&world.flavor, &cuisine, k);
                baseline_ktuple_ensemble(&scorer, sampler, NullModel::Random, k, n_mc, *seed)
            }
        }
    };
    regions.iter().map(ensemble).collect()
}

fn main() {
    check_args();
    let world_cfg = world_config_from_env(0.1);
    let (scale, seed) = (world_cfg.recipe_scale, world_cfg.seed);
    let n_threads: usize = env_or("CULINARIA_THREADS", 0);
    let n_mc: usize = env_or("CULINARIA_NTUPLE_MC", 10_000);
    let world = generate_logged(&world_cfg);

    let regions: Vec<(Region, CuisineSampler, u64)> = world
        .recipes
        .regions()
        .into_iter()
        .filter_map(|region| {
            let sampler = CuisineSampler::build(&world.flavor, world.recipes.cuisine(region))?;
            Some((region, sampler, derive_seed_labeled(seed, region.code())))
        })
        .collect();
    let n_regions = regions.len();

    let mut summary = harness::summary(
        "ntuple_kway_kernel",
        Run {
            seed,
            scale: Some(scale),
            threads: n_threads,
            reps: TIME_REPS,
        },
    )
    .set("n_regions", n_regions)
    .set("n_recipes_per_ensemble", n_mc)
    .set("n_threads_requested", n_threads);
    let mut references: Vec<(usize, Vec<Option<NullEnsemble>>)> = Vec::new();
    for k in [3usize, 4] {
        let baseline_obs = observed(&world, &regions, k, None);
        let optimized_obs = observed(&world, &regions, k, Some(n_threads));
        for ((region, _, _), (a, b)) in regions.iter().zip(baseline_obs.iter().zip(&optimized_obs))
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} k={k}: observed N_s diverges",
                region.code()
            );
        }

        // Ensemble parity: identical streams → identical bits.
        eprintln!("k={k}: parity of the frozen walker vs the kernel, {n_mc} recipes x {n_regions} regions");
        let baseline_mc = ensembles(&world, &regions, k, n_mc, None);
        let optimized_mc = ensembles(&world, &regions, k, n_mc, Some(n_threads));
        for ((region, _, _), (a, b)) in regions.iter().zip(baseline_mc.iter().zip(&optimized_mc)) {
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(
                        a.mean.to_bits(),
                        b.mean.to_bits(),
                        "{} k={k}: null means diverge",
                        region.code()
                    );
                    assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits());
                }
                (a, b) => assert_eq!(a.is_some(), b.is_some()),
            }
        }

        let [baseline_observed, optimized_observed] = harness::time_ms(
            TIME_REPS,
            [&mut || observed(&world, &regions, k, None), &mut || {
                observed(&world, &regions, k, Some(n_threads))
            }],
        );
        let [baseline_mc_t, optimized_mc_t] = harness::time_ms(
            TIME_REPS,
            [
                &mut || ensembles(&world, &regions, k, n_mc, None),
                &mut || ensembles(&world, &regions, k, n_mc, Some(n_threads)),
            ],
        );
        let baseline_wall_ms = baseline_observed.min() + baseline_mc_t.min();
        let optimized_wall_ms = optimized_observed.min() + optimized_mc_t.min();
        let speedup = baseline_wall_ms / optimized_wall_ms;
        eprintln!(
            "k={k}: baseline {baseline_wall_ms:.0} ms (observed {:.0} + mc {:.0}) vs kernel \
             {optimized_wall_ms:.0} ms -> {speedup:.2}x",
            baseline_observed.min(),
            baseline_mc_t.min(),
        );
        let report = Obj::default()
            .stat("baseline_observed_ms", &baseline_observed)
            .stat("optimized_observed_ms", &optimized_observed)
            .stat("baseline_mc_ms", &baseline_mc_t)
            .stat("optimized_mc_ms", &optimized_mc_t)
            .set("baseline_wall_ms", baseline_wall_ms)
            .set("optimized_wall_ms", optimized_wall_ms)
            .set("speedup", speedup);
        summary = summary.set(&format!("k{k}"), report);
        references.push((k, optimized_mc));
    }

    // Thread-scaling sweep: the pooled kernel ensembles for both
    // orders at 1/2/4/8 workers, each point bit-identical to the
    // reference ensembles.
    let run_all = |threads| -> Vec<_> {
        let k_ensembles =
            |(k, _): &(usize, _)| ensembles(&world, &regions, *k, n_mc, Some(threads));
        references.iter().map(k_ensembles).collect()
    };
    let scaling = harness::scaling(TIME_REPS, run_all, |threads, runs| {
        for ((k, reference), sweep) in references.iter().zip(runs) {
            for ((region, _, _), (refe, e)) in regions.iter().zip(reference.iter().zip(&sweep)) {
                match (refe, e) {
                    (Some(a), Some(b)) => {
                        assert_eq!(
                            a.mean.to_bits(),
                            b.mean.to_bits(),
                            "{} k={k}: ensemble differs on {threads} threads",
                            region.code()
                        );
                        assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits());
                    }
                    (a, b) => assert_eq!(a.is_some(), b.is_some()),
                }
            }
        }
    });

    summary
        .set("scaling", scaling)
        .set("thread_counts_checked", vec![1usize, 2, 4, 8])
        .set("parity", "bit-identical")
        .write("BENCH_ntuple.json");
}

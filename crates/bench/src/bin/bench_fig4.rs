//! Performance harness for the Fig 4 world analysis.
//!
//! Times the optimized pipeline (`analyze_world`: bitset overlap
//! builds, shared worker pool over the flattened `(region, model,
//! block)` queue, allocation-free sampling) against a faithful
//! reconstruction of the pre-optimization path (serial per-region
//! sorted-merge overlap sweep + per-recipe allocating `generate`), and
//! writes a machine-readable summary to `BENCH_fig4.json`.
//!
//! Both paths consume identical PRNG streams, so the harness also
//! asserts the two produce **bit-identical** null ensembles — the
//! speedup is free of numerical drift by construction. A final sweep
//! re-times the optimized pipeline at 1/2/4/8 workers (`scaling` in
//! the JSON), asserting bit-parity at every point. Every assert runs
//! before the paths it checks are timed.
//!
//! Knobs: `CULINARIA_SCALE` (default 0.1), `CULINARIA_MC` (default
//! 20000), `CULINARIA_SEED` (default 2018), `CULINARIA_THREADS`
//! (default 0 = available parallelism), `CULINARIA_BENCH_OUT`
//! (default `BENCH_fig4.json`).

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;

use culinaria_bench::harness::{self, Run};
use culinaria_bench::{check_args, env_or, generate_logged, world_config_from_env};
use culinaria_core::monte_carlo::MonteCarloConfig;
use culinaria_core::null_models::{CuisineSampler, NullModel};
use culinaria_core::pairing::OverlapCache;
use culinaria_core::z_analysis::{analyze_world, CuisineAnalysis};
use culinaria_flavordb::FlavorDb;
use culinaria_obs::Metrics;
use culinaria_recipedb::{Cuisine, RecipeStore};
use culinaria_stats::rng::{derive_seed, derive_seed_labeled};
use culinaria_stats::{NullEnsemble, RunningStats};

/// Timed repeats per path.
const TIME_REPS: usize = 5;

/// Per-region state shared by both timed paths, prepared up front so
/// neither path is charged for the other's scaffolding.
struct Prepared<'a> {
    cuisine: Cuisine<'a>,
    sampler: CuisineSampler,
    cache: OverlapCache,
    seed: u64,
}

fn prepare<'a>(db: &FlavorDb, store: &'a RecipeStore, master_seed: u64) -> Vec<Prepared<'a>> {
    store
        .regions()
        .into_iter()
        .filter_map(|region| {
            let cuisine = store.cuisine(region);
            let sampler = CuisineSampler::build(db, &cuisine)?;
            let cache = OverlapCache::for_cuisine(db, &cuisine);
            Some(Prepared {
                cuisine,
                sampler,
                cache,
                seed: derive_seed_labeled(master_seed, region.code()),
            })
        })
        .collect()
}

/// The seed's overlap-table construction: a serial O(n²) sweep of
/// sorted-merge profile intersections. Returns a checksum so the work
/// cannot be optimized away.
fn sorted_merge_sweep(db: &FlavorDb, cuisine: &Cuisine<'_>) -> u64 {
    let pool_ids = cuisine.ingredient_set();
    let profiles: Vec<_> = pool_ids
        .iter()
        .map(|&id| &db.ingredient(id).expect("live ingredient").profile)
        .collect();
    let mut checksum = 0u64;
    for i in 0..profiles.len() {
        for j in (i + 1)..profiles.len() {
            checksum += profiles[i].shared_count(profiles[j]) as u64;
        }
    }
    checksum
}

/// The seed's Monte-Carlo inner loop: serial over `(model, block)`,
/// one freshly allocated recipe per sample, same block-seeded streams
/// as the optimized pipeline.
fn baseline_monte_carlo(
    prepared: &[Prepared<'_>],
    models: &[NullModel],
    cfg: &MonteCarloConfig,
) -> Vec<Vec<NullEnsemble>> {
    const BLOCK: usize = 2048;
    let n_blocks = cfg.n_recipes.div_ceil(BLOCK);
    prepared
        .iter()
        .map(|p| {
            models
                .iter()
                .map(|&model| {
                    let mut total = RunningStats::new();
                    for b in 0..n_blocks {
                        let lo = b * BLOCK;
                        let hi = ((b + 1) * BLOCK).min(cfg.n_recipes);
                        let stream = (model.index() as u64) << 32 | b as u64;
                        let mut rng = StdRng::seed_from_u64(derive_seed(p.seed, stream));
                        let mut stats = RunningStats::new();
                        for _ in lo..hi {
                            let recipe = p.sampler.generate(model, &mut rng);
                            stats.push(p.cache.score_local(&recipe));
                        }
                        total.merge(&stats);
                    }
                    NullEnsemble::from_running(&total).expect("non-degenerate ensemble")
                })
                .collect()
        })
        .collect()
}

/// The optimized overlap build: bitset pack + pooled triangle sweep,
/// per region, checksummed like [`sorted_merge_sweep`].
fn bitset_sweep(db: &FlavorDb, prepared: &[Prepared<'_>], n_threads: usize) -> u64 {
    let mut checksum = 0u64;
    for p in prepared {
        let pool = p.cuisine.ingredient_set();
        let cache = OverlapCache::try_build(db, &pool, n_threads, &Metrics::disabled())
            .expect("cuisine pools hold live ingredients");
        for i in 0..cache.len() as u32 {
            for j in (i + 1)..cache.len() as u32 {
                checksum += u64::from(cache.overlap(i, j));
            }
        }
    }
    checksum
}

/// Assert two world analyses agree to the bit.
fn assert_same_analysis(a: &[CuisineAnalysis], b: &[CuisineAnalysis], threads: usize) {
    assert_eq!(a.len(), b.len());
    for (a, b) in a.iter().zip(b) {
        assert_eq!(a.region, b.region);
        assert_eq!(
            a.observed_mean.to_bits(),
            b.observed_mean.to_bits(),
            "{}: observed mean diverges on {threads} threads",
            a.region.code()
        );
        for (x, y) in a.comparisons.iter().zip(&b.comparisons) {
            assert_eq!(
                x.null.mean.to_bits(),
                y.null.mean.to_bits(),
                "{} {}: ensemble diverges on {threads} threads",
                a.region.code(),
                x.model
            );
            assert_eq!(x.null.std_dev.to_bits(), y.null.std_dev.to_bits());
        }
    }
}

fn main() {
    check_args();
    let world_cfg = world_config_from_env(0.1);
    let (scale, seed) = (world_cfg.recipe_scale, world_cfg.seed);
    let n_threads: usize = env_or("CULINARIA_THREADS", 0);
    let cfg = MonteCarloConfig {
        n_recipes: env_or("CULINARIA_MC", 20_000),
        seed,
        n_threads,
    };
    let models = NullModel::ALL;
    let world = generate_logged(&world_cfg);

    let prepared = prepare(&world.flavor, &world.recipes, cfg.seed);
    let n_regions = prepared.len();
    let baseline_build = || -> u64 {
        prepared
            .iter()
            .map(|p| sorted_merge_sweep(&world.flavor, &p.cuisine))
            .sum()
    };
    let optimized_build = || bitset_sweep(&world.flavor, &prepared, n_threads);
    assert_eq!(
        baseline_build(),
        optimized_build(),
        "bitset and sorted-merge overlap tables disagree"
    );

    // Parity: both Monte-Carlo paths consume identical PRNG streams, so
    // every null ensemble must be bit-identical.
    eprintln!(
        "parity: serial baseline vs analyze_world, {} recipes x {} models x {n_regions} regions",
        cfg.n_recipes,
        models.len(),
    );
    let baseline = baseline_monte_carlo(&prepared, &models, &cfg);
    let analyses = analyze_world(&world.flavor, &world.recipes, &models, &cfg);
    assert_eq!(analyses.len(), baseline.len());
    for (a, b_models) in analyses.iter().zip(&baseline) {
        for (c, b) in a.comparisons.iter().zip(b_models) {
            assert_eq!(
                c.null.mean.to_bits(),
                b.mean.to_bits(),
                "{} {}: baseline and optimized ensembles diverge",
                a.region.code(),
                c.model
            );
            assert_eq!(c.null.std_dev.to_bits(), b.std_dev.to_bits());
        }
    }

    let [baseline_build_t, optimized_build_t] = harness::time_ms(
        TIME_REPS,
        [&mut || baseline_build(), &mut || optimized_build()],
    );
    let [baseline_mc, optimized_wall] = harness::time_ms(
        TIME_REPS,
        [
            &mut || _ = black_box(baseline_monte_carlo(&prepared, &models, &cfg)),
            &mut || _ = black_box(analyze_world(&world.flavor, &world.recipes, &models, &cfg)),
        ],
    );
    let baseline_wall_ms = baseline_build_t.min() + baseline_mc.min();
    let speedup = baseline_wall_ms / optimized_wall.min();
    eprintln!(
        "baseline {baseline_wall_ms:.0} ms (build {:.0} + mc {:.0}) vs optimized {:.0} ms \
         -> {speedup:.2}x",
        baseline_build_t.min(),
        baseline_mc.min(),
        optimized_wall.min()
    );

    // The determinism contract, measured: every thread count is
    // bit-identical to the reference run above.
    let scaling = harness::scaling(
        TIME_REPS,
        |n_threads| {
            let cfg = MonteCarloConfig { n_threads, ..cfg };
            analyze_world(&world.flavor, &world.recipes, &models, &cfg)
        },
        |threads, sweep| assert_same_analysis(&sweep, &analyses, threads),
    );

    let run = Run {
        seed,
        scale: Some(scale),
        threads: n_threads,
        reps: TIME_REPS,
    };
    harness::summary("fig4_world_analysis", run)
        .set("n_regions", n_regions)
        .set("n_models", models.len())
        .set("n_recipes_per_model", cfg.n_recipes)
        .set("n_threads_requested", n_threads)
        .stat("baseline_build_ms", &baseline_build_t)
        .stat("optimized_build_ms", &optimized_build_t)
        .stat("baseline_mc_ms", &baseline_mc)
        .set("baseline_wall_ms", baseline_wall_ms)
        .stat("optimized_wall_ms", &optimized_wall)
        .set("speedup", speedup)
        .set("scaling", scaling)
        .set("parity", "bit-identical")
        .write("BENCH_fig4.json");
}

//! The Monte-Carlo engine: the one block loop under the pairwise runs
//! ([`try_run_null_model`]), the k-tuple runs
//! ([`crate::ntuple::try_ktuple_null_ensemble`]) and the cuisine and
//! world analyses ([`crate::z_analysis`]).
//!
//! An *ensemble* is a scorer, a [`CuisineSampler`], a [`NullModel`], a
//! run seed and a k salt. One engine call flattens every
//! `(ensemble, block)` pair into one task queue on the shared worker
//! pool ([`culinaria_stats::pool`]): task `t` is block `t % n_blocks`
//! of ensemble `t / n_blocks`. Block `b` draws from
//! `derive_seed(seed, k << 48 | model << 32 | b)` (k = 0 for pairs) and
//! accumulates its own [`RunningStats`]; the pool returns blocks in
//! task order and each ensemble folds its own in block order, so every
//! ensemble is **bit-identical regardless of thread count** — a design
//! choice DESIGN.md calls out. The scorer is a generic parameter, so
//! each hot loop is monomorphised, and workers reuse one scratch, so a
//! run allocates nothing per sampled recipe.

use rand::rngs::StdRng;
use rand::SeedableRng;

use culinaria_obs::Metrics;
use culinaria_stats::rng::derive_seed;
use culinaria_stats::{fault, pool};
use culinaria_stats::{NullEnsemble, RunningStats};

use crate::error::StageFailure;
use crate::null_models::{CuisineSampler, NullModel, SampleScratch};
use crate::pairing::OverlapCache;

/// Recipes per scheduling block (also the determinism granularity).
pub(crate) const BLOCK: usize = 2048;

/// Scores one sampled recipe given as local pool indices, with a
/// per-worker scratch reused across recipes.
pub(crate) trait Scorer: Sync {
    type Scratch: Default;
    fn score(&self, locals: &[u32], scratch: &mut Self::Scratch) -> f64;
}

impl Scorer for OverlapCache {
    type Scratch = ();

    fn score(&self, locals: &[u32], _: &mut ()) -> f64 {
        self.score_local(locals)
    }
}

/// One ensemble of an engine call; `seed` is the (region-salted) run
/// seed and `k` the stream salt, 0 for the pairwise scorer.
pub(crate) struct Ensemble<'e, S> {
    pub(crate) scorer: &'e S,
    pub(crate) sampler: &'e CuisineSampler,
    pub(crate) model: NullModel,
    pub(crate) seed: u64,
    pub(crate) k: usize,
}

/// Sample and score `cfg.n_recipes` recipes per ensemble on
/// `cfg.n_threads` workers; one summary per ensemble, in order (`None`
/// when degenerate). Each ensemble carries its own seed.
///
/// `stage` labels the per-task fault probe and the failure (lowest
/// task index wins for any thread count; `error.<stage>` is bumped).
/// Records counters `<prefix>.recipes` / `<prefix>.blocks`, the
/// per-block wall-time histogram `<prefix>.block_us` and the `pool.*`
/// instruments; spans are the caller's. Telemetry never changes a
/// result.
pub(crate) fn run_ensembles<S: Scorer>(
    ensembles: &[Ensemble<'_, S>],
    cfg: &MonteCarloConfig,
    stage: &'static str,
    prefix: &str,
    metrics: &Metrics,
) -> Result<Vec<Option<NullEnsemble>>, StageFailure> {
    let n_blocks = cfg.n_recipes.div_ceil(BLOCK);
    let n_tasks = ensembles.len() * n_blocks;
    metrics
        .counter(&format!("{prefix}.recipes"))
        .add((ensembles.len() * cfg.n_recipes) as u64);
    metrics
        .counter(&format!("{prefix}.blocks"))
        .add(n_tasks as u64);
    let block_hist = metrics.histogram(&format!("{prefix}.block_us"));
    let blocks = pool::try_run(
        cfg.n_threads,
        n_tasks,
        &pool::PoolObs::new(metrics),
        <(Vec<u32>, SampleScratch, S::Scratch)>::default,
        |(recipe, sample, score), t| -> Result<RunningStats, fault::InjectedFault> {
            fault::probe(stage, t)?;
            let timer = block_hist.start();
            let (e, b) = (&ensembles[t / n_blocks], t % n_blocks);
            let seed = derive_seed(e.seed, block_stream(e.k, e.model, b));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stats = RunningStats::new();
            for _ in b * BLOCK..((b + 1) * BLOCK).min(cfg.n_recipes) {
                e.sampler.generate_into(e.model, &mut rng, recipe, sample);
                stats.push(e.scorer.score(recipe, score));
            }
            timer.stop();
            Ok(stats)
        },
    )
    .map_err(|f| StageFailure::from_task(stage, f).record(metrics))?;
    Ok((0..ensembles.len())
        .map(|e| {
            let mut total = RunningStats::new();
            for s in &blocks[e * n_blocks..][..n_blocks] {
                total.merge(s);
            }
            NullEnsemble::from_running(&total)
        })
        .collect())
}

/// One ensemble under its caller's run span `<prefix>.run`.
pub(crate) fn run_one<S: Scorer>(
    ensemble: Ensemble<'_, S>,
    cfg: &MonteCarloConfig,
    stage: &'static str,
    prefix: &str,
    metrics: &Metrics,
) -> Result<Option<NullEnsemble>, StageFailure> {
    let _run_guard = metrics.span(&format!("{prefix}.run")).enter();
    Ok(run_ensembles(&[ensemble], cfg, stage, prefix, metrics)?[0])
}

/// The PRNG stream id of block `b` of a `(k, model)` ensemble: k-salted,
/// so orders never share a stream under one run seed.
fn block_stream(k: usize, model: NullModel, b: usize) -> u64 {
    (k as u64) << 48 | (model.index() as u64) << 32 | b as u64
}

/// Monte-Carlo configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarloConfig {
    /// Number of randomized recipes per model (paper: 100,000).
    pub n_recipes: usize,
    /// Run seed; combined with the model and block index per stream.
    pub seed: u64,
    /// Worker threads; 0 means use the available parallelism.
    pub n_threads: usize,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            n_recipes: 100_000,
            seed: 0xC0FFEE,
            n_threads: 0,
        }
    }
}

impl MonteCarloConfig {
    /// A reduced configuration for tests and quick runs.
    pub fn quick(n_recipes: usize) -> Self {
        MonteCarloConfig {
            n_recipes,
            ..MonteCarloConfig::default()
        }
    }
}

/// Run one null model for one cuisine: sample `cfg.n_recipes` recipes,
/// score each against `cache`, and summarize — with telemetry off.
///
/// Returns `None` when the ensemble is degenerate (fewer than two
/// recipes sampled).
///
/// # Panics
/// Panics when a sampling block fails; [`try_run_null_model`] reports
/// it as a structured error instead.
pub fn run_null_model(
    cache: &OverlapCache,
    sampler: &CuisineSampler,
    model: NullModel,
    cfg: &MonteCarloConfig,
) -> Option<NullEnsemble> {
    try_run_null_model(cache, sampler, model, cfg, &Metrics::disabled())
        .unwrap_or_else(|failure| panic!("Monte-Carlo run failed: {failure}"))
}

/// The pairwise Monte-Carlo run every caller goes through: one
/// ensemble (k = 0) through the engine. A failing sampling block
/// becomes a structured [`StageFailure`] at stage `mc.block` (lowest
/// block index wins for any thread count; `error.mc.block` is bumped).
///
/// Records span `mc.run`, counters `mc.recipes` / `mc.blocks`,
/// histogram `mc.block_us` (per-block wall time; its spread shows
/// sampler imbalance between full and partial blocks) and the shared
/// `pool.*` instruments. Telemetry never changes the ensemble.
pub fn try_run_null_model(
    cache: &OverlapCache,
    sampler: &CuisineSampler,
    model: NullModel,
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Option<NullEnsemble>, StageFailure> {
    let ensemble = Ensemble {
        scorer: cache,
        sampler,
        model,
        seed: cfg.seed,
        k: 0,
    };
    run_one(ensemble, cfg, "mc.block", "mc", metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use culinaria_flavordb::{Category, FlavorDb, IngredientId, MoleculeId};
    use culinaria_recipedb::{RecipeStore, Region, Source};

    fn fixture() -> (FlavorDb, RecipeStore) {
        let mut db = FlavorDb::new();
        db.add_anonymous_molecules(30);
        // 8 ingredients with overlapping profiles.
        for i in 0..8u32 {
            let mols: Vec<MoleculeId> = (i..i + 5).map(MoleculeId).collect();
            let cat = if i < 4 {
                Category::Herb
            } else {
                Category::Meat
            };
            db.add_ingredient(&format!("ing{i}"), cat, mols).unwrap();
        }
        let mut store = RecipeStore::new();
        let ing = |i: u32| IngredientId(i);
        store
            .add_recipe(
                "r1",
                Region::Italy,
                Source::Synthetic,
                vec![ing(0), ing(1), ing(2)],
            )
            .unwrap();
        store
            .add_recipe(
                "r2",
                Region::Italy,
                Source::Synthetic,
                vec![ing(3), ing(4), ing(5)],
            )
            .unwrap();
        store
            .add_recipe(
                "r3",
                Region::Italy,
                Source::Synthetic,
                vec![ing(5), ing(6), ing(7), ing(0)],
            )
            .unwrap();
        (db, store)
    }

    #[test]
    fn ensemble_statistics_are_sane() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let cache = OverlapCache::for_cuisine(&db, &cuisine);
        let sampler = CuisineSampler::build(&db, &cuisine).unwrap();
        let cfg = MonteCarloConfig::quick(5000);
        for model in NullModel::ALL {
            let e = run_null_model(&cache, &sampler, model, &cfg).unwrap();
            assert_eq!(e.n, 5000);
            assert!(e.mean >= 0.0, "{model}: mean {}", e.mean);
            assert!(e.std_dev > 0.0, "{model}: zero spread");
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let cache = OverlapCache::for_cuisine(&db, &cuisine);
        let sampler = CuisineSampler::build(&db, &cuisine).unwrap();
        let base = MonteCarloConfig {
            n_recipes: 8192,
            seed: 42,
            n_threads: 1,
        };
        let a = run_null_model(&cache, &sampler, NullModel::Frequency, &base).unwrap();
        for threads in [2, 3, 8] {
            let cfg = MonteCarloConfig {
                n_threads: threads,
                ..base
            };
            let b = run_null_model(&cache, &sampler, NullModel::Frequency, &cfg).unwrap();
            assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{threads} threads");
            assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let cache = OverlapCache::for_cuisine(&db, &cuisine);
        let sampler = CuisineSampler::build(&db, &cuisine).unwrap();
        let a = run_null_model(
            &cache,
            &sampler,
            NullModel::Random,
            &MonteCarloConfig {
                n_recipes: 2000,
                seed: 1,
                n_threads: 2,
            },
        )
        .unwrap();
        let b = run_null_model(
            &cache,
            &sampler,
            NullModel::Random,
            &MonteCarloConfig {
                n_recipes: 2000,
                seed: 2,
                n_threads: 2,
            },
        )
        .unwrap();
        assert_ne!(a.mean.to_bits(), b.mean.to_bits());
    }

    #[test]
    fn observed_run_matches_and_records() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let cache = OverlapCache::for_cuisine(&db, &cuisine);
        let sampler = CuisineSampler::build(&db, &cuisine).unwrap();
        let cfg = MonteCarloConfig {
            n_recipes: 5000, // 3 blocks, last partial
            seed: 7,
            n_threads: 2,
        };
        let run = |metrics: &Metrics| {
            try_run_null_model(&cache, &sampler, NullModel::Frequency, &cfg, metrics)
                .expect("no faults")
                .expect("non-degenerate")
        };
        let plain = run(&Metrics::disabled());
        let metrics = Metrics::enabled();
        let observed = run(&metrics);
        assert_eq!(plain.mean.to_bits(), observed.mean.to_bits());
        assert_eq!(plain.std_dev.to_bits(), observed.std_dev.to_bits());
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("mc.recipes"), Some(5000));
        assert_eq!(snap.counter("mc.blocks"), Some(3));
        assert_eq!(snap.span("mc.run").unwrap().calls, 1);
        assert_eq!(snap.histogram("mc.block_us").unwrap().count, 3);
        assert_eq!(snap.counter("pool.runs"), Some(1));
    }

    #[test]
    fn try_run_matches_run_bit_for_bit() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let cache = OverlapCache::for_cuisine(&db, &cuisine);
        let sampler = CuisineSampler::build(&db, &cuisine).unwrap();
        for threads in [1, 2, 8] {
            let cfg = MonteCarloConfig {
                n_recipes: 5000,
                seed: 11,
                n_threads: threads,
            };
            let plain = run_null_model(&cache, &sampler, NullModel::Frequency, &cfg).unwrap();
            let fallible = try_run_null_model(
                &cache,
                &sampler,
                NullModel::Frequency,
                &cfg,
                &Metrics::disabled(),
            )
            .expect("no faults")
            .expect("non-degenerate");
            assert_eq!(plain.mean.to_bits(), fallible.mean.to_bits(), "{threads}");
            assert_eq!(plain.std_dev.to_bits(), fallible.std_dev.to_bits());
            assert_eq!(plain.n, fallible.n);
        }
        assert_eq!(
            try_run_null_model(
                &cache,
                &sampler,
                NullModel::Random,
                &MonteCarloConfig::quick(0),
                &Metrics::disabled(),
            ),
            Ok(None)
        );
    }

    #[test]
    fn zero_recipes_gives_none() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let cache = OverlapCache::for_cuisine(&db, &cuisine);
        let sampler = CuisineSampler::build(&db, &cuisine).unwrap();
        let cfg = MonteCarloConfig::quick(0);
        assert!(run_null_model(&cache, &sampler, NullModel::Random, &cfg).is_none());
    }

    #[test]
    fn partial_final_block_counts_exactly() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let cache = OverlapCache::for_cuisine(&db, &cuisine);
        let sampler = CuisineSampler::build(&db, &cuisine).unwrap();
        let cfg = MonteCarloConfig::quick(3000); // not a multiple of BLOCK
        let e = run_null_model(&cache, &sampler, NullModel::Random, &cfg).unwrap();
        assert_eq!(e.n, 3000);
    }

    #[test]
    fn streams_disjoint_across_k_and_model() {
        let mut seen = std::collections::HashSet::new();
        for k in [0usize, 2, 3, 4] {
            for model in NullModel::ALL {
                for block in 0..4 {
                    assert!(seen.insert(block_stream(k, model, block)));
                }
            }
        }
    }
}

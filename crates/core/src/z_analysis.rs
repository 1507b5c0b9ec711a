//! Z-score analysis of cuisines against the null models (Fig 4) and the
//! full 22-region driver.
//!
//! The world driver does not run region after region: it flattens every
//! `(region, model, block)` triple of the full Fig 4 run into one task
//! queue on the shared worker pool, so a thread finishing the last
//! block of one cuisine immediately starts the next cuisine's work
//! instead of idling at a per-region barrier.
//!
//! Each region's Monte-Carlo streams are salted with its region code
//! (`derive_seed_labeled(cfg.seed, region.code())`) — in both
//! [`analyze_cuisine`] and [`analyze_world`] — so (a) no two regions
//! share a random stream, and (b) analyzing a cuisine alone is
//! bit-identical to its row of the world run.

use culinaria_flavordb::{FlavorDb, IngredientId};
use culinaria_obs::Metrics;
use culinaria_recipedb::{Cuisine, RecipeStore, Region};
use culinaria_stats::rng::derive_seed_labeled;
use culinaria_stats::zscore::z_score_of_mean;
use culinaria_stats::{fault, pool};
use culinaria_stats::{NullEnsemble, RunningStats};
use culinaria_tabular::{Column, Frame};

use crate::error::StageFailure;
use crate::monte_carlo::{
    block_stats, try_run_null_model_observed, McScratch, MonteCarloConfig, BLOCK,
};
use crate::null_models::{CuisineSampler, NullModel};
use crate::pairing::OverlapCache;
use crate::view::{CuisineView, FlavorViewRef, RecipesViewRef};

/// Result of one null-model comparison for one cuisine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelComparison {
    /// The null model compared against.
    pub model: NullModel,
    /// Null ensemble summary (mean, σ, n).
    pub null: NullEnsemble,
    /// Z = (⟨N_s⟩_cuisine − ⟨N_s⟩_null) / (σ_null / √n_null).
    /// `None` for a degenerate null.
    pub z: Option<f64>,
}

/// The full pairing analysis of one cuisine.
#[derive(Debug, Clone)]
pub struct CuisineAnalysis {
    /// The region analyzed.
    pub region: Region,
    /// Recipes with at least two ingredients (the pairing-bearing set).
    pub n_recipes: usize,
    /// Distinct ingredients in the cuisine.
    pub n_ingredients: usize,
    /// Observed mean flavor sharing ⟨N_s⟩.
    pub observed_mean: f64,
    /// One comparison per requested model, in request order.
    pub comparisons: Vec<ModelComparison>,
}

impl CuisineAnalysis {
    /// The comparison against a given model, if it was run.
    pub fn against(&self, model: NullModel) -> Option<&ModelComparison> {
        self.comparisons.iter().find(|c| c.model == model)
    }

    /// Z against the Random model — the headline Fig 4 number.
    pub fn z_random(&self) -> Option<f64> {
        self.against(NullModel::Random).and_then(|c| c.z)
    }

    /// The paper's trichotomy: positive, negative, or indistinguishable
    /// (|Z| < 1.96 at the 5% level).
    pub fn verdict(&self) -> PairingVerdict {
        match self.z_random() {
            Some(z) if z > 1.96 => PairingVerdict::Uniform,
            Some(z) if z < -1.96 => PairingVerdict::Contrasting,
            Some(_) => PairingVerdict::Indistinguishable,
            None => PairingVerdict::Indistinguishable,
        }
    }
}

/// The three possible characterizations of a cuisine (§II.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairingVerdict {
    /// Uniform blend: positive food pairing.
    Uniform,
    /// Contrasting blend: negative food pairing.
    Contrasting,
    /// Statistically indistinguishable from random.
    Indistinguishable,
}

impl std::fmt::Display for PairingVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PairingVerdict::Uniform => "uniform",
            PairingVerdict::Contrasting => "contrasting",
            PairingVerdict::Indistinguishable => "random-like",
        })
    }
}

/// Analyze one cuisine against the given models. Returns `None` for
/// cuisines with no pairing-bearing recipes.
///
/// The Monte-Carlo streams are salted with the cuisine's region code,
/// so the result is bit-identical to the same region's row of
/// [`analyze_world`] under the same configuration.
pub fn analyze_cuisine(
    db: &FlavorDb,
    cuisine: &Cuisine<'_>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
) -> Option<CuisineAnalysis> {
    analyze_cuisine_observed(db, cuisine, models, cfg, &Metrics::disabled())
}

/// [`analyze_cuisine`] instrumented through `metrics`: the nested
/// overlap-cache build records the `overlap.*` instruments and each
/// null-model run records the `mc.*` and `pool.*` instruments (see
/// [`crate::monte_carlo::run_null_model_observed`]). Bit-identical to
/// the unobserved analysis.
pub fn analyze_cuisine_observed(
    db: &FlavorDb,
    cuisine: &Cuisine<'_>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Option<CuisineAnalysis> {
    try_analyze_cuisine_observed(db, cuisine, models, cfg, metrics)
        .unwrap_or_else(|failure| panic!("cuisine analysis failed: {failure}"))
}

/// Fallible [`analyze_cuisine`]: stage failures (dead ingredient ids,
/// degenerate ensembles, panicking Monte-Carlo blocks) become a
/// structured [`StageFailure`] instead of a panic. `Ok(None)` still
/// means "no pairing-bearing recipes" — that is an expected outcome,
/// not a failure.
pub fn try_analyze_cuisine(
    db: &FlavorDb,
    cuisine: &Cuisine<'_>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
) -> Result<Option<CuisineAnalysis>, StageFailure> {
    try_analyze_cuisine_observed(db, cuisine, models, cfg, &Metrics::disabled())
}

/// Fallible [`analyze_cuisine_observed`]. On success the analysis and
/// recorded metrics are bit-identical to the infallible path; on
/// failure the `error.<stage>` counter is bumped and the failure is
/// deterministic for any thread count.
pub fn try_analyze_cuisine_observed(
    db: &FlavorDb,
    cuisine: &Cuisine<'_>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Option<CuisineAnalysis>, StageFailure> {
    try_analyze_cuisine_view_observed(
        FlavorViewRef::Owned(db),
        &CuisineView::Owned(cuisine.clone()),
        models,
        cfg,
        metrics,
    )
}

/// [`analyze_cuisine`] over representation-agnostic views: pass
/// `FlavorViewRef::Artifact` / `CuisineView::Artifact` to analyze a
/// zero-copy CFDB2/CRDB2 artifact pair without materializing owned
/// databases. Bit-identical to the owned analysis. Panics on stage
/// failures; see [`try_analyze_cuisine_view_observed`].
pub fn analyze_cuisine_view(
    flavor: FlavorViewRef<'_>,
    cuisine: &CuisineView<'_>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
) -> Option<CuisineAnalysis> {
    try_analyze_cuisine_view_observed(flavor, cuisine, models, cfg, &Metrics::disabled())
        .unwrap_or_else(|failure| panic!("cuisine analysis failed: {failure}"))
}

/// Obtain a region's overlap cache: when the flavor view carries a
/// precomputed overlap section labeled with the region code *and* the
/// section's pool is exactly the cuisine's ingredient set, reassemble
/// the cache from the stored triangle (one memcpy; counter
/// `overlap.section_reuse`) instead of re-running the O(n²·w)
/// intersection sweep. Sections are serialized from caches built by
/// this same code, so the reassembled cache is byte-identical to a
/// fresh build.
pub fn region_overlap_cache(
    flavor: FlavorViewRef<'_>,
    region: Region,
    pool: &[IngredientId],
    n_threads: usize,
    metrics: &Metrics,
) -> Result<OverlapCache, StageFailure> {
    if let Some((sec_pool, tri)) = flavor.overlap_section(region.code()) {
        if sec_pool == pool {
            if let Some(cache) = OverlapCache::from_parts(pool, tri.to_vec()) {
                metrics.counter("overlap.section_reuse").add(1);
                return Ok(cache);
            }
        }
    }
    OverlapCache::try_build_view_observed(flavor, pool, n_threads, metrics)
}

/// The view-based cuisine analysis every cuisine entry point funnels
/// through. On success the analysis and recorded metrics are
/// bit-identical whether the views are owned or artifact-backed
/// (artifact overlap sections additionally short-circuit the cache
/// build; the resulting numbers are unchanged).
pub fn try_analyze_cuisine_view_observed(
    flavor: FlavorViewRef<'_>,
    cuisine: &CuisineView<'_>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Option<CuisineAnalysis>, StageFailure> {
    let Some(sampler) = CuisineSampler::build_view(flavor, cuisine) else {
        return Ok(None);
    };
    let pool = cuisine.ingredient_set();
    let cache = region_overlap_cache(flavor, cuisine.region(), &pool, cfg.n_threads, metrics)?;
    analyze_sampled(cuisine, &sampler, &cache, models, cfg, metrics)
}

/// [`try_analyze_cuisine_view_observed`] with a caller-supplied overlap
/// cache — the entry point for long-lived processes (`culinaria serve`)
/// that build each region's cache once and reuse it across queries.
/// The cache must cover the cuisine's ingredient set (what
/// [`region_overlap_cache`] builds); the analysis is then bit-identical
/// to the cache-building path for the same `cfg`.
pub fn try_analyze_cuisine_with_cache_observed(
    flavor: FlavorViewRef<'_>,
    cuisine: &CuisineView<'_>,
    cache: &OverlapCache,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Option<CuisineAnalysis>, StageFailure> {
    let Some(sampler) = CuisineSampler::build_view(flavor, cuisine) else {
        return Ok(None);
    };
    analyze_sampled(cuisine, &sampler, cache, models, cfg, metrics)
}

/// Shared tail of the cuisine analysis once a sampler and overlap
/// cache exist: observed mean, per-model null ensembles, Z-scores.
fn analyze_sampled(
    cuisine: &CuisineView<'_>,
    sampler: &CuisineSampler,
    cache: &OverlapCache,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Option<CuisineAnalysis>, StageFailure> {
    let observed_mean = cache.mean_cuisine_score_view(cuisine).ok_or_else(|| {
        StageFailure::error(
            "cuisine.score",
            0,
            format!(
                "cuisine {} references ingredients outside its own pool",
                cuisine.region().code()
            ),
        )
        .record(metrics)
    })?;

    let region_cfg = MonteCarloConfig {
        seed: derive_seed_labeled(cfg.seed, cuisine.region().code()),
        ..*cfg
    };
    let mut comparisons = Vec::with_capacity(models.len());
    for (mi, &model) in models.iter().enumerate() {
        let null = try_run_null_model_observed(cache, sampler, model, &region_cfg, metrics)?
            .ok_or_else(|| {
                StageFailure::error(
                    "mc.run",
                    mi,
                    format!("degenerate {model} ensemble: fewer than two sampled recipes"),
                )
                .record(metrics)
            })?;
        let z = z_score_of_mean(observed_mean, &null);
        comparisons.push(ModelComparison { model, null, z });
    }

    Ok(Some(CuisineAnalysis {
        region: cuisine.region(),
        n_recipes: sampler.n_templates(),
        n_ingredients: cache.len(),
        observed_mean,
        comparisons,
    }))
}

/// A region's immutable per-run state, shared read-only by every
/// worker of the flattened world queue.
struct PreparedRegion {
    region: Region,
    sampler: CuisineSampler,
    cache: OverlapCache,
    observed_mean: f64,
    n_recipes: usize,
    n_ingredients: usize,
    /// Region-salted Monte-Carlo seed.
    seed: u64,
}

/// Analyze every populated region of a store (the full Fig 4 run).
///
/// All `(region, model, block)` Monte-Carlo work units go through one
/// shared worker pool as a single flattened queue — there is no
/// per-region or per-model barrier, so late stragglers of one cuisine
/// overlap with the next cuisine's blocks. Block statistics come back
/// in canonical task order and are merged per `(region, model)` in
/// block order, keeping every number bit-identical for any thread
/// count and equal to the per-region [`analyze_cuisine`] results.
pub fn analyze_world(
    db: &FlavorDb,
    store: &RecipeStore,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
) -> Vec<CuisineAnalysis> {
    analyze_world_observed(db, store, models, cfg, &Metrics::disabled())
}

/// [`analyze_world`] instrumented through `metrics`:
///
/// * spans `world.prepare` (samplers + overlap caches + observed
///   means; the nested cache builds record the `overlap.*`
///   instruments), `world.mc` (the flattened Monte-Carlo queue) and
///   `world.merge` (the canonical per-`(region, model)` fold);
/// * counters `world.regions`, `world.tasks` (flattened `(region,
///   model, block)` triples) and `mc.recipes` / `mc.blocks` totals;
/// * histogram `mc.block_us` — per-block wall time across the whole
///   world run;
/// * the shared `pool.*` instruments.
///
/// Every analysis row is bit-identical to the unobserved driver.
pub fn analyze_world_observed(
    db: &FlavorDb,
    store: &RecipeStore,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Vec<CuisineAnalysis> {
    try_analyze_world_observed(db, store, models, cfg, metrics)
        .unwrap_or_else(|failure| panic!("world analysis failed: {failure}"))
}

/// Fallible [`analyze_world`]: failures in region preparation, the
/// flattened Monte-Carlo queue (stage `world.block`, lowest task index
/// wins), or the canonical merge become a structured [`StageFailure`]
/// instead of aborting the whole run with a panic.
pub fn try_analyze_world(
    db: &FlavorDb,
    store: &RecipeStore,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
) -> Result<Vec<CuisineAnalysis>, StageFailure> {
    try_analyze_world_observed(db, store, models, cfg, &Metrics::disabled())
}

/// Fallible [`analyze_world_observed`]. On success the rows and
/// recorded metrics are bit-identical to the infallible driver; on
/// failure the `error.<stage>` counter is bumped and the reported
/// failure is identical for any thread count.
pub fn try_analyze_world_observed(
    db: &FlavorDb,
    store: &RecipeStore,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Vec<CuisineAnalysis>, StageFailure> {
    try_analyze_world_view_observed(
        FlavorViewRef::Owned(db),
        RecipesViewRef::Owned(store),
        models,
        cfg,
        metrics,
    )
}

/// [`analyze_world`] over representation-agnostic views — run the full
/// Fig 4 driver straight off zero-copy CFDB2/CRDB2 buffers.
/// Bit-identical to the owned driver for every thread count. Panics on
/// stage failures; see [`try_analyze_world_view_observed`].
pub fn analyze_world_view(
    flavor: FlavorViewRef<'_>,
    recipes: RecipesViewRef<'_>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
) -> Vec<CuisineAnalysis> {
    try_analyze_world_view_observed(flavor, recipes, models, cfg, &Metrics::disabled())
        .unwrap_or_else(|failure| panic!("world analysis failed: {failure}"))
}

/// The view-based world driver every world entry point funnels
/// through. Artifact flavor views with precomputed overlap sections
/// skip the per-region cache builds (see [`OverlapCache::from_parts`]);
/// all emitted numbers are bit-identical either way.
pub fn try_analyze_world_view_observed(
    flavor: FlavorViewRef<'_>,
    recipes: RecipesViewRef<'_>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Vec<CuisineAnalysis>, StageFailure> {
    // Setup pass: samplers, overlap caches (internally parallel), and
    // observed means per populated region.
    let prepare_guard = metrics.span("world.prepare").enter();
    let mut prepared: Vec<PreparedRegion> = Vec::new();
    for region in recipes.regions() {
        let cuisine = recipes.cuisine(region);
        let Some(sampler) = CuisineSampler::build_view(flavor, &cuisine) else {
            continue;
        };
        let pool = cuisine.ingredient_set();
        let cache = region_overlap_cache(flavor, region, &pool, cfg.n_threads, metrics)?;
        let observed_mean = cache.mean_cuisine_score_view(&cuisine).ok_or_else(|| {
            StageFailure::error(
                "world.prepare",
                prepared.len(),
                format!(
                    "cuisine {} references ingredients outside its own pool",
                    region.code()
                ),
            )
            .record(metrics)
        })?;
        prepared.push(PreparedRegion {
            region,
            n_recipes: sampler.n_templates(),
            n_ingredients: pool.len(),
            sampler,
            cache,
            observed_mean,
            seed: derive_seed_labeled(cfg.seed, region.code()),
        });
    }
    prepare_guard.stop();

    // Flattened Monte-Carlo queue: task index ↔ (region, model, block)
    // by uniform stride, so no task list needs materializing.
    let n_models = models.len();
    let n_blocks = cfg.n_recipes.div_ceil(BLOCK);
    let per_region = n_models * n_blocks;
    let n_tasks = prepared.len() * per_region;
    metrics.counter("world.regions").add(prepared.len() as u64);
    metrics.counter("world.tasks").add(n_tasks as u64);
    metrics
        .counter("mc.recipes")
        .add((prepared.len() * n_models * cfg.n_recipes) as u64);
    metrics.counter("mc.blocks").add(n_tasks as u64);
    let block_hist = metrics.histogram("mc.block_us");
    let mc_guard = metrics.span("world.mc").enter();
    let block_results = pool::try_run_observed(
        cfg.n_threads,
        n_tasks,
        &pool::PoolObs::new(metrics),
        McScratch::new,
        |scratch, t| -> Result<RunningStats, fault::InjectedFault> {
            fault::probe("world.block", t)?;
            let timer = block_hist.start();
            let p = &prepared[t / per_region];
            let rem = t % per_region;
            let model = models[rem / n_blocks];
            let block = rem % n_blocks;
            let stats = block_stats(
                &p.cache,
                &p.sampler,
                model,
                p.seed,
                block,
                cfg.n_recipes,
                scratch,
            );
            timer.stop();
            Ok(stats)
        },
    )
    .map_err(|f| StageFailure::from_task("world.block", f).record(metrics))?;
    mc_guard.stop();

    // Canonical merge: per (region, model), fold blocks in block order.
    let merge_span = metrics.span("world.merge");
    let _merge_guard = merge_span.enter();
    let mut analyses = Vec::with_capacity(prepared.len());
    for (pi, p) in prepared.iter().enumerate() {
        let mut comparisons = Vec::with_capacity(n_models);
        for (mi, &model) in models.iter().enumerate() {
            let mut total = RunningStats::new();
            let base = pi * per_region + mi * n_blocks;
            for stats in &block_results[base..base + n_blocks] {
                total.merge(stats);
            }
            let null = NullEnsemble::from_running(&total).ok_or_else(|| {
                StageFailure::error(
                    "world.merge",
                    pi * n_models + mi,
                    format!(
                        "degenerate {model} ensemble for {}: fewer than two sampled recipes",
                        p.region.code()
                    ),
                )
                .record(metrics)
            })?;
            let z = z_score_of_mean(p.observed_mean, &null);
            comparisons.push(ModelComparison { model, null, z });
        }
        analyses.push(CuisineAnalysis {
            region: p.region,
            n_recipes: p.n_recipes,
            n_ingredients: p.n_ingredients,
            observed_mean: p.observed_mean,
            comparisons,
        });
    }
    Ok(analyses)
}

/// Render analyses as a frame: one row per region, `z_<model>` column
/// per model, plus observed/null means.
pub fn analyses_to_frame(analyses: &[CuisineAnalysis]) -> Frame {
    let mut f = Frame::new();
    let regions: Vec<&str> = analyses.iter().map(|a| a.region.code()).collect();
    f.add_column("region", Column::from_strs(&regions))
        .expect("fresh frame");
    f.add_column(
        "n_recipes",
        Column::from_i64s(
            &analyses
                .iter()
                .map(|a| a.n_recipes as i64)
                .collect::<Vec<_>>(),
        ),
    )
    .expect("fresh column");
    f.add_column(
        "observed_ns",
        Column::from_f64s(&analyses.iter().map(|a| a.observed_mean).collect::<Vec<_>>()),
    )
    .expect("fresh column");
    if let Some(first) = analyses.first() {
        for (k, c) in first.comparisons.iter().enumerate() {
            let zs: Vec<Option<f64>> = analyses
                .iter()
                .map(|a| a.comparisons.get(k).and_then(|c| c.z))
                .collect();
            let means: Vec<Option<f64>> = analyses
                .iter()
                .map(|a| a.comparisons.get(k).map(|c| c.null.mean))
                .collect();
            f.add_column(&format!("z_{}", c.model.short()), Column::Float(zs))
                .expect("fresh column");
            f.add_column(
                &format!("null_mean_{}", c.model.short()),
                Column::Float(means),
            )
            .expect("fresh column");
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use culinaria_datagen::{generate_world, WorldConfig};

    fn quick_cfg() -> MonteCarloConfig {
        MonteCarloConfig {
            n_recipes: 4000,
            seed: 7,
            n_threads: 2,
        }
    }

    #[test]
    fn positive_and_negative_regions_get_correct_sign() {
        let world = generate_world(&WorldConfig::tiny());
        let cfg = quick_cfg();
        let models = [NullModel::Random];

        let ita = analyze_cuisine(
            &world.flavor,
            &world.recipes.cuisine(Region::Italy),
            &models,
            &cfg,
        )
        .unwrap();
        let jpn = analyze_cuisine(
            &world.flavor,
            &world.recipes.cuisine(Region::Japan),
            &models,
            &cfg,
        )
        .unwrap();
        let z_ita = ita.z_random().unwrap();
        let z_jpn = jpn.z_random().unwrap();
        assert!(z_ita > 0.0, "ITA z {z_ita} should be positive");
        assert!(z_jpn < 0.0, "JPN z {z_jpn} should be negative");
        assert_eq!(ita.verdict(), PairingVerdict::Uniform);
        assert_eq!(jpn.verdict(), PairingVerdict::Contrasting);
    }

    #[test]
    fn frequency_model_shrinks_z_magnitude() {
        // The paper's key finding: preserving ingredient frequency
        // largely reproduces the pairing, so |Z| against the Frequency
        // model is much smaller than against Random.
        let world = generate_world(&WorldConfig::tiny());
        let cfg = quick_cfg();
        let models = [NullModel::Random, NullModel::Frequency];
        let ita = analyze_cuisine(
            &world.flavor,
            &world.recipes.cuisine(Region::Italy),
            &models,
            &cfg,
        )
        .unwrap();
        let z_rand = ita.against(NullModel::Random).unwrap().z.unwrap().abs();
        let z_freq = ita.against(NullModel::Frequency).unwrap().z.unwrap().abs();
        assert!(
            z_freq < z_rand,
            "frequency model should explain pairing: |z_freq| {z_freq} vs |z_rand| {z_rand}"
        );
    }

    #[test]
    fn analyze_world_covers_all_regions() {
        let world = generate_world(&WorldConfig::tiny());
        let cfg = MonteCarloConfig {
            n_recipes: 500,
            seed: 7,
            n_threads: 2,
        };
        let analyses = analyze_world(&world.flavor, &world.recipes, &[NullModel::Random], &cfg);
        assert_eq!(analyses.len(), 22);
        for a in &analyses {
            assert!(a.observed_mean >= 0.0);
            assert!(a.n_recipes > 0);
        }
    }

    #[test]
    fn analyze_world_bit_identical_across_thread_counts() {
        let world = generate_world(&WorldConfig::tiny());
        let models = [NullModel::Random, NullModel::Frequency];
        let base = MonteCarloConfig {
            n_recipes: 4096, // 2 blocks per (region, model)
            seed: 99,
            n_threads: 1,
        };
        let reference = analyze_world(&world.flavor, &world.recipes, &models, &base);
        for threads in [2, 8] {
            let cfg = MonteCarloConfig {
                n_threads: threads,
                ..base
            };
            let run = analyze_world(&world.flavor, &world.recipes, &models, &cfg);
            assert_eq!(run.len(), reference.len());
            for (a, b) in reference.iter().zip(&run) {
                assert_eq!(a.region, b.region, "{threads} threads");
                assert_eq!(a.observed_mean.to_bits(), b.observed_mean.to_bits());
                for (ca, cb) in a.comparisons.iter().zip(&b.comparisons) {
                    assert_eq!(ca.model, cb.model);
                    assert_eq!(
                        ca.null.mean.to_bits(),
                        cb.null.mean.to_bits(),
                        "{threads} threads, {}, {}",
                        a.region.code(),
                        ca.model
                    );
                    assert_eq!(ca.null.std_dev.to_bits(), cb.null.std_dev.to_bits());
                    assert_eq!(
                        ca.z.map(f64::to_bits),
                        cb.z.map(f64::to_bits),
                        "{threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn observed_world_matches_and_records() {
        let world = generate_world(&WorldConfig::tiny());
        let models = [NullModel::Random, NullModel::Frequency];
        let cfg = MonteCarloConfig {
            n_recipes: 3000, // 2 blocks per (region, model), last partial
            seed: 13,
            n_threads: 2,
        };
        let plain = analyze_world(&world.flavor, &world.recipes, &models, &cfg);
        let metrics = Metrics::enabled();
        let observed =
            analyze_world_observed(&world.flavor, &world.recipes, &models, &cfg, &metrics);
        assert_eq!(plain.len(), observed.len());
        for (a, b) in plain.iter().zip(&observed) {
            assert_eq!(a.region, b.region);
            assert_eq!(a.observed_mean.to_bits(), b.observed_mean.to_bits());
            for (ca, cb) in a.comparisons.iter().zip(&b.comparisons) {
                assert_eq!(ca.null.mean.to_bits(), cb.null.mean.to_bits());
                assert_eq!(ca.z.map(f64::to_bits), cb.z.map(f64::to_bits));
            }
        }
        let snap = metrics.snapshot();
        let n_regions = plain.len() as u64;
        let n_tasks = n_regions * 2 * 2; // 2 models × 2 blocks
        assert_eq!(snap.counter("world.regions"), Some(n_regions));
        assert_eq!(snap.counter("world.tasks"), Some(n_tasks));
        assert_eq!(snap.counter("mc.blocks"), Some(n_tasks));
        assert_eq!(snap.histogram("mc.block_us").unwrap().count, n_tasks);
        assert_eq!(snap.span("world.prepare").unwrap().calls, 1);
        assert_eq!(snap.span("world.mc").unwrap().calls, 1);
        assert_eq!(snap.span("world.merge").unwrap().calls, 1);
        // One overlap-cache build per region, plus the MC fan-out.
        assert_eq!(snap.span("overlap.build").unwrap().calls, n_regions);
        assert_eq!(snap.counter("pool.runs"), Some(n_regions + 1));
    }

    #[test]
    fn world_rows_match_single_cuisine_runs() {
        // Region-salted streams make the flattened world pipeline
        // reproduce exactly what analyzing each cuisine alone gives.
        let world = generate_world(&WorldConfig::tiny());
        let models = [NullModel::Random];
        let cfg = MonteCarloConfig {
            n_recipes: 3000, // exercises a partial final block too
            seed: 5,
            n_threads: 2,
        };
        let all = analyze_world(&world.flavor, &world.recipes, &models, &cfg);
        for row in all.iter().take(4) {
            let solo = analyze_cuisine(
                &world.flavor,
                &world.recipes.cuisine(row.region),
                &models,
                &cfg,
            )
            .unwrap();
            assert_eq!(row.observed_mean.to_bits(), solo.observed_mean.to_bits());
            let (a, b) = (&row.comparisons[0], &solo.comparisons[0]);
            assert_eq!(
                a.null.mean.to_bits(),
                b.null.mean.to_bits(),
                "{}",
                row.region.code()
            );
            assert_eq!(a.null.n, b.null.n);
            assert_eq!(a.z.map(f64::to_bits), b.z.map(f64::to_bits));
        }
    }

    #[test]
    fn try_analyze_matches_infallible_paths_bit_for_bit() {
        let world = generate_world(&WorldConfig::tiny());
        let models = [NullModel::Random, NullModel::Frequency];
        let cfg = MonteCarloConfig {
            n_recipes: 3000,
            seed: 13,
            n_threads: 2,
        };
        let plain = analyze_world(&world.flavor, &world.recipes, &models, &cfg);
        let fallible =
            try_analyze_world(&world.flavor, &world.recipes, &models, &cfg).expect("no faults");
        assert_eq!(plain.len(), fallible.len());
        for (a, b) in plain.iter().zip(&fallible) {
            assert_eq!(a.region, b.region);
            assert_eq!(a.observed_mean.to_bits(), b.observed_mean.to_bits());
            for (ca, cb) in a.comparisons.iter().zip(&b.comparisons) {
                assert_eq!(ca.null.mean.to_bits(), cb.null.mean.to_bits());
                assert_eq!(ca.z.map(f64::to_bits), cb.z.map(f64::to_bits));
            }
        }
        let cuisine = world.recipes.cuisine(Region::Italy);
        let solo = analyze_cuisine(&world.flavor, &cuisine, &models, &cfg).unwrap();
        let solo_try = try_analyze_cuisine(&world.flavor, &cuisine, &models, &cfg)
            .expect("no faults")
            .expect("pairing-bearing cuisine");
        assert_eq!(
            solo.observed_mean.to_bits(),
            solo_try.observed_mean.to_bits()
        );
        for (ca, cb) in solo.comparisons.iter().zip(&solo_try.comparisons) {
            assert_eq!(ca.null.mean.to_bits(), cb.null.mean.to_bits());
            assert_eq!(ca.z.map(f64::to_bits), cb.z.map(f64::to_bits));
        }
    }

    #[test]
    fn regions_use_distinct_streams() {
        // Two regions must not share null-model randomness: their
        // ensemble means should differ even with everything else equal.
        let world = generate_world(&WorldConfig::tiny());
        let cfg = MonteCarloConfig {
            n_recipes: 2000,
            seed: 11,
            n_threads: 2,
        };
        let all = analyze_world(&world.flavor, &world.recipes, &[NullModel::Random], &cfg);
        let mut means: Vec<u64> = all
            .iter()
            .map(|a| a.comparisons[0].null.mean.to_bits())
            .collect();
        means.sort_unstable();
        means.dedup();
        assert_eq!(
            means.len(),
            all.len(),
            "null ensembles collide across regions"
        );
    }

    #[test]
    fn frame_rendering() {
        let world = generate_world(&WorldConfig::tiny());
        let cfg = MonteCarloConfig {
            n_recipes: 300,
            seed: 7,
            n_threads: 1,
        };
        let analyses = analyze_world(
            &world.flavor,
            &world.recipes,
            &[NullModel::Random, NullModel::Frequency],
            &cfg,
        );
        let frame = analyses_to_frame(&analyses);
        assert_eq!(frame.n_rows(), 22);
        for col in ["region", "n_recipes", "observed_ns", "z_random", "z_freq"] {
            assert!(frame.column(col).is_ok(), "{col} missing");
        }
    }

    #[test]
    fn empty_frame_for_no_analyses() {
        let f = analyses_to_frame(&[]);
        assert_eq!(f.n_rows(), 0);
    }
}

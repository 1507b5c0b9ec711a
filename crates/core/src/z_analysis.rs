//! Z-score analysis of cuisines against the null models (Fig 4) and the
//! full 22-region driver.
//!
//! One driver answers every analysis — a cuisine analysis is the world
//! driver over one region — in three steps: *prepare* (per region: the
//! sampler, overlap cache and observed mean), *Monte Carlo* (every
//! `(region, model)` ensemble through one engine call,
//! [`crate::monte_carlo`], so no per-region barrier idles a worker) and
//! *merge* (one Z per `(region, model)`). Each region's streams are
//! salted with its region code (`derive_seed_labeled(cfg.seed,
//! region.code())`), so no two regions share a random stream and a
//! cuisine analyzed alone is bit-identical to its row of the world run.

use std::borrow::Cow;

use culinaria_flavordb::IngredientId;
use culinaria_obs::Metrics;
use culinaria_recipedb::Region;
use culinaria_stats::rng::derive_seed_labeled;
use culinaria_stats::zscore::z_score_of_mean;
use culinaria_stats::NullEnsemble;
use culinaria_tabular::{Column, Frame};

use crate::error::StageFailure;
use crate::monte_carlo::{run_ensembles, Ensemble, MonteCarloConfig, BLOCK};
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

/// Analyze one cuisine against the given models, with telemetry off.
/// Returns `None` for cuisines with no pairing-bearing recipes.
///
/// # Panics
/// Panics on a stage failure; [`try_analyze_cuisine`] reports it as a
/// structured error instead.
pub fn analyze_cuisine<'a>(
    flavor: impl Into<FlavorViewRef<'a>>,
    cuisine: impl Into<CuisineView<'a>>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
) -> Option<CuisineAnalysis> {
    try_analyze_cuisine(flavor, cuisine, models, cfg, &Metrics::disabled())
        .unwrap_or_else(|failure| panic!("cuisine analysis failed: {failure}"))
}

/// The cuisine analysis every caller goes through, over owned data or
/// zero-copy CFDB2/CRDB2 artifact views: the world driver
/// ([`try_analyze_world`]) over this one region. The analysis is
/// bit-identical across representations; an artifact that carries the
/// region's overlap section skips the cache build (see
/// [`region_overlap_cache`]) without changing any number.
///
/// The result is bit-identical to the same region's row of
/// [`try_analyze_world`] under the same configuration, and records
/// the same instruments and failure stages (`world.regions` is 1).
/// `Ok(None)` means "no pairing-bearing recipes" — an expected
/// outcome, not a failure.
pub fn try_analyze_cuisine<'a>(
    flavor: impl Into<FlavorViewRef<'a>>,
    cuisine: impl Into<CuisineView<'a>>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Option<CuisineAnalysis>, StageFailure> {
    let regions = [(cuisine.into(), None)];
    Ok(analyze_regions(flavor.into(), regions, models, cfg, metrics)?.pop())
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
    OverlapCache::try_build(flavor, pool, n_threads, metrics)
}

/// [`try_analyze_cuisine`] with a caller-supplied overlap cache — the
/// entry point for long-lived processes (`culinaria serve`) that build
/// each region's cache once and reuse it across queries. The cache must
/// be built over exactly the cuisine's ingredient set (what
/// [`region_overlap_cache`] builds; sampled recipes index that set);
/// the analysis is then bit-identical to the cache-building path for
/// the same `cfg`, and records the same instruments minus the cache
/// build's. A cache over any other pool is refused as a
/// [`StageFailure`] at `world.prepare[0]`.
pub fn try_analyze_cuisine_with_cache<'a>(
    flavor: impl Into<FlavorViewRef<'a>>,
    cuisine: impl Into<CuisineView<'a>>,
    cache: &OverlapCache,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Option<CuisineAnalysis>, StageFailure> {
    let regions = [(cuisine.into(), Some(cache))];
    Ok(analyze_regions(flavor.into(), regions, models, cfg, metrics)?.pop())
}

/// Analyze every populated region of a store (the full Fig 4 run),
/// with telemetry off.
///
/// # Panics
/// Panics on a stage failure; [`try_analyze_world`] reports it as a
/// structured error instead.
pub fn analyze_world<'a>(
    flavor: impl Into<FlavorViewRef<'a>>,
    recipes: impl Into<RecipesViewRef<'a>>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
) -> Vec<CuisineAnalysis> {
    analyze_world_observed(flavor, recipes, models, cfg, &Metrics::disabled())
}

/// [`analyze_world`] recording through `metrics` (see
/// [`try_analyze_world`] for the instruments).
///
/// # Panics
/// Panics on a stage failure, like [`analyze_world`].
pub fn analyze_world_observed<'a>(
    flavor: impl Into<FlavorViewRef<'a>>,
    recipes: impl Into<RecipesViewRef<'a>>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Vec<CuisineAnalysis> {
    try_analyze_world(flavor, recipes, models, cfg, metrics)
        .unwrap_or_else(|failure| panic!("world analysis failed: {failure}"))
}

/// The world driver every caller goes through, over owned data or
/// zero-copy CFDB2/CRDB2 artifact views (artifact flavor views with
/// precomputed overlap sections skip the per-region cache builds, see
/// [`OverlapCache::from_parts`]).
///
/// All `(region, model, block)` Monte-Carlo work units go through one
/// engine call, a single flattened queue, and are folded per
/// `(region, model)` in block order: every number is bit-identical for
/// any thread count and either representation. [`try_analyze_cuisine`]
/// is this driver over one region.
///
/// Records through `metrics`: spans `world.prepare` (samplers, overlap
/// caches — whose builds record `overlap.*` — and observed means),
/// `world.mc` and `world.merge`; counters `world.regions`,
/// `world.tasks` (flattened triples) and `mc.recipes` / `mc.blocks`;
/// histogram `mc.block_us`; the shared `pool.*` instruments. Telemetry
/// never changes a row.
///
/// Failures become a structured [`StageFailure`], identical for any
/// thread count, and bump `error.<stage>`: a region whose recipes leave
/// its own pool, or whose supplied cache is over another pool, at
/// `world.prepare[r]` (`r` counts prepared regions), a
/// Monte-Carlo block at `world.block[(r·n_models + m)·n_blocks + b]`
/// (lowest wins), a degenerate ensemble at `world.merge[r·n_models + m]`.
pub fn try_analyze_world<'a>(
    flavor: impl Into<FlavorViewRef<'a>>,
    recipes: impl Into<RecipesViewRef<'a>>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Vec<CuisineAnalysis>, StageFailure> {
    let recipes = recipes.into();
    let regions = recipes
        .regions()
        .into_iter()
        .map(|region| (recipes.cuisine(region), None));
    analyze_regions(flavor.into(), regions, models, cfg, metrics)
}

/// A region's immutable per-run state, shared read-only by every
/// worker of the flattened Monte-Carlo queue.
struct PreparedRegion<'c> {
    region: Region,
    sampler: CuisineSampler,
    cache: Cow<'c, OverlapCache>,
    observed_mean: f64,
    /// Region-salted Monte-Carlo seed.
    seed: u64,
}

/// The driver under every cuisine and world analysis: prepare each
/// region (with its given overlap cache, or one from
/// [`region_overlap_cache`]), run every `(region, model)` ensemble
/// through one engine call, and merge.
fn analyze_regions<'a, 'c>(
    flavor: FlavorViewRef<'a>,
    regions: impl IntoIterator<Item = (CuisineView<'a>, Option<&'c OverlapCache>)>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Vec<CuisineAnalysis>, StageFailure> {
    let prepared = prepare(flavor, regions, cfg, metrics)?;
    let ensembles: Vec<Ensemble<'_, OverlapCache>> = prepared
        .iter()
        .flat_map(|p| {
            models.iter().map(move |&model| Ensemble {
                scorer: &*p.cache,
                sampler: &p.sampler,
                model,
                seed: p.seed,
                k: 0,
            })
        })
        .collect();
    metrics.counter("world.regions").add(prepared.len() as u64);
    metrics
        .counter("world.tasks")
        .add((ensembles.len() * cfg.n_recipes.div_ceil(BLOCK)) as u64);
    let mc_guard = metrics.span("world.mc").enter();
    let nulls = run_ensembles(&ensembles, cfg, "world.block", "mc", metrics)?;
    mc_guard.stop();
    merge(&prepared, models, &nulls, metrics)
}

/// The driver's prepare step: sampler, overlap cache and observed mean
/// per region. Regions without pairing-bearing recipes are skipped.
fn prepare<'a, 'c>(
    flavor: FlavorViewRef<'a>,
    regions: impl IntoIterator<Item = (CuisineView<'a>, Option<&'c OverlapCache>)>,
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Vec<PreparedRegion<'c>>, StageFailure> {
    let _prepare_guard = metrics.span("world.prepare").enter();
    let mut prepared = Vec::new();
    for (cuisine, cache) in regions {
        let region = cuisine.region();
        let Some(sampler) = CuisineSampler::build(flavor, cuisine.clone()) else {
            continue;
        };
        // Sampled recipes are local indices into the cuisine's
        // ingredient set, so a supplied cache must be over exactly it.
        let pool = cuisine.ingredient_set();
        let cache = match cache {
            Some(cache) if cache.pool() == pool => Cow::Borrowed(cache),
            Some(cache) => {
                return Err(StageFailure::error(
                    "world.prepare",
                    prepared.len(),
                    format!(
                        "overlap cache over {} ingredients is not cuisine {}'s pool of {}",
                        cache.len(),
                        region.code(),
                        pool.len()
                    ),
                )
                .record(metrics))
            }
            None => Cow::Owned(region_overlap_cache(
                flavor,
                region,
                &pool,
                cfg.n_threads,
                metrics,
            )?),
        };
        let observed_mean = cache.mean_cuisine_score(cuisine).ok_or_else(|| {
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
            sampler,
            cache,
            observed_mean,
            seed: derive_seed_labeled(cfg.seed, region.code()),
        });
    }
    Ok(prepared)
}

/// The driver's merge step: one Z per `(region, model)` from its null
/// ensemble (`nulls` region-major, in `models` order).
fn merge(
    prepared: &[PreparedRegion<'_>],
    models: &[NullModel],
    nulls: &[Option<NullEnsemble>],
    metrics: &Metrics,
) -> Result<Vec<CuisineAnalysis>, StageFailure> {
    let _merge_guard = metrics.span("world.merge").enter();
    let mut analyses = Vec::with_capacity(prepared.len());
    for (pi, p) in prepared.iter().enumerate() {
        let mut comparisons = Vec::with_capacity(models.len());
        for (mi, &model) in models.iter().enumerate() {
            let e = pi * models.len() + mi;
            let null = nulls[e].ok_or_else(|| {
                StageFailure::error(
                    "world.merge",
                    e,
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
            n_recipes: p.sampler.n_templates(),
            n_ingredients: p.cache.len(),
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
            world.recipes.cuisine(Region::Italy),
            &models,
            &cfg,
        )
        .unwrap();
        let jpn = analyze_cuisine(
            &world.flavor,
            world.recipes.cuisine(Region::Japan),
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
            world.recipes.cuisine(Region::Italy),
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
        let run = |metrics: &Metrics| {
            try_analyze_world(&world.flavor, &world.recipes, &models, &cfg, metrics)
                .expect("no faults")
        };
        let plain = run(&Metrics::disabled());
        let metrics = Metrics::enabled();
        let observed = run(&metrics);
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
                world.recipes.cuisine(row.region),
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
        let fallible = try_analyze_world(
            &world.flavor,
            &world.recipes,
            &models,
            &cfg,
            &Metrics::disabled(),
        )
        .expect("no faults");
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
        let solo_try =
            try_analyze_cuisine(&world.flavor, &cuisine, &models, &cfg, &Metrics::disabled())
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
    fn with_cache_refuses_a_cache_over_another_pool() {
        let world = generate_world(&WorldConfig::tiny());
        // The region with the narrowest pool: a cache over every
        // ingredient is strictly wider than it.
        let cuisine = (world.recipes.regions().into_iter())
            .map(|r| world.recipes.cuisine(r))
            .min_by_key(|c| c.ingredient_set().len())
            .expect("populated world");
        let every: Vec<IngredientId> = world.flavor.ingredient_ids().collect();
        let wide = OverlapCache::build(&world.flavor, &every);
        assert!(wide.len() > cuisine.ingredient_set().len());
        let models = [NullModel::Random];
        let cfg = quick_cfg();
        let metrics = Metrics::enabled();
        let failure =
            try_analyze_cuisine_with_cache(&world.flavor, &cuisine, &wide, &models, &cfg, &metrics)
                .expect_err("a cache over every ingredient is not the cuisine's pool");
        assert_eq!((failure.stage, failure.index), ("world.prepare", 0));
        assert_eq!(metrics.snapshot().counter("error.world.prepare"), Some(1));

        // The cuisine's own cache is accepted and matches the
        // cache-building path bit for bit.
        let own = OverlapCache::for_cuisine(&world.flavor, &cuisine);
        let with = try_analyze_cuisine_with_cache(
            &world.flavor,
            &cuisine,
            &own,
            &models,
            &cfg,
            &Metrics::disabled(),
        )
        .expect("own pool")
        .expect("pairing-bearing cuisine");
        let built = analyze_cuisine(&world.flavor, &cuisine, &models, &cfg).unwrap();
        assert_eq!(
            with.comparisons[0].z.map(f64::to_bits),
            built.comparisons[0].z.map(f64::to_bits)
        );
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

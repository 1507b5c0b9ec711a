//! Cross-crate fault-injection suite (`--features fault-injection`).
//!
//! Uses the deterministic [`culinaria::stats::fault`] harness to inject
//! error- and panic-shaped faults at every pipeline stage — overlap
//! packing and sweeping, Monte-Carlo blocks (pairwise and k-tuple),
//! network edge rows, the flattened world queue, and batch import — and
//! asserts the two contracts of the failure model:
//!
//! 1. **Determinism**: an injected fault yields the same structured
//!    error (lowest failing index wins) for 1, 2 and 8 worker threads.
//! 2. **Transparency**: with an empty fault plan every fallible entry
//!    point succeeds, bit-identical to its infallible convenience.
//!
//! `fault::with_plan` serializes plan installation behind a global
//! lock, so these tests are safe under the default parallel test
//! runner.

#![cfg(feature = "fault-injection")]

use culinaria::analysis::monte_carlo::{run_null_model, try_run_null_model};
use culinaria::analysis::network::FlavorNetwork;
use culinaria::analysis::ntuple::{ktuple_null_ensemble, try_ktuple_null_ensemble, KTupleScorer};
use culinaria::analysis::null_models::CuisineSampler;
use culinaria::analysis::z_analysis::{analyze_world, try_analyze_cuisine, try_analyze_world};
use culinaria::analysis::{FailureCause, MonteCarloConfig, NullModel, OverlapCache, StageFailure};
use culinaria::datagen::{generate_world, World, WorldConfig};
use culinaria::obs::Metrics;
use culinaria::recipedb::import::{ImportFailureReason, Importer, RawRecipe};
use culinaria::recipedb::{RecipeDbError, RecipeStore, Region, Source};
use culinaria::stats::fault::{self, FaultKind, FaultPlan};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn tiny_world() -> World {
    generate_world(&WorldConfig::tiny())
}

fn mc_cfg(n_threads: usize) -> MonteCarloConfig {
    MonteCarloConfig {
        // 8192 recipes / 2048-recipe blocks = 4 Monte-Carlo blocks, so
        // block indices up to 3 are injectable.
        n_recipes: 8192,
        seed: 7,
        n_threads,
    }
}

/// Telemetry off: the metrics handle the fault assertions run with.
fn off() -> Metrics {
    Metrics::disabled()
}

fn plan(stage: &str, index: usize, kind: FaultKind) -> FaultPlan {
    FaultPlan::new().fail(stage, index, kind)
}

/// The cause a probe-injected fault should surface as.
fn expected_cause(stage: &str, index: usize, kind: FaultKind) -> FailureCause {
    match kind {
        FaultKind::Error => FailureCause::Error(format!("injected fault at {stage}[{index}]")),
        FaultKind::Panic => FailureCause::Panic(format!("injected panic at {stage}[{index}]")),
    }
}

#[test]
fn empty_plan_leaves_every_stage_bit_identical() {
    let world = tiny_world();
    let pool: Vec<_> = world.flavor.ingredient_ids().collect();
    let models = [NullModel::Random, NullModel::Frequency];

    fault::with_plan(FaultPlan::new(), || {
        // An empty plan keeps the probe fast path inactive.
        assert!(!fault::active());
        let plain_cache = OverlapCache::build(&world.flavor, &pool);
        let try_cache = OverlapCache::try_build(&world.flavor, &pool, 0, &off()).unwrap();
        assert_eq!(plain_cache.len(), try_cache.len());
        for i in 0..plain_cache.len() as u32 {
            for j in 0..plain_cache.len() as u32 {
                assert_eq!(plain_cache.overlap(i, j), try_cache.overlap(i, j));
            }
        }

        let plain_net = FlavorNetwork::build(&world.flavor, &pool);
        let try_net = FlavorNetwork::try_build(&world.flavor, &pool, 0, &off()).unwrap();
        assert_eq!(plain_net.n_edges(), try_net.n_edges());

        let plain = analyze_world(&world.flavor, &world.recipes, &models, &mc_cfg(2));
        let tried =
            try_analyze_world(&world.flavor, &world.recipes, &models, &mc_cfg(2), &off()).unwrap();
        assert_eq!(plain.len(), tried.len());
        for (a, b) in plain.iter().zip(&tried) {
            assert_eq!(a.region, b.region);
            assert_eq!(a.observed_mean.to_bits(), b.observed_mean.to_bits());
            for (x, y) in a.comparisons.iter().zip(&b.comparisons) {
                assert_eq!(x.null, y.null, "{} ensembles diverged", a.region.code());
            }
        }
    });
}

#[test]
fn overlap_pack_error_is_deterministic() {
    let world = tiny_world();
    let pool: Vec<_> = world.flavor.ingredient_ids().collect();
    assert!(pool.len() > 2);
    for threads in THREAD_COUNTS {
        let failure = fault::with_plan(plan("overlap.pack", 1, FaultKind::Error), || {
            OverlapCache::try_build(&world.flavor, &pool, threads, &off()).unwrap_err()
        });
        assert_eq!(
            failure,
            StageFailure::error("overlap.pack", 1, "injected fault at overlap.pack[1]"),
            "diverged at {threads} threads"
        );
    }
}

#[test]
fn overlap_tile_faults_are_deterministic_across_threads() {
    fault::silence_injected_panics();
    let world = tiny_world();
    let pool: Vec<_> = world.flavor.ingredient_ids().collect();
    assert!(pool.len() > 4);
    for kind in [FaultKind::Error, FaultKind::Panic] {
        for threads in THREAD_COUNTS {
            let failure = fault::with_plan(plan("overlap.tile", 3, kind), || {
                OverlapCache::try_build(&world.flavor, &pool, threads, &off()).unwrap_err()
            });
            assert_eq!(failure.stage, "overlap.tile");
            assert_eq!(failure.index, 3);
            assert_eq!(
                failure.cause,
                expected_cause("overlap.tile", 3, kind),
                "diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn lowest_failing_index_wins_in_the_pool_stage() {
    fault::silence_injected_panics();
    let world = tiny_world();
    let pool: Vec<_> = world.flavor.ingredient_ids().collect();
    let mixed = FaultPlan::new()
        .fail("overlap.tile", 5, FaultKind::Panic)
        .fail("overlap.tile", 2, FaultKind::Error)
        .fail("overlap.tile", 9, FaultKind::Error);
    for threads in THREAD_COUNTS {
        let failure = fault::with_plan(mixed.clone(), || {
            OverlapCache::try_build(&world.flavor, &pool, threads, &off()).unwrap_err()
        });
        assert_eq!(
            failure,
            StageFailure::error("overlap.tile", 2, "injected fault at overlap.tile[2]"),
            "lowest index did not win at {threads} threads"
        );
    }
}

#[test]
fn mc_block_faults_are_deterministic_across_threads() {
    fault::silence_injected_panics();
    let world = tiny_world();
    let cuisine = world.recipes.cuisine(Region::Italy);
    let sampler = CuisineSampler::build(&world.flavor, &cuisine).unwrap();
    let cache = OverlapCache::build(&world.flavor, &cuisine.ingredient_set());
    for kind in [FaultKind::Error, FaultKind::Panic] {
        for threads in THREAD_COUNTS {
            let failure = fault::with_plan(plan("mc.block", 2, kind), || {
                try_run_null_model(
                    &cache,
                    &sampler,
                    NullModel::Random,
                    &mc_cfg(threads),
                    &off(),
                )
                .unwrap_err()
            });
            assert_eq!(failure.stage, "mc.block");
            assert_eq!(failure.index, 2);
            assert_eq!(
                failure.cause,
                expected_cause("mc.block", 2, kind),
                "diverged at {threads} threads"
            );
        }
    }
    // Sanity: the same configuration without a plan still runs.
    assert!(run_null_model(&cache, &sampler, NullModel::Random, &mc_cfg(2)).is_some());
}

#[test]
fn ktuple_block_faults_are_deterministic_across_threads() {
    fault::silence_injected_panics();
    let world = tiny_world();
    let cuisine = world.recipes.cuisine(Region::Italy);
    let sampler = CuisineSampler::build(&world.flavor, &cuisine).unwrap();
    let scorer = KTupleScorer::for_cuisine(&world.flavor, &cuisine, 3);
    for kind in [FaultKind::Error, FaultKind::Panic] {
        for threads in THREAD_COUNTS {
            let failure = fault::with_plan(plan("mc.ktuple.block", 1, kind), || {
                let cfg = mc_cfg(threads);
                try_ktuple_null_ensemble(&scorer, &sampler, NullModel::Random, &cfg, &off())
                    .unwrap_err()
            });
            assert_eq!(failure.stage, "mc.ktuple.block");
            assert_eq!(failure.index, 1);
            assert_eq!(failure.cause, expected_cause("mc.ktuple.block", 1, kind));
        }
    }
    // Transparent when no fault matches the stage.
    let clean = fault::with_plan(plan("unrelated.stage", 0, FaultKind::Error), || {
        try_ktuple_null_ensemble(&scorer, &sampler, NullModel::Random, &mc_cfg(2), &off()).unwrap()
    });
    assert_eq!(
        clean,
        ktuple_null_ensemble(&scorer, &sampler, NullModel::Random, &mc_cfg(2))
    );
}

#[test]
fn network_row_faults_are_deterministic_across_threads() {
    fault::silence_injected_panics();
    let world = tiny_world();
    let pool: Vec<_> = world.flavor.ingredient_ids().collect();
    for kind in [FaultKind::Error, FaultKind::Panic] {
        for threads in THREAD_COUNTS {
            let failure = fault::with_plan(plan("network.row", 2, kind), || {
                FlavorNetwork::try_build(&world.flavor, &pool, threads, &off()).unwrap_err()
            });
            assert_eq!(failure.stage, "network.row");
            assert_eq!(failure.index, 2);
            assert_eq!(failure.cause, expected_cause("network.row", 2, kind));
        }
    }
}

#[test]
fn world_block_faults_are_deterministic_across_threads() {
    fault::silence_injected_panics();
    let world = tiny_world();
    let models = [NullModel::Random];
    for kind in [FaultKind::Error, FaultKind::Panic] {
        for threads in THREAD_COUNTS {
            let failure = fault::with_plan(plan("world.block", 0, kind), || {
                try_analyze_world(
                    &world.flavor,
                    &world.recipes,
                    &models,
                    &mc_cfg(threads),
                    &off(),
                )
                .unwrap_err()
            });
            assert_eq!(failure.stage, "world.block");
            assert_eq!(failure.index, 0);
            assert_eq!(failure.cause, expected_cause("world.block", 0, kind));
        }
    }
}

#[test]
fn cuisine_analysis_block_faults_are_deterministic_across_threads() {
    // A cuisine analysis is the world driver over one region: with
    // `mc_cfg`'s 4 blocks per ensemble, `world.block[4]` is model 1's block 0.
    fault::silence_injected_panics();
    let world = tiny_world();
    let cuisine = world.recipes.cuisine(Region::Italy);
    let models = [NullModel::Random, NullModel::Frequency];
    let n_blocks = 4;
    for kind in [FaultKind::Error, FaultKind::Panic] {
        for threads in [1, 2, 4, 8] {
            let failure = fault::with_plan(plan("world.block", n_blocks, kind), || {
                try_analyze_cuisine(&world.flavor, &cuisine, &models, &mc_cfg(threads), &off())
                    .unwrap_err()
            });
            assert_eq!(
                failure,
                StageFailure {
                    stage: "world.block",
                    index: n_blocks,
                    cause: expected_cause("world.block", n_blocks, kind),
                },
                "diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn cuisine_analysis_propagates_nested_stage_failures() {
    let world = tiny_world();
    let cuisine = world.recipes.cuisine(Region::Italy);
    let failure = fault::with_plan(plan("overlap.tile", 1, FaultKind::Error), || {
        let models = [NullModel::Random];
        try_analyze_cuisine(&world.flavor, &cuisine, &models, &mc_cfg(2), &off()).unwrap_err()
    });
    assert_eq!(failure.stage, "overlap.tile");
    assert_eq!(failure.index, 1);
}

#[test]
fn engine_failures_bump_error_counters() {
    let world = tiny_world();
    let cuisine = world.recipes.cuisine(Region::Italy);
    let sampler = CuisineSampler::build(&world.flavor, &cuisine).unwrap();
    let cache = OverlapCache::build(&world.flavor, &cuisine.ingredient_set());
    let metrics = Metrics::enabled();
    fault::with_plan(plan("mc.block", 0, FaultKind::Error), || {
        let failure = try_run_null_model(&cache, &sampler, NullModel::Random, &mc_cfg(2), &metrics)
            .unwrap_err();
        assert_eq!(failure.stage, "mc.block");
    });
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("error.mc.block"), Some(1));
    assert_eq!(snap.counter("pool.failures"), Some(1));
}

fn import_fixture() -> (Importer, Vec<RawRecipe>) {
    let db = culinaria::flavordb::curated::curated_db();
    let importer = Importer::from_flavor_db(&db);
    let raws: Vec<RawRecipe> = (0..12)
        .map(|i| RawRecipe {
            name: format!("recipe {i}"),
            region: Region::Italy,
            source: Source::Synthetic,
            ingredient_lines: vec!["3 ripe tomatoes".into(), "2 cloves garlic".into()],
        })
        .collect();
    (importer, raws)
}

#[test]
fn import_error_faults_become_per_recipe_failures() {
    let db = culinaria::flavordb::curated::curated_db();
    let (importer, raws) = import_fixture();
    for threads in THREAD_COUNTS {
        let mut store = RecipeStore::new();
        let stats = fault::with_plan(plan("import.recipe", 1, FaultKind::Error), || {
            importer
                .import_batch(&db, &mut store, &raws, threads)
                .unwrap()
        });
        assert_eq!(stats.offered, 12, "at {threads} threads");
        assert_eq!(stats.stored, 11);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.failures.len(), 1);
        assert_eq!(stats.failures[0].index, 1);
        assert_eq!(stats.failures[0].name, "recipe 1");
        assert_eq!(
            stats.failures[0].reason,
            ImportFailureReason::Fault("injected fault at import.recipe[1]".into())
        );
        // The other eleven recipes made it into the store.
        assert_eq!(store.n_recipes(), 11);
    }
}

#[test]
fn import_panic_fails_the_batch_with_the_lowest_index() {
    fault::silence_injected_panics();
    let db = culinaria::flavordb::curated::curated_db();
    let (importer, raws) = import_fixture();
    let two_panics = FaultPlan::new()
        .fail("import.recipe", 7, FaultKind::Panic)
        .fail("import.recipe", 2, FaultKind::Panic);
    for threads in THREAD_COUNTS {
        let mut store = RecipeStore::new();
        let err = fault::with_plan(two_panics.clone(), || {
            importer
                .import_batch(&db, &mut store, &raws, threads)
                .unwrap_err()
        });
        assert_eq!(
            err,
            RecipeDbError::Worker {
                index: 2,
                message: "injected panic at import.recipe[2]".into(),
            },
            "diverged at {threads} threads"
        );
        // A failed batch must not have mutated the store.
        assert_eq!(store.n_recipes(), 0);
    }
}

#[test]
fn seeded_plans_are_reproducible() {
    let stages = ["overlap.tile", "mc.block", "world.block"];
    let a = FaultPlan::seeded(42, &stages, 16, 5);
    let b = FaultPlan::seeded(42, &stages, 16, 5);
    assert_eq!(a.specs(), b.specs());
    assert_eq!(a.len(), 5);
    // Different seeds may differ (not guaranteed, but with 3 stages ×
    // 16 indices × 2 kinds a collision of all five specs is unlikely
    // enough to pin down here).
    let c = FaultPlan::seeded(43, &stages, 16, 5);
    assert_ne!(a.specs(), c.specs());

    // Replaying the same seeded plan twice produces the same outcome.
    fault::silence_injected_panics();
    let world = tiny_world();
    let pool: Vec<_> = world.flavor.ingredient_ids().collect();
    let run = || {
        fault::with_plan(FaultPlan::seeded(42, &["overlap.tile"], 4, 2), || {
            OverlapCache::try_build(&world.flavor, &pool, 4, &off()).map(|cache| cache.len())
        })
    };
    assert_eq!(run(), run());
}

// ---------------------------------------------------------------------------
// Segmented-WAL chaos: faults at the append / fsync / rotate / compact
// stages must surface as errors, and whatever reached disk must reopen
// as a valid prefix that replays bit-identically at every thread count.
// ---------------------------------------------------------------------------

use culinaria::recipedb::{FsyncPolicy, IngestError, RecipeArtifactBuilder, SegmentedLog};

/// The CRDB2 bytes of `store`: it keeps every recipe field in id
/// order, so equal stores give equal bytes.
fn crdb2(store: &RecipeStore) -> Vec<u8> {
    RecipeArtifactBuilder::new(store)
        .build()
        .expect("recipe artifact encodes")
}

fn segment_scratch(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("culinaria-fault-seg-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reopen `dir` (plan cleared) and check the surviving prefix replays
/// bit-identically to a cold batch import of the same raws. Runs under
/// an empty plan: probes are process-wide, so unguarded pipeline work
/// would see a plan another test installed meanwhile.
fn assert_recovered_prefix_replays(dir: &std::path::Path, raws: &[RawRecipe]) {
    fault::with_plan(FaultPlan::new(), || replay_matches_cold(dir, raws));
}

fn replay_matches_cold(dir: &std::path::Path, raws: &[RawRecipe]) {
    let db = culinaria::flavordb::curated::curated_db();
    let importer = Importer::from_flavor_db(&db);
    let log = SegmentedLog::open(dir, FsyncPolicy::Off, 0).expect("reopen after fault");
    let n = log.len();
    assert!(n <= raws.len(), "recovered log invented records");
    let mut cold = RecipeStore::new();
    let cold_stats = importer
        .import_batch(&db, &mut cold, &raws[..n], 1)
        .expect("cold import");
    let cold_bytes = crdb2(&cold);
    for threads in THREAD_COUNTS {
        let (store, stats) = log.replay(&db, &importer, threads).expect("prefix replays");
        assert_eq!(stats, cold_stats, "stats diverged at {threads} threads");
        assert_eq!(
            crdb2(&store),
            cold_bytes,
            "store bytes diverged at {threads} threads"
        );
    }
}

/// Open a fresh stamped log in `dir`, ingest `raws` and return
/// the ingest's error (the caller's fault plan must make it fail).
fn failed_ingest(
    dir: &std::path::Path,
    policy: FsyncPolicy,
    segment_bytes: u64,
    raws: &[RawRecipe],
    threads: usize,
) -> RecipeDbError {
    let db = culinaria::flavordb::curated::curated_db();
    let importer = Importer::from_flavor_db(&db);
    let mut log = SegmentedLog::open_for(dir, policy, segment_bytes, &importer).expect("open");
    match log.ingest(&db, &importer, raws, threads, &off()) {
        Err(IngestError::Failed(e)) => e,
        other => panic!("expected a failed ingest, got {other:?}"),
    }
}

#[test]
fn segment_append_fault_leaves_a_reopenable_prefix() {
    let (_, raws) = import_fixture();
    for threads in THREAD_COUNTS {
        let dir = segment_scratch(&format!("append-{threads}"));
        let err = fault::with_plan(plan("wal.segment.append", 3, FaultKind::Error), || {
            failed_ingest(&dir, FsyncPolicy::Always, 0, &raws, threads)
        });
        assert!(
            matches!(err, RecipeDbError::Wal(_)),
            "expected a Wal error, got {err:?} at {threads} threads"
        );
        assert!(err.to_string().contains("record 3"), "{err}");
        // Import ran first, but only the records before the fault
        // reached the log — whole, in order.
        let log = SegmentedLog::open(&dir, FsyncPolicy::Off, 0).expect("reopen");
        assert_eq!(log.len(), 3);
        drop(log);
        assert_recovered_prefix_replays(&dir, &raws);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn segment_append_probe_indices_are_log_global() {
    // The probe index is the *log* offset, not the batch offset, so a
    // plan targeting record 13 fires in the second batch.
    let db = culinaria::flavordb::curated::curated_db();
    let (importer, raws) = import_fixture();
    let dir = segment_scratch("append-global");
    let mut log = fault::with_plan(FaultPlan::new(), || {
        let mut log = SegmentedLog::open_for(&dir, FsyncPolicy::Batch, 0, &importer).expect("open");
        log.ingest(&db, &importer, &raws, 2, &off())
            .expect("first batch appends cleanly");
        log
    });
    assert_eq!(log.len(), 12);
    let err = fault::with_plan(plan("wal.segment.append", 13, FaultKind::Error), || {
        log.ingest(&db, &importer, &raws, 2, &off()).unwrap_err()
    });
    assert!(err.to_string().contains("record 13"), "{err}");
    assert_eq!(log.len(), 13);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn segment_fsync_fault_surfaces_but_never_corrupts() {
    let (_, raws) = import_fixture();
    for threads in THREAD_COUNTS {
        let dir = segment_scratch(&format!("fsync-{threads}"));
        let err = fault::with_plan(plan("wal.segment.fsync", 5, FaultKind::Error), || {
            failed_ingest(&dir, FsyncPolicy::Always, 0, &raws, threads)
        });
        assert!(err.to_string().contains("fsync aborted"), "{err}");
        // The write before the failed fsync still hit the file; either
        // way the directory reopens to a valid, replayable prefix.
        assert_recovered_prefix_replays(&dir, &raws);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fsync_off_ingest_never_fsyncs_and_batch_fsyncs_once() {
    let (_, raws) = import_fixture();
    // Every index armed: any fsync on the append path of a
    // no-rotation ingest trips the plan.
    let every_fsync = (0..raws.len()).fold(FaultPlan::new(), |p, i| {
        p.fail("wal.segment.fsync", i, FaultKind::Error)
    });
    let db = culinaria::flavordb::curated::curated_db();
    let importer = Importer::from_flavor_db(&db);
    let dir = segment_scratch("fsync-off");
    let stats = fault::with_plan(every_fsync.clone(), || {
        let mut log = SegmentedLog::open_for(&dir, FsyncPolicy::Off, 0, &importer).expect("open");
        log.ingest(&db, &importer, &raws, 2, &off())
    })
    .expect("--fsync off must not fsync on the append path");
    assert_eq!(stats.stored, raws.len());
    assert_recovered_prefix_replays(&dir, &raws);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = segment_scratch("fsync-batch");
    let err = fault::with_plan(every_fsync, || {
        failed_ingest(&dir, FsyncPolicy::Batch, 0, &raws, 2)
    });
    assert!(err.to_string().contains("fsync aborted"), "{err}");
    assert_recovered_prefix_replays(&dir, &raws);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn segment_rotate_fault_keeps_the_manifest_commit_point() {
    let (_, raws) = import_fixture();
    let dir = segment_scratch("rotate");
    // A tiny rotation threshold forces a rotation inside the batch;
    // failing rotation 1 aborts the append mid-way.
    let err = fault::with_plan(plan("wal.segment.rotate", 1, FaultKind::Error), || {
        failed_ingest(&dir, FsyncPolicy::Batch, 256, &raws, 2)
    });
    assert!(err.to_string().contains("rotation 1 aborted"), "{err}");
    // The manifest (the commit point) still names only intact
    // segments, so reopen finds a valid prefix — not a torn directory.
    assert_recovered_prefix_replays(&dir, &raws);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn segment_compact_fault_leaves_the_old_segments_live() {
    let db = culinaria::flavordb::curated::curated_db();
    let (importer, raws) = import_fixture();
    let dir = segment_scratch("compact");
    // The clean history is written under an empty plan, for the reason
    // `assert_recovered_prefix_replays` gives.
    let mut log = fault::with_plan(FaultPlan::new(), || {
        let mut log =
            SegmentedLog::open_for(&dir, FsyncPolicy::Batch, 256, &importer).expect("open");
        log.ingest(&db, &importer, &raws, 2, &off())
            .expect("history ingests");
        log
    });
    let segments_before = log.n_segments();
    assert!(segments_before >= 2, "need rotation history");
    let err = fault::with_plan(
        plan("wal.segment.compact", raws.len(), FaultKind::Error),
        || log.compact().unwrap_err(),
    );
    assert!(err.to_string().contains("compact aborted"), "{err}");
    // Compaction failed before touching the manifest: the old segment
    // list still serves every record.
    assert_eq!(log.n_segments(), segments_before);
    assert_eq!(log.len(), raws.len());
    drop(log);
    assert_recovered_prefix_replays(&dir, &raws);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stamped_ingest_never_re_resolves_history() {
    let db = culinaria::flavordb::curated::curated_db();
    let (importer, raws) = import_fixture();
    // Two batches of history; the fault targets history index 15, which
    // only a replay of the history reaches (a batch has 12 recipes).
    let history = [raws.clone(), raws.clone()].concat();
    let fault_at = plan("import.recipe", raws.len() + 3, FaultKind::Error);

    let stamped = segment_scratch("stamped-ingest");
    let mut log = fault::with_plan(FaultPlan::new(), || {
        let mut log =
            SegmentedLog::open_for(&stamped, FsyncPolicy::Batch, 0, &importer).expect("open");
        log.ingest(&db, &importer, &history, 2, &off())
            .expect("history ingests");
        log
    });
    let metrics = Metrics::enabled();
    let stats = fault::with_plan(fault_at.clone(), || {
        log.ingest(&db, &importer, &raws, 2, &metrics)
    })
    .expect("a stamped log never replays its history");
    assert_eq!(metrics.snapshot().counter("wal.verify.records"), Some(0));
    assert!(stats.failures.is_empty());
    assert_eq!(log.len(), history.len() + raws.len());
    drop(log);

    // Raw appends write an unstamped log, as logs from before stamps
    // are (every history recipe stores, so none is a tombstone).
    let legacy = segment_scratch("legacy-ingest");
    let mut log = SegmentedLog::open(&legacy, FsyncPolicy::Batch, 0).expect("open");
    for raw in &history {
        log.append(raw).expect("history appends");
    }
    drop(log);
    let err = fault::with_plan(fault_at, || {
        let mut log =
            SegmentedLog::open_for(&legacy, FsyncPolicy::Batch, 0, &importer).expect("open");
        let err = log.ingest(&db, &importer, &raws, 2, &off()).unwrap_err();
        assert_eq!(log.len(), history.len(), "a refused ingest appended");
        err
    });
    let IngestError::Refused(inner) = &err else {
        panic!("expected a refusal, got {err:?}");
    };
    assert!(
        inner.to_string().contains("replay drift at record 15 "),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&stamped);
    let _ = std::fs::remove_dir_all(&legacy);
}

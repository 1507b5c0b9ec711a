//! Streaming-ingestion replay contract (`culinaria_recipedb::wal`).
//!
//! The import log's whole value is one guarantee: **replaying any
//! prefix of the log is bit-identical to a cold batch import of the
//! same prefix**, at every thread count, with per-recipe failures
//! preserved as tombstones. This suite drives that guarantee over a
//! seeded 200-recipe log (deliberate failures included), checks that
//! the downstream Fig-4 z-score table is bit-identical too, and
//! property-tests the on-disk format: truncations and bit flips must
//! be *reported*, never panicked on.

use std::sync::OnceLock;

use culinaria::analysis::z_analysis::{analyses_to_frame, analyze_world};
use culinaria::analysis::{MonteCarloConfig, NullModel};
use culinaria::flavordb::curated::curated_db;
use culinaria::flavordb::FlavorDb;
use culinaria::recipedb::import::{Importer, RawRecipe};
use culinaria::recipedb::{IngestLog, RecipeArtifactBuilder, RecipeStore, Region, Source};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The CRDB2 bytes of `store`: it keeps every recipe field in id
/// order, so equal stores give equal bytes.
fn crdb2(store: &RecipeStore) -> Vec<u8> {
    RecipeArtifactBuilder::new(store)
        .build()
        .expect("recipe artifact encodes")
}

fn fixture() -> &'static (FlavorDb, Importer) {
    static FIXTURE: OnceLock<(FlavorDb, Importer)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        (db, importer)
    })
}

/// A deterministic batch of `n` raw recipes over the curated lexicon.
/// Every 17th recipe has no ingredient lines and every 23rd resolves
/// nothing — both fail import and must come back as tombstones.
fn seeded_raws(n: usize) -> Vec<RawRecipe> {
    let (db, _) = fixture();
    let names: Vec<String> = db.ingredients().map(|ing| ing.name.clone()).collect();
    assert!(names.len() > 20, "curated db unexpectedly small");
    (0..n)
        .map(|i| {
            let region = Region::ALL[i % Region::ALL.len()];
            if i % 17 == 5 {
                return RawRecipe {
                    name: format!("empty {i}"),
                    region,
                    source: Source::Synthetic,
                    ingredient_lines: Vec::new(),
                };
            }
            if i % 23 == 7 {
                return RawRecipe {
                    name: format!("gibberish {i}"),
                    region,
                    source: Source::Synthetic,
                    ingredient_lines: vec!["xqzzt unobtainium".into()],
                };
            }
            let k = 2 + i % 5;
            let lines = (0..k)
                .map(|j| names[(i * 7 + j * 13 + 1) % names.len()].clone())
                .collect();
            RawRecipe {
                name: format!("recipe {i}"),
                region,
                source: Source::Epicurious,
                ingredient_lines: lines,
            }
        })
        .collect()
}

/// The 200-record log, built in uneven micro-batches (like a stream
/// would), serialized and re-opened from its own bytes (like the CLI
/// does), plus the live store those batches accumulated.
fn seeded_log() -> (IngestLog, RecipeStore, Vec<RawRecipe>) {
    let (db, importer) = fixture();
    let raws = seeded_raws(200);
    let mut log = IngestLog::new();
    let mut live = RecipeStore::new();
    let mut offset = 0;
    for size in [1usize, 2, 13, 44, 60, 80] {
        let chunk = &raws[offset..offset + size];
        log.append_batch(db, importer, &mut live, chunk, 2)
            .expect("append_batch");
        offset += size;
    }
    assert_eq!(offset, 200);
    let log = IngestLog::from_bytes(log.as_bytes()).expect("own bytes re-open");
    (log, live, raws)
}

#[test]
fn every_prefix_replays_bit_identical_to_cold_batch() {
    let (db, importer) = fixture();
    let (log, live, raws) = seeded_log();
    assert_eq!(log.records().len(), 200);
    let tombstones = log.records().iter().filter(|r| r.is_tombstone()).count();
    assert!(
        (15..=25).contains(&tombstones),
        "seed drifted: {tombstones} tombstones"
    );

    for n in 0..=200 {
        let mut cold = RecipeStore::new();
        let cold_stats = importer
            .import_batch(db, &mut cold, &raws[..n], 1)
            .expect("cold import");
        let cold_bytes = crdb2(&cold);
        for threads in THREAD_COUNTS {
            let (store, stats) = log
                .replay_prefix(db, importer, n, threads)
                .expect("prefix replays");
            assert_eq!(
                stats, cold_stats,
                "stats diverged at prefix {n}, {threads} threads"
            );
            assert_eq!(
                crdb2(&store),
                cold_bytes,
                "store bytes diverged at prefix {n}, {threads} threads"
            );
        }
    }

    // The store grown batch-by-batch while logging is itself identical
    // to one full replay — streaming never forks from batch state.
    let (replayed, _) = log.replay(db, importer, 8).expect("full replay");
    assert_eq!(
        crdb2(&live),
        crdb2(&replayed),
        "micro-batched live store diverged from full replay"
    );
}

#[test]
fn z_scores_after_replay_match_cold_batch_at_every_thread_count() {
    let (db, importer) = fixture();
    let (log, _, raws) = seeded_log();
    for n in [67usize, 200] {
        let mc = |threads: usize| MonteCarloConfig {
            n_recipes: 1000,
            seed: 2018,
            n_threads: threads,
        };
        let mut cold = RecipeStore::new();
        importer
            .import_batch(db, &mut cold, &raws[..n], 1)
            .expect("cold import");
        let reference = analyze_world(db, &cold, &NullModel::ALL, &mc(1));
        let reference_table = analyses_to_frame(&reference).to_table_string(22);
        for threads in THREAD_COUNTS {
            let (store, _) = log
                .replay_prefix(db, importer, n, threads)
                .expect("prefix replays");
            let analyses = analyze_world(db, &store, &NullModel::ALL, &mc(threads));
            assert_eq!(analyses.len(), reference.len(), "prefix {n}");
            for (a, b) in analyses.iter().zip(&reference) {
                assert_eq!(a.region, b.region);
                assert_eq!(
                    a.observed_mean.to_bits(),
                    b.observed_mean.to_bits(),
                    "{} observed mean diverged at prefix {n}, {threads} threads",
                    a.region.code()
                );
                for (x, y) in a.comparisons.iter().zip(&b.comparisons) {
                    assert_eq!(x.model, y.model);
                    assert_eq!(
                        x.z.map(f64::to_bits),
                        y.z.map(f64::to_bits),
                        "{} z vs {} diverged at prefix {n}, {threads} threads",
                        a.region.code(),
                        x.model.name()
                    );
                    assert_eq!(x.null, y.null, "{} ensembles diverged", a.region.code());
                }
            }
            assert_eq!(
                analyses_to_frame(&analyses).to_table_string(22),
                reference_table,
                "rendered Fig-4 table diverged at prefix {n}, {threads} threads"
            );
        }
    }
}

/// A small serialized log for the corruption properties below.
fn small_log_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (db, importer) = fixture();
        let raws = seeded_raws(24);
        let mut log = IngestLog::new();
        let mut store = RecipeStore::new();
        log.append_batch(db, importer, &mut store, &raws, 2)
            .expect("append_batch");
        assert!(log.records().iter().any(|r| r.is_tombstone()));
        log.as_bytes().to_vec()
    })
}

proptest! {
    /// Truncating the byte stream anywhere is survivable: either the
    /// cut lands on a record boundary (the valid-prefix case an
    /// interrupted append leaves behind) and the shorter log re-encodes
    /// to exactly those bytes, or decoding reports an error. Never a
    /// panic, never silently invented records.
    #[test]
    fn truncated_logs_never_panic(cut in 0usize..1 << 16) {
        let bytes = small_log_bytes();
        let cut = cut % (bytes.len() + 1);
        match IngestLog::from_bytes(&bytes[..cut]) {
            Ok(log) => {
                prop_assert_eq!(log.as_bytes(), &bytes[..cut]);
                prop_assert!(log.records().len() <= 24);
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// Flipping any single bit is survivable. Every region of the
    /// format is covered by a check (magic, version, kind, framing,
    /// payload checksum, zero padding), so decode-then-replay must
    /// report an error or reproduce a well-formed log — never panic.
    #[test]
    fn bit_flipped_logs_never_panic(pos in 0usize..1 << 16, bit in 0u32..8) {
        let (db, importer) = fixture();
        let mut bytes = small_log_bytes().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1u8 << bit;
        if let Ok(log) = IngestLog::from_bytes(&bytes) {
            prop_assert!(log.records().len() <= 24);
            // A decodable flip (e.g. in an unchecked reserved field)
            // must still replay without panicking.
            let _ = log.replay(db, importer, 2);
        }
    }
}

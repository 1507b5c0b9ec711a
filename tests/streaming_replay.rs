//! Streaming-ingestion replay contract (`culinaria_recipedb::segment`).
//!
//! The import log's whole value is one guarantee: **replaying any
//! prefix of the log is bit-identical to a cold batch import of the
//! same prefix**, at every thread count, with per-recipe failures
//! preserved as tombstones. This suite drives that guarantee over a
//! seeded 200-recipe log grown by `SegmentedLog::ingest` (deliberate
//! failures included), checks that the downstream Fig-4 z-score table
//! is bit-identical too, and property-tests the on-disk format through
//! the segment a damaged image lands in: truncations and bit flips
//! must be *reported*, never panicked on.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use culinaria::analysis::z_analysis::{analyses_to_frame, analyze_world};
use culinaria::analysis::{MonteCarloConfig, NullModel};
use culinaria::flavordb::curated::curated_db;
use culinaria::flavordb::FlavorDb;
use culinaria::obs::Metrics;
use culinaria::recipedb::import::{Importer, RawRecipe};
use culinaria::recipedb::segment::{MANIFEST, MANIFEST_MAGIC};
use culinaria::recipedb::{
    FsyncPolicy, RecipeArtifactBuilder, RecipeDbError, RecipeStore, Region, SegmentedLog, Source,
};
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

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("culinaria-stream-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Grow a fresh unrotated log in `dir` by ingesting `raws` in uneven
/// micro-batches (like a stream would), then reopen it from disk (like
/// the CLI does).
fn ingested_log(dir: &Path, raws: &[RawRecipe]) -> SegmentedLog {
    let (db, importer) = fixture();
    let mut log = SegmentedLog::open_for(dir, FsyncPolicy::Batch, 0, importer).expect("open");
    let mut offset = 0;
    for size in [1usize, 2, 13, 44, 60, 80] {
        let end = (offset + size).min(raws.len());
        log.ingest(db, importer, &raws[offset..end], 2, &Metrics::disabled())
            .expect("ingest");
        offset = end;
    }
    assert_eq!(offset, raws.len(), "batches must cover every raw");
    drop(log);
    SegmentedLog::open(dir, FsyncPolicy::Batch, 0).expect("own log reopens")
}

/// The seeded 200-record log in its own directory under `name`.
fn seeded_log(name: &str) -> (SegmentedLog, PathBuf, Vec<RawRecipe>) {
    let raws = seeded_raws(200);
    let dir = scratch_dir(name);
    let log = ingested_log(&dir, &raws);
    (log, dir, raws)
}

#[test]
fn every_prefix_replays_bit_identical_to_cold_batch() {
    let (db, importer) = fixture();
    let (log, dir, raws) = seeded_log("prefixes");
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

    assert!(log.replay_prefix(db, importer, 201, 1).is_err());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn z_scores_after_replay_match_cold_batch_at_every_thread_count() {
    let (db, importer) = fixture();
    let (log, dir, raws) = seeded_log("z-scores");
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
    let _ = fs::remove_dir_all(&dir);
}

/// The single segment image of a small ingested log, for the
/// corruption properties below.
fn small_log_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = scratch_dir("small");
        let log = ingested_log(&dir, &seeded_raws(24));
        assert!(log.records().iter().any(|r| r.is_tombstone()));
        assert_eq!(log.n_segments(), 1);
        let bytes = fs::read(dir.join(&log.segment_names()[0])).expect("read segment");
        let _ = fs::remove_dir_all(&dir);
        bytes
    })
}

/// Lay `image` out in `dir` as the first of two segments, followed by
/// an empty open segment, or as the only (open) segment, and open the
/// log. A sealed segment decodes strictly; the open one is scanned for
/// its valid prefix.
fn open_with_image(dir: &Path, image: &[u8], sealed: bool) -> Result<SegmentedLog, RecipeDbError> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("create dir");
    let header = &small_log_bytes()[..16];
    let names: &[&str] = if sealed {
        fs::write(dir.join("seg-000002.cwal"), header).expect("write open segment");
        &["seg-000001.cwal", "seg-000002.cwal"]
    } else {
        &["seg-000001.cwal"]
    };
    fs::write(dir.join("seg-000001.cwal"), image).expect("write segment");
    let manifest = format!("{MANIFEST_MAGIC}\n{}\n", names.join("\n"));
    fs::write(dir.join(MANIFEST), manifest).expect("write manifest");
    SegmentedLog::open(dir, FsyncPolicy::Off, 0)
}

proptest! {
    /// Truncating the byte stream anywhere is survivable. As a sealed
    /// segment, either the cut lands on a record boundary (the
    /// valid-prefix case an interrupted append leaves behind) and the
    /// shorter log re-encodes to exactly those bytes, or opening reports
    /// an error. As the open segment, recovery keeps a prefix of the
    /// records. Never a panic, never silently invented records.
    #[test]
    fn truncated_logs_never_panic(cut in 0usize..1 << 16) {
        let bytes = small_log_bytes();
        let cut = cut % (bytes.len() + 1);
        let dir = scratch_dir("truncated");
        let full = open_with_image(&dir, bytes, true).expect("intact image opens");
        match open_with_image(&dir, &bytes[..cut], true) {
            Ok(mut log) => {
                prop_assert!(log.len() <= 24);
                prop_assert_eq!(log.records(), &full.records()[..log.len()]);
                // Compaction re-frames the decoded records into one
                // segment: byte for byte the surviving image.
                log.compact().expect("compact");
                let image = fs::read(dir.join(&log.segment_names()[0])).expect("read");
                prop_assert_eq!(&image[..], &bytes[..cut]);
            }
            Err(e) => prop_assert!(e.to_string().contains("sealed segment seg-000001.cwal")),
        }
        let torn = open_with_image(&dir, &bytes[..cut], false).expect("open segment recovers");
        prop_assert_eq!(torn.records(), &full.records()[..torn.len()]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flipping any single bit is survivable. Every region of the
    /// format but the reserved header word is covered by a check
    /// (magic, version, kind, framing, payload checksum, zero padding),
    /// so opening the damaged image as a sealed or as the open segment,
    /// then replaying, must report an error or reproduce a well-formed
    /// log — never panic.
    #[test]
    fn bit_flipped_logs_never_panic(pos in 0usize..1 << 16, bit in 0u32..8) {
        let (db, importer) = fixture();
        let mut bytes = small_log_bytes().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1u8 << bit;
        let dir = scratch_dir("flipped");
        for sealed in [true, false] {
            if let Ok(log) = open_with_image(&dir, &bytes, sealed) {
                prop_assert!(log.len() <= 24);
                // A decodable flip (e.g. in the unread reserved word)
                // must still replay without panicking.
                let _ = log.replay(db, importer, 2);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

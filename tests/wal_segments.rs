//! Crash-and-recover chaos suite for the durable segmented WAL
//! (`culinaria_recipedb::segment`, DESIGN.md §15).
//!
//! The durability contract under test: **kill the process between any
//! two fsyncs, reopen the directory, and replay is bit-identical to a
//! cold batch import of the surviving prefix** — stores, stats, and
//! the downstream Fig-4 z-score table alike, at every thread count. A
//! kill between fsyncs is simulated the way it manifests on disk:
//! truncating the open segment at an arbitrary byte. The sweep below
//! tries *every* cut; replay parity is checked once per distinct
//! surviving prefix (each record boundary, i.e. each inter-fsync gap).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use culinaria::analysis::z_analysis::{analyses_to_frame, analyze_world};
use culinaria::analysis::{MonteCarloConfig, NullModel};
use culinaria::flavordb::curated::curated_db;
use culinaria::flavordb::FlavorDb;
use culinaria::obs::Metrics;
use culinaria::recipedb::import::{Importer, RawRecipe};
use culinaria::recipedb::segment::MANIFEST;
use culinaria::recipedb::{
    FsyncPolicy, IngestError, RecipeArtifactBuilder, RecipeStore, Region, SegmentedLog, Source,
};

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

/// Same deterministic generator as `streaming_replay.rs`: every 17th
/// recipe is empty and every 23rd resolves nothing, so the log always
/// carries tombstones through the crash windows too.
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
    let dir = std::env::temp_dir().join(format!("culinaria-chaos-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Copy a segment directory file-by-file (flat layout by construction).
fn copy_dir(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).expect("create scratch dir");
    for entry in fs::read_dir(src).expect("read dir").flatten() {
        fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy segment file");
    }
}

/// Cold batch import of `raws[..n]` — the reference every recovered
/// prefix must match bit-for-bit.
fn cold_reference(n: usize, raws: &[RawRecipe]) -> (Vec<u8>, culinaria::recipedb::ImportStats) {
    let (db, importer) = fixture();
    let mut store = RecipeStore::new();
    let stats = importer
        .import_batch(db, &mut store, &raws[..n], 1)
        .expect("cold import");
    (crdb2(&store), stats)
}

fn assert_replay_matches_cold(log: &SegmentedLog, raws: &[RawRecipe], ctx: &str) {
    let (db, importer) = fixture();
    let n = log.len();
    let (cold_bytes, cold_stats) = cold_reference(n, raws);
    for threads in THREAD_COUNTS {
        let (store, stats) = log.replay(db, importer, threads).expect("replay");
        assert_eq!(
            stats, cold_stats,
            "{ctx}: stats diverged at {threads} threads"
        );
        assert_eq!(
            &crdb2(&store)[..],
            &cold_bytes[..],
            "{ctx}: store bytes diverged at {threads} threads"
        );
    }
}

#[test]
fn rotation_and_reopen_are_bit_identical_to_cold_import() {
    let (db, importer) = fixture();
    let raws = seeded_raws(200);
    for policy in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Off] {
        let dir = scratch_dir(&format!("rotate-{policy}"));
        {
            // 2 KiB segments force many rotations over a 200-record log.
            let mut log = SegmentedLog::open(&dir, policy, 2048).expect("open");
            let mut live = RecipeStore::new();
            let mut offset = 0;
            for size in [1usize, 2, 13, 44, 60, 80] {
                log.append_batch(db, importer, &mut live, &raws[offset..offset + size], 2)
                    .expect("append_batch");
                offset += size;
            }
            assert_eq!(offset, 200);
            assert!(
                log.n_segments() >= 3,
                "rotation never kicked in: {} segment(s)",
                log.n_segments()
            );
            log.sync().expect("final sync");
        }
        let log = SegmentedLog::open(&dir, policy, 2048).expect("reopen");
        assert_eq!(log.len(), 200);
        assert!(!log.recovery().recovered(), "clean close must reopen clean");
        assert_eq!(log.recovery().orphans, 0);
        assert_replay_matches_cold(&log, &raws, &format!("rotated reopen ({policy})"));
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn every_cut_of_the_open_segment_recovers_a_replayable_prefix() {
    let (db, importer) = fixture();
    let raws = seeded_raws(24);
    let base = scratch_dir("torn-base");
    {
        // No rotation: a single open segment holds every record, so a
        // cut at byte `c` models a crash after `c` durable bytes.
        let mut log = SegmentedLog::open(&base, FsyncPolicy::Batch, 0).expect("open");
        let mut store = RecipeStore::new();
        log.append_batch(db, importer, &mut store, &raws, 2)
            .expect("append_batch");
        log.sync().expect("sync");
        assert_eq!(log.n_segments(), 1);
    }
    let seg = fs::read_dir(&base)
        .expect("read base")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .find(|n| n.ends_with(".cwal"))
        .expect("open segment present");
    let full_len = fs::metadata(base.join(&seg))
        .expect("segment metadata")
        .len() as usize;

    let scratch = scratch_dir("torn-cut");
    let mut last_survivors = None;
    let mut checked_prefixes = 0usize;
    for cut in 0..=full_len {
        copy_dir(&base, &scratch);
        let path = scratch.join(&seg);
        let f = fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open for truncate");
        f.set_len(cut as u64).expect("truncate");
        drop(f);

        let log = SegmentedLog::open(&scratch, FsyncPolicy::Batch, 0).expect("reopen after cut");
        let survivors = log.len();
        assert!(survivors <= 24, "cut {cut}: invented records");
        // Survivor counts grow monotonically with the cut point.
        if let Some(prev) = last_survivors {
            assert!(
                survivors >= prev,
                "cut {cut}: prefix shrank {prev} -> {survivors}"
            );
        }
        // Recovery arithmetic: dropped bytes + kept bytes == the cut —
        // except a cut inside the 16-byte header, which drops the whole
        // file and resets it to a fresh (larger) empty segment.
        let kept = fs::metadata(&path).expect("repaired metadata").len();
        if kept <= cut as u64 {
            assert_eq!(
                log.recovery().truncated_bytes + kept,
                cut as u64,
                "cut {cut}: recovery arithmetic"
            );
        } else {
            assert_eq!(
                log.recovery().truncated_bytes,
                cut as u64,
                "cut {cut}: a torn header must drop every byte"
            );
            assert_eq!(survivors, 0, "cut {cut}: a reset segment keeps no records");
        }
        // Repair is idempotent: a second open finds nothing to fix.
        drop(log);
        let again = SegmentedLog::open(&scratch, FsyncPolicy::Batch, 0).expect("second reopen");
        assert!(
            !again.recovery().recovered(),
            "cut {cut}: repair not idempotent"
        );
        assert_eq!(
            again.len(),
            survivors,
            "cut {cut}: records drifted on reopen"
        );

        // Replay parity once per distinct surviving prefix — i.e. for
        // every inter-fsync crash window, at 1/2/8 threads.
        if last_survivors != Some(survivors) {
            assert_replay_matches_cold(&again, &raws, &format!("cut {cut}"));
            checked_prefixes += 1;
        }
        last_survivors = Some(survivors);
    }
    assert_eq!(last_survivors, Some(24), "full file must keep everything");
    assert_eq!(
        checked_prefixes, 25,
        "expected every prefix 0..=24 to appear exactly once across the sweep"
    );
    let _ = fs::remove_dir_all(&base);
    let _ = fs::remove_dir_all(&scratch);
}

#[test]
fn fig4_z_profile_is_bit_identical_after_crash_recovery() {
    let (db, importer) = fixture();
    let raws = seeded_raws(220);
    let dir = scratch_dir("fig4");
    let total;
    {
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 4096).expect("open");
        let mut store = RecipeStore::new();
        log.append_batch(db, importer, &mut store, &raws[..200], 2)
            .expect("append_batch");
        // Rotation may have just sealed a segment, leaving the open one
        // empty; top up one record at a time until it holds something
        // for the crash to tear.
        let mut next = 200;
        loop {
            let open_name = log.segment_names().last().expect("open segment").clone();
            let open_len = fs::metadata(dir.join(&open_name)).expect("metadata").len();
            if open_len > 32 {
                break;
            }
            log.append_batch(db, importer, &mut store, &raws[next..next + 1], 1)
                .expect("top-up append");
            next += 1;
        }
        log.sync().expect("sync");
        assert!(log.n_segments() >= 2, "need a sealed segment for this test");
        total = log.len();
    }
    // Crash mid-record: chop 10 bytes off the open segment's tail —
    // more than the ≤7 bytes of zero padding a record can end with, so
    // the cut always bites into the last record proper.
    let open_seg = {
        let log = SegmentedLog::open(&dir, FsyncPolicy::Off, 0).expect("peek");
        log.segment_names().last().expect("open segment").clone()
    };
    let path = dir.join(&open_seg);
    let len = fs::metadata(&path).expect("metadata").len();
    assert!(len > 32, "open segment must hold at least one record");
    let f = fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open for truncate");
    f.set_len(len - 10).expect("truncate");
    drop(f);

    let log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 4096).expect("reopen");
    assert!(
        log.recovery().recovered(),
        "a mid-record cut must be repaired"
    );
    let n = log.len();
    assert!(n < total, "the torn record must be gone");

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
        let (store, _) = log.replay(db, importer, threads).expect("replay");
        let analyses = analyze_world(db, &store, &NullModel::ALL, &mc(threads));
        for (a, b) in analyses.iter().zip(&reference) {
            assert_eq!(a.region, b.region);
            assert_eq!(
                a.observed_mean.to_bits(),
                b.observed_mean.to_bits(),
                "{} observed mean diverged at {threads} threads",
                a.region.code()
            );
            for (x, y) in a.comparisons.iter().zip(&b.comparisons) {
                assert_eq!(
                    x.z.map(f64::to_bits),
                    y.z.map(f64::to_bits),
                    "{} z vs {} diverged at {threads} threads",
                    a.region.code(),
                    x.model.name()
                );
            }
        }
        assert_eq!(
            analyses_to_frame(&analyses).to_table_string(22),
            reference_table,
            "rendered Fig-4 table diverged after recovery at {threads} threads"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compaction_preserves_replay_and_bounds_the_file_count() {
    let (db, importer) = fixture();
    let raws = seeded_raws(120);
    let dir = scratch_dir("compact");
    let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 2048).expect("open");
    let mut store = RecipeStore::new();
    log.append_batch(db, importer, &mut store, &raws, 2)
        .expect("append_batch");
    log.sync().expect("sync");
    let before = log.n_segments();
    assert!(before >= 3, "need rotation history to compact: {before}");
    let records_before = log.records().to_vec();

    log.compact().expect("compact");
    assert_eq!(log.n_segments(), 1);
    assert_eq!(
        log.records(),
        &records_before[..],
        "compaction altered records"
    );
    let cwal_files = fs::read_dir(&dir)
        .expect("read dir")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".cwal"))
        .count();
    assert_eq!(cwal_files, 1, "stale segments must be unlinked");
    drop(log);

    let reopened = SegmentedLog::open(&dir, FsyncPolicy::Batch, 2048).expect("reopen");
    assert_eq!(reopened.records(), &records_before[..]);
    assert!(!reopened.recovery().recovered());
    assert_replay_matches_cold(&reopened, &raws, "post-compaction reopen");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn orphan_segments_are_counted_and_tolerated() {
    let (db, importer) = fixture();
    let raws = seeded_raws(12);
    let dir = scratch_dir("orphan");
    {
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).expect("open");
        let mut store = RecipeStore::new();
        log.append_batch(db, importer, &mut store, &raws, 2)
            .expect("append_batch");
        log.sync().expect("sync");
    }
    // The residue of a crash between segment creation and manifest
    // rename: a segment file no manifest names.
    fs::write(dir.join("seg-999999.cwal"), b"half-written junk").expect("drop orphan");
    let log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).expect("reopen");
    assert_eq!(
        log.recovery().orphans,
        1,
        "orphan must be counted, not decoded"
    );
    assert_eq!(log.len(), 12);
    assert_replay_matches_cold(&log, &raws, "orphaned reopen");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sealed_corruption_and_bad_manifests_are_reported_not_repaired() {
    let (db, importer) = fixture();
    let raws = seeded_raws(60);
    let dir = scratch_dir("sealed");
    {
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 2048).expect("open");
        let mut store = RecipeStore::new();
        log.append_batch(db, importer, &mut store, &raws, 2)
            .expect("append_batch");
        log.sync().expect("sync");
        assert!(log.n_segments() >= 2, "need a sealed segment");
    }
    // Flip a payload byte deep inside the *first* (sealed) segment:
    // sealed segments were durable when sealed, so damage there is a
    // hard error, never a silent truncation.
    let sealed = {
        let log = SegmentedLog::open(&dir, FsyncPolicy::Off, 0).expect("peek");
        log.segment_names().first().expect("sealed segment").clone()
    };
    let path = dir.join(&sealed);
    let mut bytes = fs::read(&path).expect("read sealed");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&path, &bytes).expect("corrupt sealed");
    let err = SegmentedLog::open(&dir, FsyncPolicy::Batch, 2048).expect_err("must refuse");
    assert!(err.to_string().contains(&sealed), "{err}");

    // A garbage manifest is likewise a hard error.
    bytes[mid] ^= 0x40;
    fs::write(&path, &bytes).expect("restore sealed");
    fs::write(dir.join("MANIFEST"), "NOT-A-MANIFEST\n").expect("clobber manifest");
    let err = SegmentedLog::open(&dir, FsyncPolicy::Batch, 2048).expect_err("must refuse");
    assert!(err.to_string().contains("manifest"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

/// The importer stamp line a manifest must carry for `importer`.
fn stamp_line(importer: &Importer) -> String {
    format!("importer {:016x}", importer.fingerprint())
}

/// Ingest `raws` through the fixture importer; returns how many history
/// records the call re-verified (its `wal.verify.records` counter).
fn ingest_counting_verified(log: &mut SegmentedLog, raws: &[RawRecipe]) -> u64 {
    let (db, importer) = fixture();
    let metrics = Metrics::enabled();
    let stats = log.ingest(db, importer, raws, 2, &metrics).expect("ingest");
    assert_eq!(stats.offered, raws.len(), "stats count the batch alone");
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter("import.recipes.offered"),
        Some(raws.len() as u64)
    );
    snap.counter("wal.verify.records")
        .expect("counter registered")
}

/// Every file of a flat directory with its bytes, in name order.
fn dir_image(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("read dir")
        .flatten()
        .map(|e| {
            let bytes = fs::read(e.path()).expect("read file");
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn importer_stamp_survives_rotation_and_compaction() {
    let (_, importer) = fixture();
    let raws = seeded_raws(90);
    let dir = scratch_dir("stamp-rotate");
    let mut log = SegmentedLog::open_for(&dir, FsyncPolicy::Batch, 256, importer).expect("open");
    assert_eq!(
        ingest_counting_verified(&mut log, &raws[..60]),
        0,
        "a fresh stamped log has no history"
    );
    assert!(
        log.n_segments() >= 3,
        "need rotations: {}",
        log.n_segments()
    );
    drop(log);

    let manifest = fs::read_to_string(dir.join(MANIFEST)).expect("manifest");
    assert_eq!(manifest.lines().nth(1), Some(stamp_line(importer).as_str()));
    let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 256).expect("reopen");
    assert_eq!(log.importer_stamp(), Some(importer.fingerprint()));
    log.compact().expect("compact");
    drop(log);

    let manifest = fs::read_to_string(dir.join(MANIFEST)).expect("manifest");
    assert_eq!(manifest.lines().nth(1), Some(stamp_line(importer).as_str()));
    let mut log = SegmentedLog::open_for(&dir, FsyncPolicy::Batch, 256, importer).expect("reopen");
    assert_eq!(
        ingest_counting_verified(&mut log, &raws[60..]),
        0,
        "compaction kept the stamp"
    );
    assert_replay_matches_cold(&log, &raws, "stamped, rotated and compacted");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stampless_logs_are_verified_once_then_restamped() {
    let (db, importer) = fixture();
    let raws = seeded_raws(80);
    let dir = scratch_dir("stamp-legacy");
    {
        // A log written without a stamp, as logs from before stamps are.
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 2048).expect("open");
        log.append_batch(db, importer, &mut RecipeStore::new(), &raws[..40], 2)
            .expect("append_batch");
        assert_eq!(log.importer_stamp(), None);
    }
    let manifest = fs::read_to_string(dir.join(MANIFEST)).expect("manifest");
    assert!(!manifest.contains("importer"), "{manifest}");

    let mut log = SegmentedLog::open_for(&dir, FsyncPolicy::Batch, 2048, importer).expect("open");
    assert_eq!(ingest_counting_verified(&mut log, &raws[40..60]), 40);
    assert_eq!(log.importer_stamp(), Some(importer.fingerprint()));
    drop(log);
    let manifest = fs::read_to_string(dir.join(MANIFEST)).expect("manifest");
    assert_eq!(manifest.lines().nth(1), Some(stamp_line(importer).as_str()));

    let mut log = SegmentedLog::open_for(&dir, FsyncPolicy::Batch, 2048, importer).expect("open");
    assert_eq!(
        ingest_counting_verified(&mut log, &raws[60..]),
        0,
        "the restamped log is trusted"
    );
    assert_eq!(log.len(), 80);
    assert_replay_matches_cold(&log, &raws, "restamped legacy log");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn ingest_refuses_a_log_another_importer_wrote_and_leaves_it_untouched() {
    let (db, importer) = fixture();
    let strict = Importer::from_flavor_db(db).with_unresolved_threshold(0.0);
    // Half-resolvable recipes: stored by the default importer,
    // tombstoned by the strict one.
    let mut raws = seeded_raws(30);
    for i in [11, 19] {
        raws[i].ingredient_lines.push("xqzzt unobtainium".into());
    }
    let reasons = |imp: &Importer| {
        let stats = imp
            .import_batch(db, &mut RecipeStore::new(), &raws, 1)
            .expect("import");
        let mut by_index = vec![None; raws.len()];
        for f in stats.failures {
            by_index[f.index] = Some(f.reason.to_string());
        }
        by_index
    };
    let first_drift = reasons(&strict)
        .iter()
        .zip(reasons(importer))
        .position(|(a, b)| *a != b)
        .expect("the two importers disagree somewhere");

    let dir = scratch_dir("stamp-drift");
    let mut log = SegmentedLog::open_for(&dir, FsyncPolicy::Batch, 1024, &strict).expect("open");
    log.ingest(db, &strict, &raws, 2, &Metrics::disabled())
        .expect("strict ingest");
    drop(log);
    let before = dir_image(&dir);

    let mut log = SegmentedLog::open_for(&dir, FsyncPolicy::Batch, 1024, importer).expect("open");
    let err = log
        .ingest(db, importer, &raws[..5], 2, &Metrics::disabled())
        .expect_err("drift must refuse");
    let IngestError::Refused(inner) = &err else {
        panic!("expected a refusal, got {err:?}");
    };
    assert!(
        inner
            .to_string()
            .contains(&format!("replay drift at record {first_drift} ")),
        "{err}"
    );
    assert_eq!(log.len(), raws.len(), "nothing appended");
    drop(log);
    assert_eq!(dir_image(&dir), before, "a refused ingest wrote to the log");
    let _ = fs::remove_dir_all(&dir);
}

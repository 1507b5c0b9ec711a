//! Durable, size-rotated segment files for the CWAL1 import log.
//!
//! [`SegmentedLog`] is the import log's one front end and
//! [`SegmentedLog::ingest`] its one batch write path: records are
//! appended to an *open segment file* in the [`crate::wal`] record
//! framing, fsynced under a configurable [`FsyncPolicy`], and rotated
//! into sealed segments once the open one crosses a size threshold.
//! Because appends only ever extend a file, a crash leaves at worst a
//! torn tail on the last segment, which [`SegmentedLog::open`]
//! truncates back to the last checksum-valid record boundary: a shorter
//! valid prefix of the log, never a rewritten one.
//!
//! # Directory grammar
//!
//! ```text
//! dir/MANIFEST            first line "CWALM1", then an optional
//!                         "importer <16 hex digits>" stamp line, then
//!                         one segment file name per line, oldest
//!                         first; the last listed segment is the open
//!                         (append) segment
//! dir/seg-NNNNNN.cwal     a complete CWAL1 image (16-byte header +
//!                         records), NNNNNN a monotonically increasing
//!                         decimal index
//! ```
//!
//! The manifest is the commit point: it is replaced atomically (write
//! `MANIFEST.tmp`, fsync, rename over `MANIFEST`, fsync the directory),
//! so readers always see a complete segment list. Segment files are
//! created and fsynced *before* the manifest names them; a crash
//! between the two leaves an unreferenced orphan file that recovery
//! counts and rotation later overwrites. Sealed segments must decode
//! fully (corruption there is reported, not repaired); only the open
//! segment is scanned leniently for a torn tail.
//!
//! Replay runs the decoded records back through
//! [`Importer::import_batch`], so the store and stats are bit-identical
//! to a cold batch import of the same records at every thread count.
//!
//! # Importer stamp
//!
//! The stamp is the [`Importer::fingerprint`] whose outcomes every
//! record holds: which recipes were stored, which were tombstoned and
//! why. [`SegmentedLog::ingest`] appends a batch without re-resolving
//! history when the stamp matches its importer. Per-recipe outcomes
//! never depend on the store, so the batch's outcomes are the ones a
//! replay of the grown log would compute. A missing stamp (a log from
//! before stamps, or one written through the raw appends) or a
//! different one makes `ingest` replay the whole log as a drift check
//! first, and restamp only if that passes. Rotation and compaction
//! carry the stamp forward; the raw [`SegmentedLog::append`] and
//! [`SegmentedLog::append_tombstone`] drop it, since nothing checks
//! their outcomes.

// User-reachable durability surface: panicking on bad data or I/O
// weather is forbidden here — return errors instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use culinaria_flavordb::FlavorDb;
use culinaria_obs::Metrics;
use culinaria_stats::fault;

use crate::error::{RecipeDbError, Result};
use crate::import::{ImportStats, Importer, RawRecipe};
use crate::store::RecipeStore;
use crate::wal::{self, header_bytes, replay_records, WalRecord, HEADER_LEN};

/// Manifest file name inside a segment directory.
pub const MANIFEST: &str = "MANIFEST";
/// First line of a valid manifest.
pub const MANIFEST_MAGIC: &str = "CWALM1";
/// Prefix of the optional manifest line holding the importer stamp.
const STAMP_PREFIX: &str = "importer ";

/// When the open segment is fsynced. Every policy fsyncs a segment
/// when rotation seals it, and on an explicit [`SegmentedLog::sync`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended record. Slowest, smallest loss window
    /// (at most the record being appended at the crash).
    Always,
    /// fsync once at the end of each [`SegmentedLog::ingest`]. The
    /// default: one fsync per ingest batch.
    Batch,
    /// Never fsync on the append path; the OS flushes on its schedule.
    Off,
}

impl FsyncPolicy {
    /// The CLI spelling (`--fsync always|batch|off`).
    pub fn as_str(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Off => "off",
        }
    }
}

impl FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "batch" => Ok(FsyncPolicy::Batch),
            "off" => Ok(FsyncPolicy::Off),
            other => Err(format!(
                "unknown fsync policy '{other}' (expected always|batch|off)"
            )),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What [`SegmentedLog::open`] found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segments listed in the manifest (including the open one).
    pub segments: usize,
    /// Records decoded across all segments.
    pub records: usize,
    /// Bytes cut off the open segment's torn tail (0 = clean open).
    pub truncated_bytes: u64,
    /// `seg-*.cwal` files on disk that no manifest references — the
    /// residue of a crash between segment creation and manifest rename.
    pub orphans: usize,
}

impl RecoveryReport {
    /// True when open had to repair a torn tail.
    pub fn recovered(&self) -> bool {
        self.truncated_bytes > 0
    }
}

/// Why [`SegmentedLog::ingest`] did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The log's history does not replay under this importer (drift,
    /// or a worker panic while checking). Nothing was written.
    Refused(RecipeDbError),
    /// Importing, appending or syncing the batch failed. The directory
    /// still holds a valid prefix of the intended log.
    Failed(RecipeDbError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Refused(e) => write!(f, "cannot replay existing wal: {e}"),
            IngestError::Failed(e) => write!(f, "ingest failed: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// What [`SegmentedLog::open_with`] does when the manifest is missing.
enum IfMissing {
    /// Initialize a fresh log, stamped with the fingerprint if given.
    Create(Option<u64>),
    /// Touch nothing and report that there is no log.
    Refuse,
}

/// The durable, size-rotated CWAL1 writer. See the module docs for the
/// on-disk grammar and crash-consistency argument.
///
/// ```
/// use culinaria_flavordb::curated::curated_db;
/// use culinaria_obs::Metrics;
/// use culinaria_recipedb::{FsyncPolicy, Importer, RawRecipe, Region, SegmentedLog, Source};
///
/// let db = curated_db();
/// let importer = Importer::from_flavor_db(&db);
/// let recipe = |name: &str, lines: &[&str]| RawRecipe {
///     name: name.into(),
///     region: Region::Italy,
///     source: Source::Epicurious,
///     ingredient_lines: lines.iter().map(|l| l.to_string()).collect(),
/// };
/// let raws = [recipe("bruschetta", &["tomato", "olive oil"]), recipe("mystery", &[])];
///
/// let dir = std::env::temp_dir().join(format!("culinaria-doc-wal-{}", std::process::id()));
/// let mut log = SegmentedLog::open_for(&dir, FsyncPolicy::Batch, 0, &importer).unwrap();
/// let stats = log.ingest(&db, &importer, &raws, 1, &Metrics::disabled()).unwrap();
/// assert_eq!((stats.stored, stats.failures.len()), (1, 1));
///
/// // Replay ≡ batch: the failed recipe is kept as a tombstone and
/// // re-checked, and the store is rebuilt as a cold import builds it.
/// let back = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).unwrap();
/// assert!(back.records()[1].is_tombstone());
/// let (store, replayed) = back.replay(&db, &importer, 2).unwrap();
/// assert_eq!(store.n_recipes(), 1);
/// assert_eq!(replayed, stats);
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct SegmentedLog {
    dir: PathBuf,
    policy: FsyncPolicy,
    segment_bytes: u64,
    segment_names: Vec<String>,
    /// The importer stamp the manifest carries, if any.
    stamp: Option<u64>,
    next_index: u64,
    open: File,
    open_len: u64,
    records: Vec<WalRecord>,
    dirty: bool,
    recovery: RecoveryReport,
}

fn segment_name(index: u64) -> String {
    format!("seg-{index:06}.cwal")
}

fn parse_segment_index(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".cwal")?
        .parse()
        .ok()
}

fn iow(ctx: impl std::fmt::Display, e: std::io::Error) -> crate::error::RecipeDbError {
    wal::err(format!("{ctx}: {e}"))
}

/// fsync a directory so a rename inside it is durable.
fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| iow(format!("fsync dir {}", dir.display()), e))
}

fn write_manifest(dir: &Path, names: &[String], stamp: Option<u64>) -> Result<()> {
    let mut text = String::with_capacity(64);
    text.push_str(MANIFEST_MAGIC);
    text.push('\n');
    if let Some(stamp) = stamp {
        text.push_str(&format!("{STAMP_PREFIX}{stamp:016x}\n"));
    }
    for name in names {
        text.push_str(name);
        text.push('\n');
    }
    let tmp = dir.join("MANIFEST.tmp");
    let mut f = File::create(&tmp).map_err(|e| iow(format!("create {}", tmp.display()), e))?;
    f.write_all(text.as_bytes())
        .and_then(|()| f.sync_all())
        .map_err(|e| iow(format!("write {}", tmp.display()), e))?;
    drop(f);
    fs::rename(&tmp, dir.join(MANIFEST)).map_err(|e| iow("rename manifest", e))?;
    sync_dir(dir)
}

/// Parse a manifest: the optional importer stamp and the segment names.
fn parse_manifest(text: &str, path: &Path) -> Result<(Option<u64>, Vec<String>)> {
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(wal::err(format!(
            "bad manifest magic in {}",
            path.display()
        )));
    }
    let mut lines = lines.filter(|l| !l.trim().is_empty()).peekable();
    let stamp = match lines.peek().and_then(|l| l.strip_prefix(STAMP_PREFIX)) {
        None => None,
        Some(hex) => {
            let well_formed = hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit());
            let stamp = u64::from_str_radix(hex, 16)
                .ok()
                .filter(|_| well_formed)
                .ok_or_else(|| wal::err(format!("bad importer stamp '{hex}' in manifest")))?;
            lines.next();
            Some(stamp)
        }
    };
    let names: Vec<String> = lines.map(str::to_owned).collect();
    if names.is_empty() {
        return Err(wal::err("manifest lists no segments"));
    }
    for name in &names {
        if parse_segment_index(name).is_none() {
            return Err(wal::err(format!("bad segment name '{name}' in manifest")));
        }
    }
    Ok((stamp, names))
}

impl SegmentedLog {
    /// Open (or initialize) a segment directory.
    ///
    /// A missing directory or manifest initializes a fresh log with one
    /// empty open segment. An existing manifest is read, every sealed
    /// segment is strictly decoded, and the open (last) segment is
    /// scanned leniently: a torn tail — the residue of a crash between
    /// fsyncs — is truncated back to the last checksum-valid record
    /// boundary and reported in [`SegmentedLog::recovery`].
    ///
    /// `segment_bytes` is the rotation threshold (an append that pushes
    /// the open segment to or past it seals the segment); `0` disables
    /// rotation.
    ///
    /// # Errors
    /// [`RecipeDbError::Wal`] on I/O
    /// failure, a malformed manifest, or corruption in a *sealed*
    /// segment (those were fully durable when sealed, so damage there
    /// is reported, never silently dropped).
    pub fn open(dir: impl AsRef<Path>, policy: FsyncPolicy, segment_bytes: u64) -> Result<Self> {
        Self::open_creating(dir.as_ref(), policy, segment_bytes, None)
    }

    /// [`SegmentedLog::open`] for ingesting through `importer`: a fresh
    /// log gets the importer's [`Importer::fingerprint`] in its initial
    /// manifest, so its first [`SegmentedLog::ingest`] writes nothing
    /// more than the batch. An existing log opens unchanged.
    ///
    /// # Errors
    /// As [`SegmentedLog::open`].
    pub fn open_for(
        dir: impl AsRef<Path>,
        policy: FsyncPolicy,
        segment_bytes: u64,
        importer: &Importer,
    ) -> Result<Self> {
        let stamp = Some(importer.fingerprint());
        Self::open_creating(dir.as_ref(), policy, segment_bytes, stamp)
    }

    /// Open a log that must already exist: `Ok(None)` when `dir` holds
    /// no manifest, in which case nothing is created or written.
    /// Otherwise as [`SegmentedLog::open`] (recovery may still truncate
    /// a torn tail).
    ///
    /// # Errors
    /// As [`SegmentedLog::open`].
    pub fn open_existing(
        dir: impl AsRef<Path>,
        policy: FsyncPolicy,
        segment_bytes: u64,
    ) -> Result<Option<Self>> {
        Self::open_with(dir.as_ref(), policy, segment_bytes, IfMissing::Refuse)
    }

    fn open_creating(
        dir: &Path,
        policy: FsyncPolicy,
        segment_bytes: u64,
        stamp: Option<u64>,
    ) -> Result<Self> {
        Self::open_with(dir, policy, segment_bytes, IfMissing::Create(stamp))?
            .ok_or_else(|| wal::err("open created no log"))
    }

    fn open_with(
        dir: &Path,
        policy: FsyncPolicy,
        segment_bytes: u64,
        missing: IfMissing,
    ) -> Result<Option<Self>> {
        let dir = dir.to_path_buf();
        let manifest_path = dir.join(MANIFEST);

        let (stamp, segment_names) = if manifest_path.exists() {
            let text = fs::read_to_string(&manifest_path)
                .map_err(|e| iow(format!("read {}", manifest_path.display()), e))?;
            parse_manifest(&text, &manifest_path)?
        } else {
            let IfMissing::Create(stamp) = missing else {
                return Ok(None);
            };
            fs::create_dir_all(&dir)
                .map_err(|e| iow(format!("create dir {}", dir.display()), e))?;
            let name = segment_name(1);
            let path = dir.join(&name);
            let mut f =
                File::create(&path).map_err(|e| iow(format!("create {}", path.display()), e))?;
            f.write_all(&header_bytes())
                .and_then(|()| f.sync_all())
                .map_err(|e| iow(format!("init {}", path.display()), e))?;
            let names = vec![name];
            write_manifest(&dir, &names, stamp)?;
            (stamp, names)
        };

        let next_index = segment_names
            .iter()
            .filter_map(|n| parse_segment_index(n))
            .max()
            .unwrap_or(0)
            + 1;

        // Decode: sealed segments strictly, the open (last) one leniently.
        let mut records = Vec::new();
        let mut truncated_bytes = 0u64;
        let mut open_len = HEADER_LEN as u64;
        let last = segment_names.len() - 1;
        for (i, name) in segment_names.iter().enumerate() {
            let path = dir.join(name);
            let bytes =
                fs::read(&path).map_err(|e| iow(format!("read segment {}", path.display()), e))?;
            if i < last {
                wal::decode_image(&bytes, &mut records)
                    .map_err(|e| wal::err(format!("sealed segment {name}: {e}")))?;
            } else {
                let valid_len = wal::scan_valid_prefix(&bytes, &mut records);
                if valid_len == 0 {
                    // Header unreadable (crash during segment init):
                    // reset to a fresh empty segment.
                    truncated_bytes += bytes.len() as u64;
                    fs::write(&path, header_bytes())
                        .map_err(|e| iow(format!("reset segment {name}"), e))?;
                    open_len = HEADER_LEN as u64;
                } else {
                    if valid_len < bytes.len() {
                        truncated_bytes += (bytes.len() - valid_len) as u64;
                        let f = OpenOptions::new()
                            .write(true)
                            .open(&path)
                            .map_err(|e| iow(format!("open segment {name}"), e))?;
                        f.set_len(valid_len as u64)
                            .and_then(|()| f.sync_all())
                            .map_err(|e| iow(format!("truncate torn tail of {name}"), e))?;
                    }
                    open_len = valid_len as u64;
                }
            }
        }

        // Count orphan segment files (created but never named by a
        // manifest — a crash window during rotation).
        let mut orphans = 0usize;
        if let Ok(entries) = fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if parse_segment_index(&name).is_some()
                    && !segment_names.iter().any(|s| s == &*name)
                {
                    orphans += 1;
                }
            }
        }

        let open_path = dir.join(&segment_names[last]);
        let open = OpenOptions::new()
            .append(true)
            .open(&open_path)
            .map_err(|e| {
                iow(
                    format!("open segment {} for append", open_path.display()),
                    e,
                )
            })?;

        let recovery = RecoveryReport {
            segments: segment_names.len(),
            records: records.len(),
            truncated_bytes,
            orphans,
        };
        Ok(Some(SegmentedLog {
            dir,
            policy,
            segment_bytes,
            segment_names,
            stamp,
            next_index,
            open,
            open_len,
            records,
            dirty: false,
            recovery,
        }))
    }

    /// What [`SegmentedLog::open`] found and repaired.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Number of records (recipes + tombstones) across all segments.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The decoded records in append order, across all segments.
    pub fn records(&self) -> &[WalRecord] {
        &self.records
    }

    /// Number of segments (sealed + the open one).
    pub fn n_segments(&self) -> usize {
        self.segment_names.len()
    }

    /// Segment file names in manifest (append) order.
    pub fn segment_names(&self) -> &[String] {
        &self.segment_names
    }

    /// The [`Importer::fingerprint`] the manifest is stamped with, if
    /// any (see the module docs).
    pub fn importer_stamp(&self) -> Option<u64> {
        self.stamp
    }

    /// Records logged as stored, i.e. not tombstoned: the recipe count
    /// a replay rebuilds whenever the log verifies.
    pub fn n_stored(&self) -> usize {
        self.records.iter().filter(|r| !r.is_tombstone()).count()
    }

    /// Append one raw recipe as a stored-recipe record. Nothing checks
    /// that an importer would store it, so this drops the importer
    /// stamp (one manifest rewrite on a stamped log).
    ///
    /// # Errors
    /// [`RecipeDbError::Wal`] on encode
    /// failure, I/O failure, or an injected `wal.segment.*` fault.
    pub fn append(&mut self, raw: &RawRecipe) -> Result<()> {
        self.restamp(None)?;
        self.push_record(WalRecord::Recipe(raw.clone()))
    }

    /// Append a raw recipe that failed per-recipe import, with its
    /// rendered failure reason, as a tombstone record. Drops the
    /// importer stamp, as [`SegmentedLog::append`] does.
    ///
    /// # Errors
    /// Same as [`SegmentedLog::append`].
    pub fn append_tombstone(&mut self, raw: &RawRecipe, reason: &str) -> Result<()> {
        self.restamp(None)?;
        self.push_record(WalRecord::Tombstone {
            raw: raw.clone(),
            reason: reason.to_owned(),
        })
    }

    /// The whole `ingest` flow and the log's only batch write: check the
    /// log against `importer`, import `raws` through it, append every
    /// offered recipe, and sync as the [`FsyncPolicy`] says.
    ///
    /// Import runs first, so per-recipe failures are logged as
    /// tombstones with their real reasons. Appends follow in batch
    /// order, each probed at `wal.segment.append`, so an append-side
    /// failure leaves the directory a valid prefix of the intended log.
    /// Under [`FsyncPolicy::Batch`] the open segment is fsynced once
    /// after the batch lands; [`FsyncPolicy::Always`] has already
    /// synced every record and [`FsyncPolicy::Off`] leaves it to the OS.
    ///
    /// When the importer stamp equals [`Importer::fingerprint`], no
    /// history is resolved: the call costs O(batch). Otherwise (no
    /// stamp, or another importer's) the whole log is replayed first
    /// with the same drift cross-check as [`SegmentedLog::replay`];
    /// on success the manifest is restamped atomically, on drift the
    /// call refuses and writes nothing. The batch runs through
    /// [`Importer::import_batch_observed`] on `metrics`, which also gets
    /// the `wal.verify` span and the `wal.verify.records` counter
    /// (0 when the stamp matched). Returns the batch's import
    /// statistics; history is not counted in them.
    ///
    /// # Errors
    /// [`IngestError::Refused`] when the history does not replay under
    /// `importer`; [`IngestError::Failed`] on an import, encode, I/O or
    /// injected `wal.segment.*` failure.
    pub fn ingest(
        &mut self,
        db: &FlavorDb,
        importer: &Importer,
        raws: &[RawRecipe],
        n_threads: usize,
        metrics: &Metrics,
    ) -> std::result::Result<ImportStats, IngestError> {
        let fingerprint = importer.fingerprint();
        let mut verified = 0;
        if self.stamp != Some(fingerprint) {
            let span = metrics.span("wal.verify");
            let guard = span.enter();
            replay_records(db, importer, &self.records, n_threads).map_err(IngestError::Refused)?;
            guard.stop();
            verified = self.records.len();
            self.restamp(Some(fingerprint))
                .map_err(IngestError::Failed)?;
        }
        metrics.counter("wal.verify.records").add(verified as u64);
        let stats = importer
            .import_batch_observed(db, &mut RecipeStore::new(), raws, n_threads, metrics)
            .map_err(IngestError::Failed)?;
        self.push_outcomes(raws, &stats)
            .and_then(|()| match self.policy {
                FsyncPolicy::Batch => self.sync(),
                FsyncPolicy::Always | FsyncPolicy::Off => Ok(()),
            })
            .map_err(IngestError::Failed)?;
        Ok(stats)
    }

    /// Append each of `raws` as the record its import outcome in
    /// `stats` calls for: a tombstone with the reason, or a recipe.
    fn push_outcomes(&mut self, raws: &[RawRecipe], stats: &ImportStats) -> Result<()> {
        let mut reasons: HashMap<usize, String> = stats
            .failures
            .iter()
            .map(|f| (f.index, f.reason.to_string()))
            .collect();
        for (i, raw) in raws.iter().enumerate() {
            let raw = raw.clone();
            self.push_record(match reasons.remove(&i) {
                Some(reason) => WalRecord::Tombstone { raw, reason },
                None => WalRecord::Recipe(raw),
            })?;
        }
        Ok(())
    }

    /// Commit `stamp` to the manifest (atomically) if it differs from
    /// the current one.
    fn restamp(&mut self, stamp: Option<u64>) -> Result<()> {
        if self.stamp != stamp {
            write_manifest(&self.dir, &self.segment_names, stamp)?;
            self.stamp = stamp;
        }
        Ok(())
    }

    /// Flush and fsync the open segment if it has unsynced appends.
    /// Always syncs when dirty, regardless of policy — this is the
    /// graceful-shutdown hook.
    ///
    /// # Errors
    /// [`RecipeDbError::Wal`] on I/O failure
    /// or an injected `wal.segment.fsync` fault.
    pub fn sync(&mut self) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        let seq = self.records.len().saturating_sub(1);
        self.fsync_open(seq)
    }

    /// Rewrite every record into one fresh segment and atomically point
    /// the manifest at it, dropping the old segment files (and any
    /// orphans their indices collide with). Byte-for-byte the new
    /// segment is the concatenation the old segments held, so replay is
    /// unchanged; what compaction buys is a bounded file count after
    /// long rotation histories.
    ///
    /// # Errors
    /// [`RecipeDbError::Wal`] on encode/I/O
    /// failure or an injected `wal.segment.compact` fault.
    pub fn compact(&mut self) -> Result<()> {
        fault::probe("wal.segment.compact", self.records.len())
            .map_err(|e| wal::err(format!("compact aborted: {e}")))?;
        let mut image = header_bytes().to_vec();
        for rec in &self.records {
            image.extend_from_slice(&wal::frame(rec)?);
        }
        let name = segment_name(self.next_index);
        self.next_index += 1;
        let path = self.dir.join(&name);
        let mut f =
            File::create(&path).map_err(|e| iow(format!("create {}", path.display()), e))?;
        f.write_all(&image)
            .and_then(|()| f.sync_all())
            .map_err(|e| iow(format!("write compacted segment {name}"), e))?;
        let old = std::mem::replace(&mut self.segment_names, vec![name]);
        write_manifest(&self.dir, &self.segment_names, self.stamp)?;
        for stale in old {
            let _ = fs::remove_file(self.dir.join(stale));
        }
        self.open = f;
        self.open_len = image.len() as u64;
        self.dirty = false;
        Ok(())
    }

    /// Replay the whole log into a fresh store by running the raw
    /// recipes — tombstoned or not — through [`Importer::import_batch`],
    /// exactly as a cold batch import of the same records would: the
    /// store, recipe ids and stats are bit-identical to that import at
    /// every thread count.
    ///
    /// Tombstones are cross-checked: a record logged as failed must
    /// fail again with the same rendered reason, and a record logged as
    /// stored must not fail. A mismatch means the importer (lexicon,
    /// thresholds) drifted from the one that wrote the log.
    ///
    /// # Errors
    /// Import errors pass through; tombstone drift is reported as
    /// [`RecipeDbError::Wal`].
    pub fn replay(
        &self,
        db: &FlavorDb,
        importer: &Importer,
        n_threads: usize,
    ) -> Result<(RecipeStore, ImportStats)> {
        replay_records(db, importer, &self.records, n_threads)
    }

    /// Replay the first `n` records, as [`SegmentedLog::replay`] does
    /// the whole log: bit-identical to a cold batch import of them.
    ///
    /// # Errors
    /// [`RecipeDbError::Wal`] on an
    /// out-of-range prefix or tombstone drift; import errors pass
    /// through.
    pub fn replay_prefix(
        &self,
        db: &FlavorDb,
        importer: &Importer,
        n: usize,
        n_threads: usize,
    ) -> Result<(RecipeStore, ImportStats)> {
        let Some(prefix) = self.records.get(..n) else {
            return Err(wal::err(format!(
                "prefix {n} out of range for a {}-record log",
                self.records.len()
            )));
        };
        replay_records(db, importer, prefix, n_threads)
    }

    fn push_record(&mut self, record: WalRecord) -> Result<()> {
        let seq = self.records.len();
        fault::probe("wal.segment.append", seq)
            .map_err(|e| wal::err(format!("append aborted at record {seq}: {e}")))?;
        let frame = wal::frame(&record)?;
        self.open
            .write_all(&frame)
            .map_err(|e| iow(format!("append record {seq}"), e))?;
        self.open_len += frame.len() as u64;
        self.records.push(record);
        self.dirty = true;
        if self.policy == FsyncPolicy::Always {
            self.fsync_open(seq)?;
        }
        if self.segment_bytes > 0 && self.open_len >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    fn fsync_open(&mut self, seq: usize) -> Result<()> {
        fault::probe("wal.segment.fsync", seq)
            .map_err(|e| wal::err(format!("fsync aborted at record {seq}: {e}")))?;
        self.open
            .sync_all()
            .map_err(|e| iow(format!("fsync open segment after record {seq}"), e))?;
        self.dirty = false;
        Ok(())
    }

    /// Seal the open segment (fsync it), start a fresh one, and commit
    /// the new segment list via atomic manifest rename.
    fn rotate(&mut self) -> Result<()> {
        let rotation = self.segment_names.len();
        fault::probe("wal.segment.rotate", rotation)
            .map_err(|e| wal::err(format!("rotation {rotation} aborted: {e}")))?;
        self.open
            .sync_all()
            .map_err(|e| iow("seal segment before rotation", e))?;
        self.dirty = false;
        let name = segment_name(self.next_index);
        self.next_index += 1;
        let path = self.dir.join(&name);
        let mut f =
            File::create(&path).map_err(|e| iow(format!("create {}", path.display()), e))?;
        f.write_all(&header_bytes())
            .and_then(|()| f.sync_all())
            .map_err(|e| iow(format!("init segment {name}"), e))?;
        self.segment_names.push(name);
        write_manifest(&self.dir, &self.segment_names, self.stamp)?;
        self.open = f;
        self.open_len = HEADER_LEN as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::Source;
    use crate::region::Region;
    use culinaria_flavordb::curated::curated_db;

    fn open_for(dir: &Path, policy: FsyncPolicy, segment_bytes: u64) -> SegmentedLog {
        let importer = Importer::from_flavor_db(&curated_db());
        SegmentedLog::open_for(dir, policy, segment_bytes, &importer).unwrap()
    }

    fn ingest(log: &mut SegmentedLog, raws: &[RawRecipe], threads: usize) -> ImportStats {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        log.ingest(&db, &importer, raws, threads, &Metrics::disabled())
            .unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("culinaria-seg-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn raw(name: &str, lines: &[&str]) -> RawRecipe {
        RawRecipe {
            name: name.into(),
            region: Region::Italy,
            source: Source::Epicurious,
            ingredient_lines: lines.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn seeded_raws() -> Vec<RawRecipe> {
        vec![
            raw("marinara", &["3 ripe tomatoes", "2 cloves garlic"]),
            raw("empty", &[]),
            raw("mystery", &["quixotic zanthum paste"]),
            raw("aglio e olio", &["garlic", "olive oil", "chili"]),
            raw("bruschetta", &["tomato", "olive oil", "basil"]),
            raw("caprese", &["tomato", "basil", "olive oil"]),
        ]
    }

    /// Byte image equivalent to concatenating all segments' records.
    fn as_single_image(log: &SegmentedLog) -> Vec<u8> {
        let mut image = header_bytes().to_vec();
        for rec in log.records() {
            image.extend_from_slice(&wal::frame(rec).unwrap());
        }
        image
    }

    #[test]
    fn fsync_policy_parses_and_rejects() {
        assert_eq!("always".parse::<FsyncPolicy>(), Ok(FsyncPolicy::Always));
        assert_eq!("batch".parse::<FsyncPolicy>(), Ok(FsyncPolicy::Batch));
        assert_eq!("off".parse::<FsyncPolicy>(), Ok(FsyncPolicy::Off));
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert_eq!(FsyncPolicy::Batch.to_string(), "batch");
    }

    #[test]
    fn fresh_open_append_reopen_round_trip() {
        let dir = temp_dir("roundtrip");
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let raws = seeded_raws();
        {
            let mut log = open_for(&dir, FsyncPolicy::Batch, 0);
            assert!(log.is_empty());
            assert_eq!(log.n_segments(), 1);
            let stats = ingest(&mut log, &raws, 2);
            assert_eq!(stats.offered, raws.len());
            assert_eq!(log.len(), raws.len());
        }
        let back = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).unwrap();
        assert_eq!(back.len(), raws.len());
        assert!(!back.recovery().recovered());
        assert_eq!(back.n_stored(), 4, "two of the six raws are tombstoned");
        let mut cold = RecipeStore::new();
        let cold_stats = importer.import_batch(&db, &mut cold, &raws, 1).unwrap();
        for threads in [1usize, 2, 8] {
            let (a, astats) = back.replay(&db, &importer, threads).unwrap();
            assert_eq!(astats, cold_stats, "{threads} threads");
            assert_eq!(a.n_recipes(), cold.n_recipes());
            for (x, y) in a.recipes().zip(cold.recipes()) {
                assert_eq!(x, y, "{threads} threads");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_segments_and_reopen_sees_all_records() {
        let dir = temp_dir("rotate");
        // Tiny threshold: every record trips a rotation.
        let mut log = open_for(&dir, FsyncPolicy::Off, 64);
        ingest(&mut log, &seeded_raws(), 1);
        assert!(log.n_segments() > 1, "expected rotations");
        let n_segments = log.n_segments();
        let records = log.records().to_vec();
        drop(log);
        let back = SegmentedLog::open(&dir, FsyncPolicy::Off, 64).unwrap();
        assert_eq!(back.n_segments(), n_segments);
        assert_eq!(back.records(), &records[..]);
        assert_eq!(back.recovery().records, records.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_torn_tail_recovers_to_a_valid_prefix() {
        let dir = temp_dir("torn");
        let mut log = open_for(&dir, FsyncPolicy::Off, 0);
        ingest(&mut log, &seeded_raws(), 1);
        log.sync().unwrap();
        let full_records = log.records().to_vec();
        let open_name = log.segment_names().last().unwrap().clone();
        drop(log);
        let seg_path = dir.join(&open_name);
        let full_bytes = fs::read(&seg_path).unwrap();

        for cut in 0..full_bytes.len() {
            fs::write(&seg_path, &full_bytes[..cut]).unwrap();
            let back = SegmentedLog::open(&dir, FsyncPolicy::Off, 0).unwrap();
            // Whatever survives is a prefix of the uninterrupted log.
            assert!(back.len() <= full_records.len(), "cut {cut}");
            assert_eq!(
                back.records(),
                &full_records[..back.len()],
                "cut {cut} did not recover to a prefix"
            );
            if cut < full_bytes.len() {
                let expect_truncated = {
                    let valid = wal::scan_valid_prefix(&full_bytes[..cut], &mut Vec::new());
                    cut - valid.min(cut)
                };
                assert_eq!(
                    back.recovery().truncated_bytes,
                    expect_truncated as u64,
                    "cut {cut}"
                );
            }
            // Recovery truncated the file, so a second open is clean.
            let again = SegmentedLog::open(&dir, FsyncPolicy::Off, 0).unwrap();
            assert!(!again.recovery().recovered(), "cut {cut}");
            assert_eq!(again.records(), back.records(), "cut {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_sealed_segment_is_an_error_not_a_repair() {
        let dir = temp_dir("sealed");
        let mut log = open_for(&dir, FsyncPolicy::Off, 64);
        ingest(&mut log, &seeded_raws(), 1);
        assert!(log.n_segments() > 1);
        let sealed = log.segment_names()[0].clone();
        drop(log);
        let path = dir.join(&sealed);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let e = SegmentedLog::open(&dir, FsyncPolicy::Off, 64).unwrap_err();
        assert!(e.to_string().contains(&sealed), "{e}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_collapses_segments_and_preserves_records() {
        let dir = temp_dir("compact");
        let mut log = open_for(&dir, FsyncPolicy::Batch, 64);
        ingest(&mut log, &seeded_raws(), 2);
        let before = log.records().to_vec();
        let old_names = log.segment_names().to_vec();
        assert!(old_names.len() > 1);
        log.compact().unwrap();
        assert_eq!(log.n_segments(), 1);
        assert_eq!(log.records(), &before[..]);
        for stale in &old_names {
            assert!(!dir.join(stale).exists(), "{stale} not removed");
        }
        // The compacted image is the framed records back to back, and
        // appends keep working after compaction.
        let image = fs::read(dir.join(&log.segment_names()[0])).unwrap();
        assert_eq!(image, as_single_image(&log));
        log.append(&raw("after", &["tomato"])).unwrap();
        drop(log);
        let back = SegmentedLog::open(&dir, FsyncPolicy::Batch, 64).unwrap();
        assert_eq!(back.len(), before.len() + 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_segments_are_counted_and_tolerated() {
        let dir = temp_dir("orphan");
        ingest(
            &mut open_for(&dir, FsyncPolicy::Batch, 0),
            &seeded_raws(),
            1,
        );
        // Simulate a crash between segment creation and manifest rename.
        fs::write(dir.join(segment_name(99)), header_bytes()).unwrap();
        let back = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).unwrap();
        assert_eq!(back.recovery().orphans, 1);
        assert_eq!(back.len(), seeded_raws().len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_manifest_is_reported() {
        let dir = temp_dir("badmanifest");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST), "NOTAMANIFEST\n").unwrap();
        assert!(SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).is_err());
        fs::write(dir.join(MANIFEST), format!("{MANIFEST_MAGIC}\n")).unwrap();
        assert!(SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).is_err());
        fs::write(
            dir.join(MANIFEST),
            format!("{MANIFEST_MAGIC}\n../escape.cwal\n"),
        )
        .unwrap();
        assert!(SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).is_err());
        for stamp in ["xyz", "+123456789abcdef", "0123456789abcdef0"] {
            fs::write(
                dir.join(MANIFEST),
                format!("{MANIFEST_MAGIC}\nimporter {stamp}\nseg-000001.cwal\n"),
            )
            .unwrap();
            let e = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).unwrap_err();
            assert!(e.to_string().contains("importer stamp"), "{stamp}: {e}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_logs_carry_the_stamp_and_raw_appends_drop_it() {
        let dir = temp_dir("stamp");
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let fingerprint = importer.fingerprint();
        let log = SegmentedLog::open_for(&dir, FsyncPolicy::Batch, 0, &importer).unwrap();
        assert_eq!(log.importer_stamp(), Some(fingerprint));
        drop(log);
        let manifest = fs::read_to_string(dir.join(MANIFEST)).unwrap();
        assert_eq!(
            manifest,
            format!("{MANIFEST_MAGIC}\nimporter {fingerprint:016x}\nseg-000001.cwal\n")
        );
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).unwrap();
        assert_eq!(log.importer_stamp(), Some(fingerprint));
        // A batch through the stamped importer keeps the stamp ...
        ingest(&mut log, &seeded_raws(), 1);
        assert_eq!(log.importer_stamp(), Some(fingerprint));
        // ... a raw append, which nothing checks, drops it.
        log.append(&raw("unchecked", &["tomato"])).unwrap();
        assert_eq!(log.importer_stamp(), None);
        drop(log);
        let back = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).unwrap();
        assert_eq!(back.importer_stamp(), None);
        assert_eq!(back.len(), seeded_raws().len() + 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn always_policy_leaves_nothing_dirty() {
        let dir = temp_dir("always");
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Always, 0).unwrap();
        log.append(&raw("solo", &["tomato"])).unwrap();
        assert!(!log.dirty);
        log.sync().unwrap(); // no-op when clean
        let _ = fs::remove_dir_all(&dir);
    }
}

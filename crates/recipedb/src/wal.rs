//! Append-only, checksummed import log with deterministic replay.
//!
//! The batch importer ([`crate::import`]) is all-or-nothing: the corpus
//! arrives once and is resolved once. A production service ingests
//! continuously, so this module adds the durable half of streaming
//! ingestion: every raw recipe offered to the importer is framed into
//! an append-only log (`CWAL1`), and **replaying any prefix of the log
//! through [`Importer::import_batch`] reproduces, bit for bit, the
//! store and [`ImportStats`] a cold batch import of that prefix would
//! have produced** — at every thread count, because replay reuses the
//! importer's serial task-order merge unchanged.
//!
//! # Record grammar
//!
//! The framing follows the layout grammar of the CFDB2/CRDB2 artifacts
//! (DESIGN.md §12): little-endian, fixed-width headers, 8-byte record
//! alignment, truncation and trailing bytes rejected, corrupt input an
//! error — never a panic.
//!
//! ```text
//! header (16 bytes): magic "CWAL1\0\0\0" | u32 version = 1 | u32 reserved = 0
//! record:            u32 kind | u32 payload_len | u64 checksum (FNV-1a 64)
//!                    | payload | zero pad to the next 8-byte boundary
//! ```
//!
//! Record kinds: `1` = stored recipe, `2` = **tombstone** — a recipe
//! that failed per-recipe import (PR 5 failure semantics) logged with
//! its rendered [`ImportFailureReason`](crate::import::ImportFailureReason). Tombstones keep the log a
//! faithful transcript of *everything offered*, so replay re-resolves
//! them through the same pipeline and cross-checks that each fails
//! again with the same reason; a mismatch means the log and the
//! importer have drifted and replay reports it instead of silently
//! diverging.
//!
//! Both payloads encode the raw recipe as a `str` name (`str` = u32
//! byte length + UTF-8), region and source as u8 indices, then a u32
//! line count and one `str` per ingredient line. A tombstone payload
//! appends one more `str`: the reason.

// User-reachable serialization/ingestion surface: panicking on bad
// data is forbidden here — return errors instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;

use culinaria_flavordb::FlavorDb;
use culinaria_stats::fault;

use crate::error::{RecipeDbError, Result};
use crate::import::{ImportStats, Importer, RawRecipe};
use crate::recipe::Source;
use crate::region::Region;
use crate::store::RecipeStore;

/// Log magic: 8 bytes, like the §12 artifact magics.
pub const MAGIC: &[u8; 8] = b"CWAL1\0\0\0";
/// Format version accepted by this decoder.
pub const VERSION: u32 = 1;
/// Header size in bytes (magic + version + reserved word).
pub const HEADER_LEN: usize = 16;
/// Per-record frame header size (kind + payload length + checksum).
pub const RECORD_HEADER_LEN: usize = 16;
/// Payload size cap — a frame claiming more is corrupt, and the guard
/// keeps a flipped length byte from driving a huge allocation.
pub const MAX_PAYLOAD: usize = 1 << 24;

pub(crate) const KIND_RECIPE: u32 = 1;
pub(crate) const KIND_TOMBSTONE: u32 = 2;

/// FNV-1a 64 over the payload bytes. Dependency-free, byte-order
/// independent, and strong enough to catch the single-byte flips and
/// torn tails an append-only file actually suffers.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Round up to the next multiple of 8 (§12 alignment convention).
pub(crate) fn align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

pub(crate) fn err(msg: impl Into<String>) -> RecipeDbError {
    RecipeDbError::Wal(msg.into())
}

/// The 16-byte `CWAL1` file header every log image starts with.
pub(crate) fn header_bytes() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&VERSION.to_le_bytes());
    h
}

/// Validate the 16-byte header (magic + version).
pub(crate) fn check_header(bytes: &[u8]) -> Result<()> {
    if bytes.len() < HEADER_LEN {
        return Err(err(format!(
            "truncated header: need {HEADER_LEN} bytes, have {}",
            bytes.len()
        )));
    }
    if &bytes[..8] != MAGIC {
        return Err(err("bad magic"));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != VERSION {
        return Err(err(format!("unsupported version {version}")));
    }
    Ok(())
}

/// Frame one record (header + payload + zero pad) as its on-disk bytes.
pub(crate) fn frame_record(kind: u32, payload: &[u8]) -> Vec<u8> {
    let framed = RECORD_HEADER_LEN + align8(payload.len());
    let mut buf = Vec::with_capacity(framed);
    buf.extend_from_slice(&kind.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf.resize(framed, 0);
    buf
}

/// Decode the record starting at byte offset `at` (which the caller has
/// checked is `< bytes.len()`), validating the frame, checksum, padding
/// and payload. Returns the record and the offset of the next one.
pub(crate) fn decode_next(bytes: &[u8], at: usize) -> Result<(WalRecord, usize)> {
    let rest = &bytes[at..];
    if rest.len() < RECORD_HEADER_LEN {
        return Err(err(format!(
            "truncated record header at offset {at}: need {RECORD_HEADER_LEN} bytes, have {}",
            rest.len()
        )));
    }
    let kind = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
    let payload_len = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]) as usize;
    let checksum = u64::from_le_bytes([
        rest[8], rest[9], rest[10], rest[11], rest[12], rest[13], rest[14], rest[15],
    ]);
    if payload_len > MAX_PAYLOAD {
        return Err(err(format!(
            "record at offset {at} claims {payload_len} payload bytes, above the {MAX_PAYLOAD} cap"
        )));
    }
    let framed = align8(payload_len);
    if rest.len() < RECORD_HEADER_LEN + framed {
        return Err(err(format!(
            "truncated record at offset {at}: need {} bytes, have {}",
            RECORD_HEADER_LEN + framed,
            rest.len()
        )));
    }
    let payload = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + payload_len];
    if fnv1a64(payload) != checksum {
        return Err(err(format!("checksum mismatch at offset {at}")));
    }
    let pad = &rest[RECORD_HEADER_LEN + payload_len..RECORD_HEADER_LEN + framed];
    if pad.iter().any(|&b| b != 0) {
        return Err(err(format!("nonzero padding at offset {at}")));
    }
    let record = decode_record(kind, payload, at)?;
    Ok((record, at + RECORD_HEADER_LEN + framed))
}

/// Lenient scan for torn-tail recovery: decode records until the first
/// structural problem and return the byte length of the longest valid
/// prefix (always a record boundary) plus the records it holds. A file
/// whose 16-byte header is itself unreadable scans as zero valid bytes.
pub(crate) fn scan_valid_prefix(bytes: &[u8]) -> (usize, Vec<WalRecord>) {
    if check_header(bytes).is_err() {
        return (0, Vec::new());
    }
    let mut records = Vec::new();
    let mut at = HEADER_LEN;
    while at < bytes.len() {
        match decode_next(bytes, at) {
            Ok((record, next)) => {
                records.push(record);
                at = next;
            }
            Err(_) => break,
        }
    }
    (at, records)
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A raw recipe that imported successfully when it was logged.
    Recipe(RawRecipe),
    /// A raw recipe that failed per-recipe import when it was logged,
    /// kept so replay re-checks the failure instead of forgetting it.
    Tombstone {
        /// The raw recipe as offered.
        raw: RawRecipe,
        /// Rendered [`ImportFailureReason`](crate::import::ImportFailureReason) recorded at ingest time.
        reason: String,
    },
}

impl WalRecord {
    /// The raw recipe carried by the record, tombstoned or not.
    pub fn raw(&self) -> &RawRecipe {
        match self {
            WalRecord::Recipe(raw) => raw,
            WalRecord::Tombstone { raw, .. } => raw,
        }
    }

    /// True for a tombstoned (failed-at-ingest) record.
    pub fn is_tombstone(&self) -> bool {
        matches!(self, WalRecord::Tombstone { .. })
    }
}

/// The append-only import log.
///
/// The log is an in-memory byte image in the `CWAL1` format plus its
/// decoded records; persistence is the caller's `fs::write` /
/// `fs::read` of [`IngestLog::as_bytes`] — appends only ever extend
/// the image, so an interrupted write leaves a shorter valid prefix at
/// worst, never a rewritten one.
///
/// ```
/// use culinaria_flavordb::curated::curated_db;
/// use culinaria_recipedb::wal::IngestLog;
/// use culinaria_recipedb::{Importer, RawRecipe, Region, Source};
///
/// let db = curated_db();
/// let importer = Importer::from_flavor_db(&db);
/// let mut log = IngestLog::new();
/// log.append(&RawRecipe {
///     name: "marinara".into(),
///     region: Region::Italy,
///     source: Source::Epicurious,
///     ingredient_lines: vec!["3 ripe tomatoes".into(), "2 cloves garlic".into()],
/// })
/// .unwrap();
///
/// // The byte image round-trips, and replay rebuilds the store.
/// let back = IngestLog::from_bytes(log.as_bytes()).unwrap();
/// let (store, stats) = back.replay(&db, &importer, 1).unwrap();
/// assert_eq!(store.n_recipes(), 1);
/// assert_eq!(stats.stored, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IngestLog {
    bytes: Vec<u8>,
    records: Vec<WalRecord>,
}

impl IngestLog {
    /// A fresh, empty log (header only).
    pub fn new() -> IngestLog {
        IngestLog {
            bytes: header_bytes().to_vec(),
            records: Vec::new(),
        }
    }

    /// Decode a log image, validating the header, every record frame,
    /// every checksum, and that nothing trails the last record.
    ///
    /// # Errors
    /// [`RecipeDbError::Wal`] on any structural problem — truncation at
    /// any byte, bad magic/version/kind, an over-large or checksum-
    /// mismatched payload, nonzero padding, or malformed payload
    /// contents. Corrupt bytes never panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<IngestLog> {
        check_header(bytes)?;
        let mut records = Vec::new();
        let mut at = HEADER_LEN;
        while at < bytes.len() {
            let (record, next) = decode_next(bytes, at)?;
            records.push(record);
            at = next;
        }
        Ok(IngestLog {
            bytes: bytes.to_vec(),
            records,
        })
    }

    /// The log's byte image — write this to disk to persist it.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of records (recipes + tombstones).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The decoded records in append order.
    pub fn records(&self) -> &[WalRecord] {
        &self.records
    }

    /// Append one raw recipe as a stored-recipe record.
    ///
    /// # Errors
    /// [`RecipeDbError::Wal`] when a string exceeds the format's u32
    /// length fields (the writer checks instead of truncating).
    pub fn append(&mut self, raw: &RawRecipe) -> Result<()> {
        let payload = encode_raw(raw, None)?;
        self.push_record(KIND_RECIPE, &payload, WalRecord::Recipe(raw.clone()));
        Ok(())
    }

    /// Append a raw recipe that failed per-recipe import, with its
    /// rendered failure reason, as a tombstone record.
    ///
    /// # Errors
    /// [`RecipeDbError::Wal`] on a string over the format limit.
    pub fn append_tombstone(&mut self, raw: &RawRecipe, reason: &str) -> Result<()> {
        let payload = encode_raw(raw, Some(reason))?;
        self.push_record(
            KIND_TOMBSTONE,
            &payload,
            WalRecord::Tombstone {
                raw: raw.clone(),
                reason: reason.to_owned(),
            },
        );
        Ok(())
    }

    /// Import a batch into `store` **and** log every offered recipe:
    /// stored recipes as [`WalRecord::Recipe`], per-recipe failures as
    /// tombstones carrying their reason. This is the streaming ingest
    /// entry point — it keeps the log a transcript of exactly what the
    /// importer saw, which is what makes replay ≡ batch hold.
    ///
    /// Import runs first; appends follow in batch order, with a
    /// `wal.append` fault probe per record. An append-side failure
    /// therefore leaves the log a *valid prefix* of the intended state
    /// (records land whole, in order), never a torn frame.
    ///
    /// # Errors
    /// Whatever [`Importer::import_batch`] returns (worker panic), a
    /// [`RecipeDbError::Wal`] encode failure, or an injected
    /// `wal.append` fault.
    pub fn append_batch(
        &mut self,
        db: &FlavorDb,
        importer: &Importer,
        store: &mut RecipeStore,
        raws: &[RawRecipe],
        n_threads: usize,
    ) -> Result<ImportStats> {
        let base = self.records.len();
        let stats = importer.import_batch(db, store, raws, n_threads)?;
        let mut reasons: HashMap<usize, String> = stats
            .failures
            .iter()
            .map(|f| (f.index, f.reason.to_string()))
            .collect();
        for (i, raw) in raws.iter().enumerate() {
            fault::probe("wal.append", base + i)
                .map_err(|e| err(format!("append aborted at record {}: {e}", base + i)))?;
            match reasons.remove(&i) {
                Some(reason) => self.append_tombstone(raw, &reason)?,
                None => self.append(raw)?,
            }
        }
        Ok(stats)
    }

    /// Replay the whole log: see [`IngestLog::replay_prefix`].
    ///
    /// ```
    /// use culinaria_flavordb::curated::curated_db;
    /// use culinaria_recipedb::wal::IngestLog;
    /// use culinaria_recipedb::{Importer, RawRecipe, RecipeStore, Region, Source};
    ///
    /// let db = curated_db();
    /// let importer = Importer::from_flavor_db(&db);
    /// let raws = vec![
    ///     RawRecipe {
    ///         name: "bruschetta".into(),
    ///         region: Region::Italy,
    ///         source: Source::Epicurious,
    ///         ingredient_lines: vec!["tomato".into(), "olive oil".into()],
    ///     },
    ///     RawRecipe {
    ///         name: "mystery".into(),
    ///         region: Region::Italy,
    ///         source: Source::Epicurious,
    ///         ingredient_lines: vec![], // fails: tombstoned, not lost
    ///     },
    /// ];
    /// let mut log = IngestLog::new();
    /// let mut live = RecipeStore::new();
    /// log.append_batch(&db, &importer, &mut live, &raws, 1).unwrap();
    ///
    /// // Replay ≡ batch: same store, same stats, tombstone re-checked.
    /// let (replayed, stats) = log.replay(&db, &importer, 2).unwrap();
    /// assert_eq!(replayed.n_recipes(), live.n_recipes());
    /// assert_eq!(stats.stored, 1);
    /// assert_eq!(stats.failures.len(), 1);
    /// ```
    pub fn replay(
        &self,
        db: &FlavorDb,
        importer: &Importer,
        n_threads: usize,
    ) -> Result<(RecipeStore, ImportStats)> {
        self.replay_prefix(db, importer, self.records.len(), n_threads)
    }

    /// Replay the first `n` records into a fresh store by running the
    /// raw recipes — tombstoned or not — through
    /// [`Importer::import_batch`], exactly as a cold batch import of
    /// the same prefix would. The store, recipe ids, and
    /// [`ImportStats`] are therefore bit-identical to that batch
    /// import at every thread count (the importer's serial task-order
    /// merge guarantees it).
    ///
    /// Tombstones are cross-checked: a record logged as failed must
    /// fail again with the same rendered reason, and a record logged
    /// as stored must not fail. A mismatch is reported as
    /// [`RecipeDbError::Wal`] — it means the importer (lexicon,
    /// thresholds) drifted from the one that wrote the log.
    ///
    /// # Errors
    /// [`RecipeDbError::Wal`] on an out-of-range prefix or a tombstone
    /// mismatch; import errors pass through.
    pub fn replay_prefix(
        &self,
        db: &FlavorDb,
        importer: &Importer,
        n: usize,
        n_threads: usize,
    ) -> Result<(RecipeStore, ImportStats)> {
        let Some(prefix) = self.records.get(..n) else {
            return Err(err(format!(
                "prefix {n} out of range for a {}-record log",
                self.records.len()
            )));
        };
        replay_records(db, importer, prefix, n_threads)
    }

    fn push_record(&mut self, kind: u32, payload: &[u8], record: WalRecord) {
        self.bytes.extend_from_slice(&frame_record(kind, payload));
        self.records.push(record);
    }
}

/// Replay a slice of decoded records into a fresh store, re-resolving
/// every raw recipe through [`Importer::import_batch`] and cross-checking
/// tombstones against today's import outcome. This is the single replay
/// path shared by [`IngestLog::replay_prefix`] and the segmented log
/// ([`crate::segment::SegmentedLog`]), so both carry the same
/// replay-≡-batch determinism contract.
pub(crate) fn replay_records(
    db: &FlavorDb,
    importer: &Importer,
    records: &[WalRecord],
    n_threads: usize,
) -> Result<(RecipeStore, ImportStats)> {
    let raws: Vec<RawRecipe> = records.iter().map(|r| r.raw().clone()).collect();
    let mut store = RecipeStore::new();
    let stats = importer.import_batch(db, &mut store, &raws, n_threads)?;
    let failed: HashMap<usize, String> = stats
        .failures
        .iter()
        .map(|f| (f.index, f.reason.to_string()))
        .collect();
    for (i, rec) in records.iter().enumerate() {
        match (rec, failed.get(&i)) {
            (WalRecord::Recipe(raw), Some(reason)) => {
                return Err(err(format!(
                    "replay drift at record {i} '{}': logged as stored, now fails: {reason}",
                    raw.name
                )));
            }
            (WalRecord::Tombstone { raw, reason }, now) => {
                if now != Some(reason) {
                    return Err(err(format!(
                        "replay drift at record {i} '{}': logged reason '{reason}', now {}",
                        raw.name,
                        now.map_or_else(|| "stored".to_owned(), |r| format!("'{r}'"))
                    )));
                }
            }
            (WalRecord::Recipe(_), None) => {}
        }
    }
    Ok((store, stats))
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) -> Result<()> {
    let len = u32::try_from(s.len()).map_err(|_| {
        err(format!(
            "string of {} bytes exceeds the u32 format limit",
            s.len()
        ))
    })?;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

pub(crate) fn encode_raw(raw: &RawRecipe, reason: Option<&str>) -> Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(64);
    put_str(&mut buf, &raw.name)?;
    buf.push(raw.region.index() as u8);
    buf.push(raw.source.index() as u8);
    let n = u32::try_from(raw.ingredient_lines.len())
        .map_err(|_| err("ingredient line count exceeds the u32 format limit"))?;
    buf.extend_from_slice(&n.to_le_bytes());
    for line in &raw.ingredient_lines {
        put_str(&mut buf, line)?;
    }
    if let Some(reason) = reason {
        put_str(&mut buf, reason)?;
    }
    Ok(buf)
}

/// Panic-free cursor over a record payload.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
    record_at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(err(format!(
                "truncated payload in record at offset {}",
                self.record_at
            ))),
        }
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| {
            err(format!(
                "invalid utf-8 in record at offset {}",
                self.record_at
            ))
        })
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

pub(crate) fn decode_record(kind: u32, payload: &[u8], record_at: usize) -> Result<WalRecord> {
    if kind != KIND_RECIPE && kind != KIND_TOMBSTONE {
        return Err(err(format!("bad record kind {kind} at offset {record_at}")));
    }
    let mut cur = Cursor {
        buf: payload,
        at: 0,
        record_at,
    };
    let name = cur.str()?;
    let region = Region::from_index(cur.u8()? as usize)
        .ok_or_else(|| err(format!("bad region index in record at offset {record_at}")))?;
    let source = Source::from_index(cur.u8()? as usize)
        .ok_or_else(|| err(format!("bad source index in record at offset {record_at}")))?;
    let n_lines = cur.u32()? as usize;
    if n_lines > MAX_PAYLOAD / 4 {
        return Err(err(format!(
            "bad line count in record at offset {record_at}"
        )));
    }
    let mut ingredient_lines = Vec::with_capacity(n_lines.min(1024));
    for _ in 0..n_lines {
        ingredient_lines.push(cur.str()?);
    }
    let raw = RawRecipe {
        name,
        region,
        source,
        ingredient_lines,
    };
    let rec = if kind == KIND_TOMBSTONE {
        WalRecord::Tombstone {
            raw,
            reason: cur.str()?,
        }
    } else {
        WalRecord::Recipe(raw)
    };
    if !cur.done() {
        return Err(err(format!(
            "trailing payload bytes in record at offset {record_at}"
        )));
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use culinaria_flavordb::curated::curated_db;

    fn raw(name: &str, lines: &[&str]) -> RawRecipe {
        RawRecipe {
            name: name.into(),
            region: Region::Italy,
            source: Source::Epicurious,
            ingredient_lines: lines.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn seeded_log() -> (IngestLog, RecipeStore, ImportStats) {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let raws = vec![
            raw("marinara", &["3 ripe tomatoes", "2 cloves garlic"]),
            raw("empty", &[]),
            raw("mystery", &["quixotic zanthum paste"]),
            raw("aglio e olio", &["garlic", "olive oil", "chili"]),
        ];
        let mut log = IngestLog::new();
        let mut store = RecipeStore::new();
        let stats = log
            .append_batch(&db, &importer, &mut store, &raws, 1)
            .unwrap();
        (log, store, stats)
    }

    #[test]
    fn roundtrip_and_replay_parity() {
        let (log, store, stats) = seeded_log();
        assert_eq!(log.len(), 4);
        assert_eq!(log.records().iter().filter(|r| r.is_tombstone()).count(), 2);

        let back = IngestLog::from_bytes(log.as_bytes()).unwrap();
        assert_eq!(back.records(), log.records());

        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        for threads in [1, 2, 8] {
            let (replayed, rstats) = back.replay(&db, &importer, threads).unwrap();
            assert_eq!(rstats, stats, "stats diverged at {threads} threads");
            assert_eq!(replayed.n_recipes(), store.n_recipes());
            for (a, b) in replayed.recipes().zip(store.recipes()) {
                assert_eq!(a, b, "recipe diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn every_prefix_replays_as_batch() {
        let (log, _, _) = seeded_log();
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        for n in 0..=log.len() {
            let raws: Vec<RawRecipe> = log.records()[..n].iter().map(|r| r.raw().clone()).collect();
            let mut batch_store = RecipeStore::new();
            let batch_stats = importer.import(&db, &mut batch_store, &raws).unwrap();
            let (replayed, rstats) = log.replay_prefix(&db, &importer, n, 2).unwrap();
            assert_eq!(rstats, batch_stats, "prefix {n}");
            for (a, b) in replayed.recipes().zip(batch_store.recipes()) {
                assert_eq!(a, b, "prefix {n}");
            }
        }
        assert!(log.replay_prefix(&db, &importer, log.len() + 1, 1).is_err());
    }

    #[test]
    fn every_truncation_prefix_errors() {
        let (log, _, _) = seeded_log();
        let bytes = log.as_bytes();
        for cut in 0..bytes.len() {
            // Cuts at record boundaries decode to a shorter valid log;
            // every other cut must be a structural error.
            if let Ok(short) = IngestLog::from_bytes(&bytes[..cut]) {
                assert!(short.len() < log.len(), "cut {cut}");
                let mut whole = IngestLog::new();
                for r in short.records() {
                    match r {
                        WalRecord::Recipe(raw) => whole.append(raw).unwrap(),
                        WalRecord::Tombstone { raw, reason } => {
                            whole.append_tombstone(raw, reason).unwrap()
                        }
                    }
                }
                assert_eq!(whole.as_bytes(), &bytes[..cut], "cut {cut}");
            }
        }
    }

    #[test]
    fn byte_flips_never_panic_and_rarely_pass() {
        let (log, _, _) = seeded_log();
        let bytes = log.as_bytes().to_vec();
        for i in 0..bytes.len() {
            let mut c = bytes.clone();
            c[i] = c[i].wrapping_add(1);
            let _ = IngestLog::from_bytes(&c); // must not panic
        }
        // A payload flip specifically trips the checksum.
        let mut c = bytes.clone();
        c[HEADER_LEN + RECORD_HEADER_LEN] ^= 0xff;
        let e = IngestLog::from_bytes(&c).unwrap_err();
        assert!(e.to_string().contains("checksum"), "{e}");
    }

    #[test]
    fn bad_magic_version_kind_and_padding() {
        let (log, _, _) = seeded_log();
        let good = log.as_bytes().to_vec();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(IngestLog::from_bytes(&bad).is_err());

        let mut bad = good.clone();
        bad[8] = 9;
        assert!(IngestLog::from_bytes(&bad).is_err());

        let mut bad = good.clone();
        bad[HEADER_LEN] = 7; // record kind
        assert!(IngestLog::from_bytes(&bad).is_err());

        // Nonzero pad byte: find a record with payload_len % 8 != 0.
        let mut at = HEADER_LEN;
        let mut padded_at = None;
        while at < good.len() {
            let plen = u32::from_le_bytes([good[at + 4], good[at + 5], good[at + 6], good[at + 7]])
                as usize;
            if !plen.is_multiple_of(8) {
                padded_at = Some(at + RECORD_HEADER_LEN + plen);
                break;
            }
            at += RECORD_HEADER_LEN + align8(plen);
        }
        let padded_at = padded_at.expect("seed log has an unaligned payload");
        let mut bad = good.clone();
        bad[padded_at] = 1;
        assert!(IngestLog::from_bytes(&bad)
            .unwrap_err()
            .to_string()
            .contains("padding"));
    }

    #[test]
    fn tombstone_drift_is_reported() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let mut log = IngestLog::new();
        // Log a perfectly resolvable recipe as a tombstone: replay must
        // flag the drift instead of trusting either side silently.
        log.append_tombstone(&raw("fine", &["tomato"]), "no ingredient lines")
            .unwrap();
        let e = log.replay(&db, &importer, 1).unwrap_err();
        assert!(e.to_string().contains("drift"), "{e}");

        // And the converse: a stored record that now fails.
        let mut log = IngestLog::new();
        log.append(&raw("empty", &[])).unwrap();
        let e = log.replay(&db, &importer, 1).unwrap_err();
        assert!(e.to_string().contains("drift"), "{e}");
    }

    #[test]
    fn empty_log_is_valid_and_replays_empty() {
        let log = IngestLog::new();
        assert!(log.is_empty());
        let back = IngestLog::from_bytes(log.as_bytes()).unwrap();
        assert_eq!(back.len(), 0);
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let (store, stats) = back.replay(&db, &importer, 4).unwrap();
        assert_eq!(store.n_recipes(), 0);
        assert_eq!(stats.offered, 0);
    }
}

//! # cadel-store — durable state for the CADEL home server
//!
//! The paper's home server is a long-lived appliance controller: rules,
//! priority orders, and user-defined words accumulate over months, and
//! the engine holds mid-flight runtime state (active `until` holds,
//! retry/dead-letter queues, breaker states). This crate gives that
//! state a disk life: an append-only, CRC-checksummed, length-prefixed
//! **write-ahead log** plus a **snapshot-and-compact** cycle.
//!
//! The store is deliberately payload-agnostic: records are opaque
//! [`Json`] documents (the server layers its record schema on top, see
//! `docs/PERSISTENCE.md`). What this crate owns is the framing:
//!
//! ```text
//! wal.log       = header · record*          snapshot.bin = header · record
//! header        = magic(8) · version(u32)   magic = "CADELWAL" / "CADELSNP"
//! record        = len(u32) · crc32(u32) · payload(len bytes)
//! ```
//!
//! All integers are little-endian; the CRC is CRC-32 (IEEE) over the
//! payload bytes only. On [`Store::open`] the log is scanned from the
//! front: the first record whose length prefix overruns the file, whose
//! checksum mismatches, or whose payload fails to parse as JSON marks
//! the *torn tail* — the file is truncated back to the last good record
//! boundary and the damage is reported (never propagated as an error)
//! via [`RecoveryReport::bytes_truncated`]. A snapshot that fails its
//! own checksum is ignored entirely (the WAL alone must then rebuild
//! state), which keeps snapshot corruption strictly non-fatal.
//!
//! Durability is crash-consistent rather than synchronous by default:
//! appends buffer in the OS page cache unless
//! [`Store::set_sync_on_append`] is enabled or [`Store::sync`] is
//! called. The store remembers whether anything was written since its
//! last successful sync ([`Store::is_synced`]), so a [`Store::sync`] with
//! nothing to flush returns without a system call. Snapshots are written
//! to a temp file and atomically renamed over the old one before the WAL
//! is truncated, so a crash at any point during [`Store::compact`] leaves
//! either the old or the new snapshot intact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cadel_obs::{LazyCounter, LazyHistogram, Level, Span, Stopwatch};
use cadel_types::json::{self, Json};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

mod crc;

pub use crc::crc32;

static APPENDS: LazyCounter = LazyCounter::new("store_wal_appends_total");
static APPEND_BYTES: LazyCounter = LazyCounter::new("store_wal_append_bytes_total");
static RECOVERIES: LazyCounter = LazyCounter::new("store_recoveries_total");
static RECORDS_REPLAYED: LazyCounter = LazyCounter::new("store_records_replayed_total");
static BYTES_TRUNCATED: LazyCounter = LazyCounter::new("store_bytes_truncated_total");
static SNAPSHOTS_WRITTEN: LazyCounter = LazyCounter::new("store_snapshots_total");
static SNAPSHOTS_USED: LazyCounter = LazyCounter::new("store_snapshots_used_total");
static SNAPSHOTS_CORRUPT: LazyCounter = LazyCounter::new("store_snapshots_corrupt_total");
static RECOVER_NS: LazyHistogram = LazyHistogram::new("store_recover_duration_ns");
static REPLAY_SKIPPED: LazyCounter = LazyCounter::new("store_replay_skipped_total");
static APPEND_FAILURES: LazyCounter = LazyCounter::new("store_append_failures_total");
static SYNCS: LazyCounter = LazyCounter::new("store_syncs_total");
static SYNCS_SKIPPED: LazyCounter = LazyCounter::new("store_syncs_skipped_total");
static SYNC_NS: LazyHistogram = LazyHistogram::new("store_sync_duration_ns");

/// Counts WAL records that decoded cleanly but could not be re-applied by
/// the replaying layer (warn-and-skip recovery). The store frames and
/// checksums records but cannot interpret them, so the layer that owns
/// the record schema reports its skips here — one shared counter keeps
/// "lossy recovery" a single alarmable number fleet-wide.
pub fn note_replay_skipped(count: u64) {
    REPLAY_SKIPPED.add(count);
}

/// Magic bytes opening the write-ahead log file.
const WAL_MAGIC: &[u8; 8] = b"CADELWAL";
/// Magic bytes opening the snapshot file.
const SNAP_MAGIC: &[u8; 8] = b"CADELSNP";
/// On-disk format version for both files.
const FORMAT_VERSION: u32 = 1;
/// Header size: 8 bytes of magic plus a little-endian `u32` version.
const HEADER_LEN: u64 = 12;
/// Sanity cap on a single record's payload. A length prefix above this
/// is treated as corruption (truncate here) rather than an allocation.
const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// Name of the write-ahead log file inside the store directory.
pub const WAL_FILE: &str = "wal.log";
/// Name of the snapshot file inside the store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// Errors from the durable store.
///
/// Note what is *not* here: corruption. Torn or corrupt log tails are
/// repaired (truncated) during [`Store::open`] and surfaced through the
/// [`RecoveryReport`], never as an error.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the store was doing when the I/O failed.
        context: &'static str,
        /// The operating-system error.
        source: std::io::Error,
    },
    /// The file on disk declares a format version this build cannot
    /// read. Refusing to guess beats silently mangling newer data.
    UnsupportedVersion {
        /// Which file declared the version.
        file: &'static str,
        /// The version found on disk.
        found: u32,
    },
    /// Appending a record to the WAL failed — disk full (`ENOSPC`),
    /// quota, a yanked volume. Distinguished from [`StoreError::Io`] so
    /// callers can degrade (flip read-only, quarantine the tenant)
    /// instead of treating it like an unreadable store: everything
    /// already on disk is still intact and recoverable.
    Append {
        /// The operating-system error (or an injected fault).
        source: std::io::Error,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { context, source } => {
                write!(f, "store i/o failed while {context}: {source}")
            }
            StoreError::UnsupportedVersion { file, found } => write!(
                f,
                "{file} declares format version {found}, this build reads version {FORMAT_VERSION}"
            ),
            StoreError::Append { source } => {
                write!(f, "wal append failed: {source}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::UnsupportedVersion { .. } => None,
            StoreError::Append { source } => Some(source),
        }
    }
}

fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> StoreError {
    move |source| StoreError::Io { context, source }
}

/// What [`Store::open`] found and repaired on the way up.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// CRC-valid, JSON-valid records decoded from the log, in order.
    pub records_replayed: u64,
    /// Bytes cut from the torn/corrupt tail of the log (0 for a clean
    /// shutdown). Includes a header rewrite if the header itself was
    /// damaged.
    pub bytes_truncated: u64,
    /// Whether a valid snapshot was loaded before the log records.
    pub snapshot_used: bool,
    /// Records that decoded cleanly but were skipped (warn-and-skip) by
    /// the replaying layer. The store itself always leaves this 0 — the
    /// layer interpreting the records (e.g. the home server) fills it in
    /// and reports the same number via [`note_replay_skipped`], so a
    /// quarantine-restart can alarm on lossy recovery instead of
    /// silently dropping records.
    pub records_skipped: u64,
}

impl RecoveryReport {
    /// Whether recovery dropped anything: torn-tail bytes or records the
    /// replaying layer could not re-apply.
    pub fn is_lossy(&self) -> bool {
        self.bytes_truncated > 0 || self.records_skipped > 0
    }
}

/// Everything recovered by [`Store::open`]: the snapshot (if any), the
/// decoded log records in append order, and the repair report.
#[derive(Debug)]
pub struct Recovered {
    /// The last snapshot written by [`Store::compact`], if one exists
    /// and passed its checksum.
    pub snapshot: Option<Json>,
    /// Log records appended after that snapshot, oldest first.
    pub records: Vec<Json>,
    /// What was replayed and what was repaired.
    pub report: RecoveryReport,
}

/// An append-only, checksummed write-ahead log with snapshot-compaction,
/// rooted in one directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: File,
    wal_len: u64,
    sync_on_append: bool,
    /// Something was written to the log since its last successful sync.
    /// Set before each write, so a write that fails partway counts too.
    unsynced: bool,
    /// Fault injection: when set, every append fails as if the disk were
    /// full. See [`Store::set_fail_appends`].
    fail_appends: bool,
    /// Fault injection: when set, every fdatasync of the log fails. See
    /// [`Store::set_fail_syncs`].
    fail_syncs: bool,
}

/// Name of the per-tenant segment directory inside a shared fleet store
/// root. See [`segment_dir`].
pub const SEGMENTS_DIR: &str = "tenants";

/// The canonical per-tenant segment directory under a shared fleet store
/// root: `<root>/tenants/<name>/`. Each segment is a complete,
/// self-contained [`Store`] (its own `wal.log` + `snapshot.bin`), so one
/// tenant's corruption, disk-full state, or recovery never touches its
/// neighbours, and a single tenant can be recovered (or discarded) by
/// pointing [`Store::open`] at its segment alone. The layout is pinned by
/// the crash-matrix tests; changing it is a format change.
pub fn segment_dir(root: impl AsRef<Path>, name: &str) -> PathBuf {
    root.as_ref().join(SEGMENTS_DIR).join(name)
}

impl Store {
    /// Opens (creating if absent) the store rooted at `dir`, scanning
    /// and repairing the log, then syncs the log once, so whatever an
    /// earlier handle left unsynced reaches stable storage. Returns the
    /// store handle plus everything recovered from disk.
    pub fn open(dir: impl AsRef<Path>) -> Result<(Store, Recovered), StoreError> {
        let sw = Stopwatch::start();
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(io_err("creating store directory"))?;

        let (snapshot, snapshot_corrupt) = read_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let wal_path = dir.join(WAL_FILE);
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)
            .map_err(io_err("opening write-ahead log"))?;

        let mut bytes = Vec::new();
        wal.read_to_end(&mut bytes)
            .map_err(io_err("reading write-ahead log"))?;
        let scan = scan_wal(&bytes)?;

        let valid_len = scan.valid_len;
        if valid_len != bytes.len() as u64 || scan.rewrite_header {
            if scan.rewrite_header {
                wal.set_len(0).map_err(io_err("truncating damaged log"))?;
                wal.seek(SeekFrom::Start(0))
                    .map_err(io_err("rewinding log"))?;
                wal.write_all(&header_bytes(WAL_MAGIC))
                    .map_err(io_err("writing log header"))?;
            } else {
                wal.set_len(valid_len)
                    .map_err(io_err("truncating torn log tail"))?;
            }
        }
        wal.seek(SeekFrom::End(0))
            .map_err(io_err("seeking to log end"))?;
        let mut store = Store {
            dir,
            wal,
            wal_len: valid_len.max(HEADER_LEN),
            sync_on_append: false,
            unsynced: true,
            fail_appends: false,
            fail_syncs: false,
        };
        // One fdatasync on every open, repaired or not: an earlier handle
        // may have written records it never synced (a tenant quarantined
        // before its wave sync), and a clean first `sync` of this handle
        // must not skip them. So a store just opened is synced.
        store.sync_log().map_err(io_err("syncing log"))?;

        let report = RecoveryReport {
            records_replayed: scan.records.len() as u64,
            bytes_truncated: scan.bytes_truncated,
            snapshot_used: snapshot.is_some(),
            records_skipped: 0,
        };
        RECOVERIES.inc();
        RECORDS_REPLAYED.add(report.records_replayed);
        BYTES_TRUNCATED.add(report.bytes_truncated);
        if report.snapshot_used {
            SNAPSHOTS_USED.inc();
        }
        if snapshot_corrupt {
            SNAPSHOTS_CORRUPT.inc();
        }
        let mut span = Span::with_level("store.recover", Level::Info);
        span.add_field("records", report.records_replayed);
        span.add_field("bytes_truncated", report.bytes_truncated);
        span.add_field("snapshot_used", report.snapshot_used);
        RECOVER_NS.record(&sw);
        drop(span);

        let recovered = Recovered {
            snapshot,
            records: scan.records,
            report,
        };
        Ok((store, recovered))
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current byte length of the write-ahead log, including header.
    ///
    /// Exposed so crash-injection harnesses can mark record boundaries.
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// Whether everything written to the log has reached stable storage:
    /// nothing was written since the last successful sync (explicit, per
    /// append, or by [`Store::compact`]). A store just opened is synced.
    /// A write or sync that failed leaves it unsynced.
    pub fn is_synced(&self) -> bool {
        !self.unsynced
    }

    /// When enabled, every [`Store::append`] is followed by an fdatasync.
    /// Off by default: the tests and soak harness favour throughput, and
    /// crash-consistency (prefix durability) holds either way.
    pub fn set_sync_on_append(&mut self, on: bool) {
        self.sync_on_append = on;
    }

    /// Fault injection: when enabled, every [`Store::append`] fails with
    /// [`StoreError::Append`] as if the disk were full (`ENOSPC`). The
    /// store stays otherwise healthy — reads, syncs of already-buffered
    /// data and recovery keep working — which is exactly the shape of a
    /// real out-of-space condition. Used by the fleet soak and the
    /// read-only-flip tests; a sibling of `cadel-upnp`'s `FaultPlan`.
    pub fn set_fail_appends(&mut self, on: bool) {
        self.fail_appends = on;
    }

    /// Fault injection: when enabled, every fdatasync the log issues
    /// fails as if the device reported an I/O error. A clean
    /// [`Store::sync`] issues none and still succeeds. Used by the fleet
    /// tests of a failed wave sync.
    pub fn set_fail_syncs(&mut self, on: bool) {
        self.fail_syncs = on;
    }

    /// Appends one record to the log. The payload is the compact JSON
    /// encoding of `record`; framing and checksum are added here.
    ///
    /// # Errors
    ///
    /// A failed write (disk full, quota, injected fault) returns the
    /// typed [`StoreError::Append`] so callers can degrade to read-only
    /// instead of treating the store as lost.
    pub fn append(&mut self, record: &Json) -> Result<(), StoreError> {
        if self.fail_appends {
            APPEND_FAILURES.inc();
            return Err(StoreError::Append {
                source: std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    "injected append fault (simulated ENOSPC)",
                ),
            });
        }
        let payload = record.to_compact();
        let bytes = payload.as_bytes();
        let mut frame = Vec::with_capacity(8 + bytes.len());
        frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(bytes).to_le_bytes());
        frame.extend_from_slice(bytes);
        self.unsynced = true;
        if let Err(source) = self.wal.write_all(&frame) {
            APPEND_FAILURES.inc();
            return Err(StoreError::Append { source });
        }
        if let Err(source) = self.sync_on_append.then(|| self.sync_log()).transpose() {
            APPEND_FAILURES.inc();
            return Err(StoreError::Append { source });
        }
        self.wal_len += frame.len() as u64;
        APPENDS.inc();
        APPEND_BYTES.add(frame.len() as u64);
        Ok(())
    }

    /// Forces buffered appends to stable storage. When nothing was
    /// written since the last successful sync ([`Store::is_synced`]) this
    /// returns at once without a system call.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if !self.unsynced {
            SYNCS_SKIPPED.inc();
            return Ok(());
        }
        self.sync_log().map_err(io_err("syncing log"))
    }

    /// Issues one fdatasync of the log (counted and timed whether it
    /// succeeds or not; an injected fault stands in for the system call)
    /// and, when it succeeds, marks everything written so far as on
    /// stable storage.
    fn sync_log(&mut self) -> std::io::Result<()> {
        let sw = Stopwatch::start();
        let result = if self.fail_syncs {
            Err(std::io::Error::other("injected sync fault (simulated EIO)"))
        } else {
            self.wal.sync_data()
        };
        SYNCS.inc();
        SYNC_NS.record(&sw);
        result?;
        self.unsynced = false;
        Ok(())
    }

    /// Writes `snapshot` atomically (temp file + rename) and truncates
    /// the log back to an empty header. After this, recovery loads the
    /// snapshot and replays only records appended later.
    pub fn compact(&mut self, snapshot: &Json) -> Result<(), StoreError> {
        let payload = snapshot.to_compact();
        let bytes = payload.as_bytes();
        let mut frame = header_bytes(SNAP_MAGIC);
        frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(bytes).to_le_bytes());
        frame.extend_from_slice(bytes);

        let tmp_path = self.dir.join("snapshot.tmp");
        let final_path = self.dir.join(SNAPSHOT_FILE);
        let mut tmp = File::create(&tmp_path).map_err(io_err("creating snapshot temp file"))?;
        tmp.write_all(&frame)
            .map_err(io_err("writing snapshot payload"))?;
        tmp.sync_all().map_err(io_err("syncing snapshot"))?;
        drop(tmp);
        fs::rename(&tmp_path, &final_path).map_err(io_err("publishing snapshot"))?;

        // Only truncate the log once the snapshot is durably in place.
        self.unsynced = true;
        self.wal
            .set_len(HEADER_LEN)
            .map_err(io_err("compacting log"))?;
        self.wal
            .seek(SeekFrom::Start(HEADER_LEN))
            .map_err(io_err("rewinding compacted log"))?;
        self.sync_log().map_err(io_err("syncing compacted log"))?;
        self.wal_len = HEADER_LEN;
        SNAPSHOTS_WRITTEN.inc();
        Ok(())
    }
}

fn header_bytes(magic: &[u8; 8]) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN as usize);
    h.extend_from_slice(magic);
    h.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    h
}

struct WalScan {
    records: Vec<Json>,
    /// Byte offset of the end of the last good record (file should be
    /// truncated here if shorter than the raw length).
    valid_len: u64,
    bytes_truncated: u64,
    /// The header itself was missing/damaged: reset the whole file.
    rewrite_header: bool,
}

fn scan_wal(bytes: &[u8]) -> Result<WalScan, StoreError> {
    let total = bytes.len() as u64;
    if bytes.is_empty() {
        // Fresh file: stamp a header.
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
            bytes_truncated: 0,
            rewrite_header: true,
        });
    }
    if total < HEADER_LEN || &bytes[0..8] != WAL_MAGIC {
        // Unreadable header: everything after it is unattributable.
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
            bytes_truncated: total,
            rewrite_header: true,
        });
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            file: WAL_FILE,
            found: version,
        });
    }

    let mut records = Vec::new();
    let mut offset = HEADER_LEN as usize;
    loop {
        let remaining = bytes.len() - offset;
        if remaining == 0 {
            break; // clean end
        }
        if remaining < 8 {
            break; // torn length/crc prefix
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN || (len as usize) > remaining - 8 {
            break; // implausible or torn payload
        }
        let payload = &bytes[offset + 8..offset + 8 + len as usize];
        if crc32(payload) != crc {
            break; // bit rot or torn write inside the payload
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        let Ok(doc) = json::parse(text) else {
            break; // checksummed garbage: a writer bug, stop trusting the tail
        };
        records.push(doc);
        offset += 8 + len as usize;
    }
    Ok(WalScan {
        records,
        valid_len: offset as u64,
        bytes_truncated: total - offset as u64,
        rewrite_header: false,
    })
}

/// Reads and validates the snapshot file. Returns `(snapshot, corrupt)`
/// where `corrupt` notes a present-but-invalid snapshot (ignored).
fn read_snapshot(path: &Path) -> Result<(Option<Json>, bool), StoreError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((None, false)),
        Err(e) => return Err(io_err("reading snapshot")(e)),
    };
    if bytes.len() < (HEADER_LEN as usize) + 8 || &bytes[0..8] != SNAP_MAGIC {
        return Ok((None, true));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            file: SNAPSHOT_FILE,
            found: version,
        });
    }
    let start = HEADER_LEN as usize;
    let len = u32::from_le_bytes(bytes[start..start + 4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[start + 4..start + 8].try_into().unwrap());
    let Some(payload) = bytes.get(start + 8..start + 8 + len) else {
        return Ok((None, true));
    };
    if crc32(payload) != crc {
        return Ok((None, true));
    }
    let Ok(text) = std::str::from_utf8(payload) else {
        return Ok((None, true));
    };
    match json::parse(text) {
        Ok(doc) => Ok((Some(doc), false)),
        Err(_) => Ok((None, true)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cadel-store-{}-{}", std::process::id(), tag));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(n: i64) -> Json {
        Json::obj(vec![("type", Json::str("test")), ("n", Json::Int(n))])
    }

    #[test]
    fn round_trips_records_across_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let (mut store, recovered) = Store::open(&dir).unwrap();
            assert_eq!(recovered.report, RecoveryReport::default());
            for n in 0..5 {
                store.append(&rec(n)).unwrap();
            }
            store.sync().unwrap();
        }
        let (_store, recovered) = Store::open(&dir).unwrap();
        assert_eq!(recovered.report.records_replayed, 5);
        assert_eq!(recovered.report.bytes_truncated, 0);
        assert!(!recovered.report.snapshot_used);
        let ns: Vec<i64> = recovered
            .records
            .iter()
            .map(|r| r.get("n").and_then(Json::as_int).unwrap())
            .collect();
        assert_eq!(ns, vec![0, 1, 2, 3, 4]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_at_last_good_boundary() {
        let dir = temp_dir("torn");
        let boundary;
        {
            let (mut store, _) = Store::open(&dir).unwrap();
            store.append(&rec(1)).unwrap();
            store.append(&rec(2)).unwrap();
            boundary = store.wal_len();
            store.append(&rec(3)).unwrap();
        }
        // Tear the last record: keep its frame minus the final 3 bytes.
        let path = dir.join(WAL_FILE);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();

        let (store, recovered) = Store::open(&dir).unwrap();
        assert_eq!(recovered.report.records_replayed, 2);
        assert_eq!(
            recovered.report.bytes_truncated,
            full.len() as u64 - 3 - boundary
        );
        assert_eq!(store.wal_len(), boundary);
        assert_eq!(fs::metadata(&path).unwrap().len(), boundary);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_payload_byte_truncates_from_that_record() {
        let dir = temp_dir("corrupt");
        let boundary;
        {
            let (mut store, _) = Store::open(&dir).unwrap();
            store.append(&rec(1)).unwrap();
            boundary = store.wal_len();
            store.append(&rec(2)).unwrap();
            store.append(&rec(3)).unwrap();
        }
        let path = dir.join(WAL_FILE);
        let mut full = fs::read(&path).unwrap();
        // Flip a byte inside record 2's payload (just past its 8-byte
        // frame prefix).
        let idx = boundary as usize + 8;
        full[idx] ^= 0xFF;
        fs::write(&path, &full).unwrap();

        let (_store, recovered) = Store::open(&dir).unwrap();
        assert_eq!(recovered.report.records_replayed, 1);
        // Record 3 is unreachable past the corrupt record: both go.
        assert_eq!(
            recovered.report.bytes_truncated,
            full.len() as u64 - boundary
        );
        assert_eq!(fs::metadata(&path).unwrap().len(), boundary);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compact_then_recover_uses_snapshot() {
        let dir = temp_dir("snapshot");
        {
            let (mut store, _) = Store::open(&dir).unwrap();
            store.append(&rec(1)).unwrap();
            store.append(&rec(2)).unwrap();
            store
                .compact(&Json::obj(vec![("state", Json::Int(42))]))
                .unwrap();
            store.append(&rec(3)).unwrap();
        }
        let (store, recovered) = Store::open(&dir).unwrap();
        assert!(recovered.report.snapshot_used);
        assert_eq!(recovered.report.records_replayed, 1);
        let snap = recovered.snapshot.unwrap();
        assert_eq!(snap.get("state").and_then(Json::as_int), Some(42));
        assert_eq!(
            recovered.records[0].get("n").and_then(Json::as_int),
            Some(3)
        );
        assert_eq!(
            store.wal_len(),
            fs::metadata(dir.join(WAL_FILE)).unwrap().len()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_ignored_not_fatal() {
        let dir = temp_dir("badsnap");
        {
            let (mut store, _) = Store::open(&dir).unwrap();
            store.append(&rec(1)).unwrap();
            store
                .compact(&Json::obj(vec![("state", Json::Int(7))]))
                .unwrap();
            store.append(&rec(2)).unwrap();
        }
        let snap_path = dir.join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&snap_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&snap_path, &bytes).unwrap();

        let (_store, recovered) = Store::open(&dir).unwrap();
        assert!(!recovered.report.snapshot_used);
        assert!(recovered.snapshot.is_none());
        // The post-snapshot record still replays.
        assert_eq!(recovered.report.records_replayed, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_header_resets_the_log() {
        let dir = temp_dir("header");
        {
            let (mut store, _) = Store::open(&dir).unwrap();
            store.append(&rec(1)).unwrap();
        }
        let path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'X';
        let total = bytes.len() as u64;
        fs::write(&path, &bytes).unwrap();

        let (mut store, recovered) = Store::open(&dir).unwrap();
        assert_eq!(recovered.report.records_replayed, 0);
        assert_eq!(recovered.report.bytes_truncated, total);
        // The reset store is usable again.
        store.append(&rec(9)).unwrap();
        drop(store);
        let (_s, recovered) = Store::open(&dir).unwrap();
        assert_eq!(recovered.report.records_replayed, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsupported_version_is_an_error() {
        let dir = temp_dir("version");
        {
            let (_store, _) = Store::open(&dir).unwrap();
        }
        let path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 99;
        fs::write(&path, &bytes).unwrap();
        match Store::open(&dir) {
            Err(StoreError::UnsupportedVersion { file, found }) => {
                assert_eq!(file, WAL_FILE);
                assert_eq!(found, 99);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_fault_is_typed_and_leaves_the_store_recoverable() {
        let dir = temp_dir("enospc");
        {
            let (mut store, _) = Store::open(&dir).unwrap();
            store.append(&rec(1)).unwrap();
            store.set_fail_appends(true);
            match store.append(&rec(2)) {
                Err(StoreError::Append { source }) => {
                    assert_eq!(source.kind(), std::io::ErrorKind::StorageFull);
                }
                other => panic!("expected StoreError::Append, got {other:?}"),
            }
            // The store is not poisoned: syncing buffered data still works
            // and clearing the fault resumes appends.
            store.sync().unwrap();
            store.set_fail_appends(false);
            store.append(&rec(3)).unwrap();
        }
        let (_store, recovered) = Store::open(&dir).unwrap();
        assert_eq!(recovered.report.records_replayed, 2);
        assert_eq!(recovered.report.bytes_truncated, 0);
        let ns: Vec<i64> = recovered
            .records
            .iter()
            .map(|r| r.get("n").and_then(Json::as_int).unwrap())
            .collect();
        assert_eq!(ns, vec![1, 3]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_dirs_are_disjoint_stores_under_one_root() {
        let root = temp_dir("segments");
        let a_dir = segment_dir(&root, "t0");
        let b_dir = segment_dir(&root, "t1");
        assert_eq!(a_dir, root.join("tenants").join("t0"));
        {
            let (mut a, _) = Store::open(&a_dir).unwrap();
            let (mut b, _) = Store::open(&b_dir).unwrap();
            a.append(&rec(10)).unwrap();
            b.append(&rec(20)).unwrap();
            b.append(&rec(21)).unwrap();
        }
        // Corrupting one segment's log leaves the neighbour untouched.
        let a_wal = a_dir.join(WAL_FILE);
        let bytes = fs::read(&a_wal).unwrap();
        fs::write(&a_wal, &bytes[..bytes.len() - 2]).unwrap();
        let (_sa, ra) = Store::open(&a_dir).unwrap();
        let (_sb, rb) = Store::open(&b_dir).unwrap();
        assert_eq!(ra.report.records_replayed, 0);
        assert!(ra.report.bytes_truncated > 0);
        assert!(ra.report.is_lossy());
        assert_eq!(rb.report.records_replayed, 2);
        assert!(!rb.report.is_lossy());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fresh_and_reopened_stores_are_synced() {
        let dir = temp_dir("synced-open");
        {
            let (mut store, _) = Store::open(&dir).unwrap();
            assert!(store.is_synced(), "a fresh store has written nothing");
            store.append(&rec(1)).unwrap();
        }
        let (store, recovered) = Store::open(&dir).unwrap();
        assert_eq!(recovered.report.records_replayed, 1);
        assert!(store.is_synced(), "a reopened store has written nothing");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_append_unsyncs_and_sync_resyncs() {
        let dir = temp_dir("synced-append");
        let (mut store, _) = Store::open(&dir).unwrap();
        store.append(&rec(1)).unwrap();
        assert!(!store.is_synced());
        store.sync().unwrap();
        assert!(store.is_synced());
        store.sync().unwrap();
        assert!(store.is_synced(), "a clean sync keeps it synced");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_and_sync_on_append_leave_the_store_synced() {
        let dir = temp_dir("synced-compact");
        let (mut store, _) = Store::open(&dir).unwrap();
        store.append(&rec(1)).unwrap();
        store
            .compact(&Json::obj(vec![("state", Json::Int(1))]))
            .unwrap();
        assert!(store.is_synced());
        store.set_sync_on_append(true);
        store.append(&rec(2)).unwrap();
        assert!(store.is_synced());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_sync_leaves_the_store_unsynced() {
        let dir = temp_dir("synced-fail");
        let (mut store, _) = Store::open(&dir).unwrap();
        store.append(&rec(1)).unwrap();
        store.set_fail_syncs(true);
        assert!(matches!(store.sync(), Err(StoreError::Io { .. })));
        assert!(!store.is_synced());
        store.set_fail_syncs(false);
        store.sync().unwrap();
        assert!(store.is_synced());
        // A clean sync issues no fdatasync, so the injected fault cannot
        // reach it.
        store.set_fail_syncs(true);
        store.sync().unwrap();
        // A failed per-append sync is a failed append, and leaves the
        // written record unsynced.
        store.set_sync_on_append(true);
        assert!(matches!(
            store.append(&rec(2)),
            Err(StoreError::Append { .. })
        ));
        assert!(!store.is_synced());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}

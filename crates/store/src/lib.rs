//! # dl-store — append-only persistent record storage
//!
//! DispersedLedger's headline property is that a lagging or recovering
//! node retrieves missed epochs at its own pace without slowing the
//! cluster. Demonstrating that across a *process* boundary needs
//! durability: a restarted node must still hold its VID chunks, its
//! completed-block metadata and its delivered prefix. This crate is that
//! durability layer — a deliberately small write-ahead record log behind
//! the [`ChainStore`] trait, with two backends:
//!
//! - [`MemoryStore`] — an `Arc`-shared in-memory log for tests and the
//!   discrete-event simulator (the store survives a simulated crash
//!   because the *fabric* holds a clone while the engine dies).
//! - [`FileStore`] — an append-only file segment of length-prefixed,
//!   CRC-checksummed records with torn-tail truncation on open, for real
//!   `dl-node` processes.
//!
//! The crate is storage-only on purpose: records are opaque byte strings
//! here. What goes *into* a record (the `StoreRecord` write-ahead
//! vocabulary) is defined by `dl-core`, and the engine emits records
//! through its effect stream — so this crate depends on nothing and every
//! driver can reuse it.
//!
//! ## On-disk format
//!
//! A segment is a flat sequence of records, each encoded as
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC32(payload)][payload bytes]
//! ```
//!
//! On open the segment is scanned front to back; the first record whose
//! header is incomplete, whose payload is short, or whose checksum
//! mismatches marks the torn tail, and the file is truncated back to the
//! last whole record. A crash mid-append therefore loses at most the
//! record being written — never previously-synced history.

#![forbid(unsafe_code)]
// No panic path outside tests. `.expect("…")` stays for memory-store lock
// poisoning (propagating an earlier panic) and the segment scanner's
// infallible fixed-width slice-to-array conversions.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Per-record header: `u32` length + `u32` CRC32.
const RECORD_HEADER: usize = 8;

/// Maximum accepted record payload (matches the wire codec's field bound;
/// anything larger in a segment is treated as corruption).
const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// An append-only write-ahead record log.
///
/// Records are opaque bytes; ordering is the contract — `replay` returns
/// exactly the appended records, in append order, up to the last durable
/// record. Implementations must tolerate `replay` being called while the
/// store remains open for appending.
pub trait ChainStore: Send {
    /// Append one record to the log.
    fn append(&mut self, record: &[u8]) -> io::Result<()>;

    /// Make everything appended so far durable (fsync for file-backed
    /// stores; a no-op where durability is not meaningful).
    fn sync(&mut self) -> io::Result<()>;

    /// Read back every whole record, in append order.
    fn replay(&self) -> io::Result<Vec<Vec<u8>>>;
}

/// When a file-backed store fsyncs.
///
/// The policy is interpreted by the *driver* writing records, not by the
/// store: `Always` syncs after every append, `EpochBoundary` syncs when a
/// record marking a delivered epoch is written (bounding loss to the
/// epoch in progress), `Never` leaves flushing to the OS (crash-unsafe;
/// benchmarks only).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    Always,
    #[default]
    EpochBoundary,
    Never,
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "epoch" => Ok(FsyncPolicy::EpochBoundary),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!(
                "unknown fsync policy {other:?} (expected always|epoch|never)"
            )),
        }
    }
}

/// In-memory [`ChainStore`]. `Clone` shares the underlying log, so a
/// driver can keep one handle while handing another to an engine — the
/// simulator's crash/revive scenarios rely on this: the fabric's handle
/// survives the simulated process death.
#[derive(Clone, Default)]
pub struct MemoryStore {
    records: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl MemoryStore {
    pub fn new() -> MemoryStore {
        MemoryStore::default()
    }

    /// Number of records appended so far.
    pub fn len(&self) -> usize {
        self.records.lock().expect("memory store lock").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ChainStore for MemoryStore {
    fn append(&mut self, record: &[u8]) -> io::Result<()> {
        self.records
            .lock()
            .expect("memory store lock")
            .push(record.to_vec());
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn replay(&self) -> io::Result<Vec<Vec<u8>>> {
        Ok(self.records.lock().expect("memory store lock").clone())
    }
}

/// Why a segment scan stopped before the end of the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DamageKind {
    /// The file ends inside a record: the expected shape of a crash
    /// mid-append. Quietly recoverable — at most the record being written
    /// was lost.
    TornTail,
    /// A *complete* record failed its checksum, or a length header is
    /// impossible: bytes that were once durable have changed. Recovery
    /// still truncates (nothing after an untrusted record can be trusted),
    /// but this is bit rot or external interference, not a crash, and is
    /// surfaced loudly.
    Corruption,
}

/// Where and how a segment scan found damage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TailDamage {
    pub kind: DamageKind,
    /// Byte offset of the first untrusted byte (= the new end of log).
    pub offset: u64,
    /// Bytes discarded from `offset` to the end of the file.
    pub lost_bytes: u64,
}

/// Append-only file-segment [`ChainStore`] (see the crate docs for the
/// record format and torn-tail recovery semantics).
pub struct FileStore {
    path: PathBuf,
    file: File,
    /// Byte offset of the end of the last whole record.
    end: u64,
    /// Damage found (and truncated away) when the segment was opened.
    damage: Option<TailDamage>,
}

impl FileStore {
    /// Open (creating if absent) the segment at `path`, scan it for the
    /// last whole record and truncate any torn tail. Mid-log corruption —
    /// a checksum failure on a *complete* record — also stops the scan
    /// there and is reported via [`FileStore::tail_damage`], with a
    /// warning on stderr: everything after an untrusted record is
    /// untrusted.
    pub fn open(path: impl AsRef<Path>) -> io::Result<FileStore> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (end, kind) = scan_segment(&bytes, |_| {});
        let damage = kind.map(|kind| TailDamage {
            kind,
            offset: end,
            lost_bytes: bytes.len() as u64 - end,
        });
        if let Some(d) = damage {
            if d.kind == DamageKind::Corruption {
                eprintln!(
                    "dl-store: WARNING: {} is corrupt at byte {}: record fails its checksum; \
                     replay stops there and {} trailing bytes are discarded",
                    path.display(),
                    d.offset,
                    d.lost_bytes
                );
            }
            file.set_len(end)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(end))?;
        Ok(FileStore {
            path,
            file,
            end,
            damage,
        })
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of durable (whole-record) log.
    pub fn log_bytes(&self) -> u64 {
        self.end
    }

    /// Damage found at open time, if any (already truncated away).
    pub fn tail_damage(&self) -> Option<&TailDamage> {
        self.damage.as_ref()
    }
}

impl ChainStore for FileStore {
    fn append(&mut self, record: &[u8]) -> io::Result<()> {
        let len = u32::try_from(record.len())
            .ok()
            .filter(|&l| l <= MAX_RECORD_LEN)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "record too large"))?;
        let mut header = [0u8; RECORD_HEADER];
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4..].copy_from_slice(&crc32(record).to_le_bytes());
        self.file.write_all(&header)?;
        self.file.write_all(record)?;
        self.end += (RECORD_HEADER + record.len()) as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn replay(&self) -> io::Result<Vec<Vec<u8>>> {
        // Fresh read handle: replay must not disturb the append cursor.
        let mut file = File::open(&self.path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut records = Vec::new();
        scan_segment(&bytes, |payload| records.push(payload.to_vec()));
        Ok(records)
    }
}

/// Walk `bytes` record by record, calling `emit` for every whole,
/// checksum-valid record. Returns the byte offset just past the last good
/// record (i.e. where damage, if any, begins) and the classification of
/// whatever stopped the scan.
fn scan_segment(bytes: &[u8], mut emit: impl FnMut(&[u8])) -> (u64, Option<DamageKind>) {
    let mut off = 0usize;
    loop {
        let remaining = bytes.len() - off;
        if remaining == 0 {
            return (off as u64, None);
        }
        if remaining < RECORD_HEADER {
            return (off as u64, Some(DamageKind::TornTail));
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte slice"));
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4-byte slice"));
        if len > MAX_RECORD_LEN {
            // No append ever wrote such a header: the bytes changed.
            return (off as u64, Some(DamageKind::Corruption));
        }
        let start = off + RECORD_HEADER;
        let Some(end) = start
            .checked_add(len as usize)
            .filter(|&e| e <= bytes.len())
        else {
            return (off as u64, Some(DamageKind::TornTail));
        };
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            return (off as u64, Some(DamageKind::Corruption));
        }
        emit(payload);
        off = end;
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven. Small and
/// dependency-free; throughput is irrelevant next to the fsync it guards.
fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    });
    let mut crc = !0u32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dl-store-test-{}-{name}.log", std::process::id()));
        p
    }

    #[test]
    fn crc32_known_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn memory_store_roundtrip_and_sharing() {
        let mut a = MemoryStore::new();
        let b = a.clone();
        a.append(b"one").unwrap();
        a.append(b"two").unwrap();
        a.sync().unwrap();
        // The clone shares the log: a simulated crash drops the engine's
        // handle but the fabric's clone still replays everything.
        assert_eq!(b.replay().unwrap(), vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn file_store_roundtrip_across_reopen() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut store = FileStore::open(&path).unwrap();
        store.append(b"alpha").unwrap();
        store.append(b"").unwrap(); // empty records are legal
        store.append(&[0xAB; 5000]).unwrap();
        store.sync().unwrap();
        assert_eq!(store.replay().unwrap().len(), 3);
        drop(store);
        let store = FileStore::open(&path).unwrap();
        let records = store.replay().unwrap();
        assert_eq!(records[0], b"alpha");
        assert_eq!(records[1], b"");
        assert_eq!(records[2], vec![0xAB; 5000]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp_path("torn");
        let _ = std::fs::remove_file(&path);
        let mut store = FileStore::open(&path).unwrap();
        store.append(b"whole-1").unwrap();
        store.append(b"whole-2").unwrap();
        store.sync().unwrap();
        let whole_len = store.log_bytes();
        store.append(b"this record will be torn").unwrap();
        drop(store);
        // Simulate a crash mid-append: cut the file inside the last
        // record's payload.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let mut store = FileStore::open(&path).unwrap();
        assert_eq!(store.log_bytes(), whole_len, "torn tail not truncated");
        assert_eq!(
            store.replay().unwrap(),
            vec![b"whole-1".to_vec(), b"whole-2".to_vec()]
        );
        // The truncated store accepts new appends cleanly.
        store.append(b"whole-3").unwrap();
        drop(store);
        let store = FileStore::open(&path).unwrap();
        assert_eq!(
            store.replay().unwrap(),
            vec![
                b"whole-1".to_vec(),
                b"whole-2".to_vec(),
                b"whole-3".to_vec()
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_checksum_cuts_the_log_at_the_bad_record() {
        let path = tmp_path("crc");
        let _ = std::fs::remove_file(&path);
        let mut store = FileStore::open(&path).unwrap();
        store.append(b"good").unwrap();
        store.append(b"flipped").unwrap();
        store.append(b"after").unwrap();
        drop(store);
        // Flip one payload byte of the middle record.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid_payload = RECORD_HEADER + 4 + RECORD_HEADER;
        bytes[mid_payload] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        // Everything from the corrupt record on is discarded: a record is
        // only trusted if the whole prefix before it verified.
        let store = FileStore::open(&path).unwrap();
        assert_eq!(store.replay().unwrap(), vec![b"good".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversize_length_header_is_treated_as_corruption() {
        let path = tmp_path("oversize");
        let _ = std::fs::remove_file(&path);
        let mut store = FileStore::open(&path).unwrap();
        store.append(b"good").unwrap();
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let store = FileStore::open(&path).unwrap();
        assert_eq!(store.replay().unwrap(), vec![b"good".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_classified_and_reported() {
        let path = tmp_path("midlog");
        let _ = std::fs::remove_file(&path);
        let mut store = FileStore::open(&path).unwrap();
        store.append(b"good").unwrap();
        store.append(b"flipped").unwrap();
        store.append(b"after").unwrap();
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        let full_len = bytes.len() as u64;
        // Flip one bit of the middle record's CRC field.
        let mid_crc = RECORD_HEADER + 4 + 4;
        bytes[mid_crc] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let store = FileStore::open(&path).unwrap();
        assert_eq!(store.replay().unwrap(), vec![b"good".to_vec()]);
        let damage = store.tail_damage().expect("damage not reported");
        assert_eq!(damage.kind, DamageKind::Corruption);
        assert_eq!(damage.offset, (RECORD_HEADER + 4) as u64);
        assert_eq!(damage.lost_bytes, full_len - damage.offset);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_and_corruption_are_distinguished() {
        // Torn tail: file ends inside a record.
        let mut store = MemoryStore::new();
        store.append(b"x").unwrap();
        let mut bytes = Vec::new();
        for rec in [b"aaaa".as_slice(), b"bbbb".as_slice()] {
            bytes.extend_from_slice(&(rec.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(rec).to_le_bytes());
            bytes.extend_from_slice(rec);
        }
        let (off, kind) = scan_segment(&bytes[..bytes.len() - 2], |_| {});
        assert_eq!(kind, Some(DamageKind::TornTail));
        assert_eq!(off, (RECORD_HEADER + 4) as u64);
        // A bare header fragment is also a torn tail.
        let (_, kind) = scan_segment(&bytes[..RECORD_HEADER + 4 + 3], |_| {});
        assert_eq!(kind, Some(DamageKind::TornTail));
        // A clean log reports no damage.
        let (off, kind) = scan_segment(&bytes, |_| {});
        assert_eq!((off, kind), (bytes.len() as u64, None));
        // An impossible length header is corruption, not a torn tail.
        let mut oversize = bytes.clone();
        oversize[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (off, kind) = scan_segment(&oversize, |_| {});
        assert_eq!(kind, Some(DamageKind::Corruption));
        assert_eq!(off, 0);
    }

    #[test]
    fn fsync_policy_parses() {
        use std::str::FromStr;
        assert_eq!(FsyncPolicy::from_str("always"), Ok(FsyncPolicy::Always));
        assert_eq!(
            FsyncPolicy::from_str("epoch"),
            Ok(FsyncPolicy::EpochBoundary)
        );
        assert_eq!(FsyncPolicy::from_str("never"), Ok(FsyncPolicy::Never));
        assert!(FsyncPolicy::from_str("sometimes").is_err());
        assert_eq!(FsyncPolicy::default(), FsyncPolicy::EpochBoundary);
    }
}

//! The journal file: framed append, validated open, compaction.

use crate::crc32::crc32;
use dgf_xml::Element;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// The 8-byte file header: magic plus format version.
pub const FILE_HEADER: &[u8; 8] = b"DGFJRNL1";

/// Upper bound on one record's payload. A frame claiming more than this
/// is treated as a torn tail, not an allocation request — a corrupt
/// length field must never make the reader try to allocate the moon.
pub const MAX_RECORD_LEN: u32 = 256 * 1024 * 1024;

/// What a record is, derived from its element name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// `<genesis>` — configuration pin, written once at creation.
    Genesis,
    /// `<command>` — an external input; the replay script.
    Command,
    /// `<transition>` — a derived effect; verification material.
    Transition,
    /// `<checkpoint>` — live-state summary; compaction boundary.
    Checkpoint,
    /// `<busFrame>` — one inter-shard bus event (sent, received, or a
    /// federation bookkeeping mark); the `dgf-fabric` replay script.
    BusFrame,
}

impl RecordKind {
    /// The element name carrying this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::Genesis => "genesis",
            RecordKind::Command => "command",
            RecordKind::Transition => "transition",
            RecordKind::Checkpoint => "checkpoint",
            RecordKind::BusFrame => "busFrame",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "genesis" => RecordKind::Genesis,
            "command" => RecordKind::Command,
            "transition" => RecordKind::Transition,
            "checkpoint" => RecordKind::Checkpoint,
            "busFrame" => RecordKind::BusFrame,
            _ => return None,
        })
    }
}

/// One validated journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Journal sequence number; strictly increasing, with gaps after
    /// compaction (seqs are assigned once and never renumbered).
    pub seq: u64,
    /// The record's kind (mirrors `body.name`).
    pub kind: RecordKind,
    /// The record body. Attribute `seq` is stamped by the journal; all
    /// other content belongs to the engine's vocabulary.
    pub body: Element,
}

/// What `Journal::open` found on disk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenReport {
    /// True when the file did not exist (or was empty) and was created.
    pub created: bool,
    /// Valid records read.
    pub records: u64,
    /// Bytes of torn tail truncated from the end of the file — residue
    /// of a crash mid-write. Zero on a clean open.
    pub truncated_bytes: u64,
    /// Sequence number of the newest checkpoint record, if any.
    pub last_checkpoint_seq: Option<u64>,
}

/// Outcome of a compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Records kept (every record the survival rule keeps, the
    /// checkpoint, and everything after it).
    pub kept: u64,
    /// Older non-provenance transitions and stale checkpoints dropped.
    pub dropped: u64,
    /// File size before, in bytes.
    pub bytes_before: u64,
    /// File size after, in bytes.
    pub bytes_after: u64,
}

/// When appended records are fsynced.
///
/// Regardless of policy, non-transition records (genesis, commands,
/// checkpoints) are synced before `append` returns: that is the
/// write-ahead contract. The policy governs only transition batching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Sync after every record. Maximum durability, maximum latency.
    EveryRecord,
    /// Sync after every `n` unsynced transitions (and on every command).
    Batch(u32),
    /// Never sync transitions eagerly; they ride along with the next
    /// command sync or an explicit [`Journal::sync`].
    Manual,
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy::Batch(32)
    }
}

/// Journal errors. Torn tails are *not* errors — they are truncated and
/// reported via [`OpenReport`]; this type covers real I/O failures,
/// foreign files, and misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// An OS-level I/O failure, with context.
    Io(String),
    /// The file exists but does not start with the journal header.
    BadHeader(String),
    /// An append was handed a record the journal cannot frame (unknown
    /// element name, oversized payload).
    BadRecord(String),
    /// A frame the journal already wrote no longer validates, so the
    /// records after it cannot be read back. Compaction refuses to
    /// rewrite such a file rather than drop those records.
    Corrupt(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(msg) => write!(f, "journal I/O: {msg}"),
            JournalError::BadHeader(msg) => write!(f, "not a journal: {msg}"),
            JournalError::BadRecord(msg) => write!(f, "unframeable record: {msg}"),
            JournalError::Corrupt(msg) => write!(f, "journal corrupt: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(context: &str, e: std::io::Error) -> JournalError {
    JournalError::Io(format!("{context}: {e}"))
}

/// Where one frame sits in the file, and whether it outlives
/// compaction. [`Journal::open`] builds the index from the frames it
/// validates and [`Journal::append`] extends it, so compaction never
/// has to parse a payload to decide what to keep.
#[derive(Debug, Clone, Copy)]
struct Frame {
    seq: u64,
    kind: RecordKind,
    /// Kept by every compaction ([`survives_compaction`]).
    survives: bool,
    /// Byte offset of the frame's `len|crc` header.
    offset: u64,
    /// Payload length in bytes.
    len: u32,
}

impl Frame {
    /// Frame length on disk: the 8-byte `len|crc` header plus payload.
    fn span(&self) -> u64 {
        8 + self.len as u64
    }
}

/// The compaction survival rule. Genesis, commands and bus frames are
/// replay scripts; `provenance` transitions are the journal's one
/// on-disk copy of the provenance history and the source of the
/// completed-step memo; a checkpoint carrying a `<provenance>` child
/// was written by an older engine that snapshotted provenance there
/// instead. Everything else (other transitions, checkpoints) survives
/// only at or after the compaction checkpoint.
fn survives_compaction(kind: RecordKind, body: &Element) -> bool {
    match kind {
        RecordKind::Genesis | RecordKind::Command | RecordKind::BusFrame => true,
        RecordKind::Transition => body.attr("kind") == Some("provenance"),
        RecordKind::Checkpoint => body.child("provenance").is_some(),
    }
}

/// An open, appendable journal file.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    policy: SyncPolicy,
    next_seq: u64,
    /// One entry per record in the file, in file order.
    frames: Vec<Frame>,
    offset: u64,
    unsynced: u32,
    last_checkpoint_seq: Option<u64>,
    sync_calls: u64,
    sync_nanos: u64,
}

impl Journal {
    /// Open (or create) the journal at `path`.
    ///
    /// Returns the journal positioned for append, every valid record
    /// already in the file, and a report. A torn tail — a partial or
    /// corrupt final frame left by a crash — is truncated from the file
    /// before the journal is handed back, so the next append lands on a
    /// clean boundary.
    pub fn open(
        path: &Path,
        policy: SyncPolicy,
    ) -> Result<(Journal, Vec<Record>, OpenReport), JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err(&format!("open {}", path.display()), e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(|e| io_err("read", e))?;

        let mut report = OpenReport::default();
        let (records, frames, good_len) = if bytes.is_empty() {
            file.write_all(FILE_HEADER).map_err(|e| io_err("write header", e))?;
            file.sync_data().map_err(|e| io_err("sync header", e))?;
            report.created = true;
            (Vec::new(), Vec::new(), FILE_HEADER.len() as u64)
        } else {
            let (records, frames, good) = parse_frames(&bytes)?;
            if good < bytes.len() as u64 {
                report.truncated_bytes = bytes.len() as u64 - good;
                file.set_len(good).map_err(|e| io_err("truncate torn tail", e))?;
                file.sync_data().map_err(|e| io_err("sync truncation", e))?;
            }
            (records, frames, good)
        };
        report.records = records.len() as u64;
        report.last_checkpoint_seq = last_checkpoint(&frames);
        file.seek(SeekFrom::Start(good_len)).map_err(|e| io_err("seek", e))?;

        let journal = Journal {
            path: path.to_owned(),
            file,
            policy,
            next_seq: records.last().map(|r| r.seq + 1).unwrap_or(1),
            frames,
            offset: good_len,
            unsynced: 0,
            last_checkpoint_seq: report.last_checkpoint_seq,
            sync_calls: 0,
            sync_nanos: 0,
        };
        Ok((journal, records, report))
    }

    /// Read a journal without opening it for append and without
    /// modifying the file; a torn tail is reported, not truncated.
    pub fn read(path: &Path) -> Result<(Vec<Record>, OpenReport), JournalError> {
        let bytes =
            fs::read(path).map_err(|e| io_err(&format!("read {}", path.display()), e))?;
        if bytes.is_empty() {
            return Ok((Vec::new(), OpenReport { created: true, ..Default::default() }));
        }
        let (records, frames, good) = parse_frames(&bytes)?;
        let report = OpenReport {
            created: false,
            records: records.len() as u64,
            truncated_bytes: bytes.len() as u64 - good,
            last_checkpoint_seq: last_checkpoint(&frames),
        };
        Ok((records, report))
    }

    /// Append one record. `body.name` must be one of the four journal
    /// element names; the journal stamps a `seq` attribute and returns
    /// the assigned sequence number. Durability follows the write-ahead
    /// contract described on [`SyncPolicy`].
    pub fn append(&mut self, mut body: Element) -> Result<u64, JournalError> {
        let kind = RecordKind::from_name(&body.name).ok_or_else(|| {
            JournalError::BadRecord(format!(
                "element <{}> is not a journal record (want genesis/command/transition/checkpoint/busFrame)",
                body.name
            ))
        })?;
        let seq = self.next_seq;
        body.set_attr("seq", seq.to_string());
        let payload = body.to_xml().into_bytes();
        if payload.len() as u64 > MAX_RECORD_LEN as u64 {
            return Err(JournalError::BadRecord(format!(
                "payload of {} bytes exceeds the {} byte frame limit",
                payload.len(),
                MAX_RECORD_LEN
            )));
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame).map_err(|e| io_err("append", e))?;
        self.frames.push(Frame {
            seq,
            kind,
            survives: survives_compaction(kind, &body),
            offset: self.offset,
            len: payload.len() as u32,
        });
        self.offset += frame.len() as u64;
        self.next_seq += 1;
        if kind == RecordKind::Checkpoint {
            self.last_checkpoint_seq = Some(seq);
        }
        let sync_now = kind != RecordKind::Transition
            || match self.policy {
                SyncPolicy::EveryRecord => true,
                SyncPolicy::Batch(n) => self.unsynced + 1 >= n.max(1),
                SyncPolicy::Manual => false,
            };
        if sync_now {
            self.sync()?;
        } else {
            self.unsynced += 1;
        }
        Ok(seq)
    }

    /// Force any batched transitions to disk.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "fsync wall-time attribution for take_sync_profile is report-only; journal bytes and replay never depend on it"
        )]
        let started = std::time::Instant::now();
        self.file.sync_data().map_err(|e| io_err("sync", e))?;
        self.sync_calls += 1;
        self.sync_nanos += started.elapsed().as_nanos() as u64;
        self.unsynced = 0;
        Ok(())
    }

    /// Drain the fsync cost accumulated since the last call as
    /// `(calls, wall_nanos)`. Every [`Journal::sync`] — whether forced
    /// by the [`SyncPolicy`] during [`Journal::append`] or issued
    /// directly — is counted, so a caller polling after each append
    /// attributes fsync cost exactly once. Wall time is report-only:
    /// it varies between runs and must never feed deterministic state.
    pub fn take_sync_profile(&mut self) -> (u64, u64) {
        let taken = (self.sync_calls, self.sync_nanos);
        self.sync_calls = 0;
        self.sync_nanos = 0;
        taken
    }

    /// Compact the journal at a checkpoint boundary: keep every record
    /// the survival rule keeps (genesis, commands, bus frames,
    /// `provenance` transitions, and checkpoints that still embed a
    /// `<provenance>` snapshot), the checkpoint at `checkpoint_seq`,
    /// and every record after it; drop older transitions and stale
    /// checkpoints. The crate documentation states the rule.
    ///
    /// Compaction works from the frame index and never parses a
    /// payload: it checks the length and CRC of every frame in the
    /// file, then copies the kept frames' bytes verbatim into a new
    /// file beside the old one, renames it over the journal and fsyncs
    /// the directory, so the rename survives a power loss.
    ///
    /// Fails with [`JournalError::Corrupt`], leaving the file as it
    /// was, when any frame no longer validates — kept or not: a
    /// rewrite would either carry the damage forward or silently drop
    /// every record after it.
    pub fn compact(&mut self, checkpoint_seq: u64) -> Result<CompactStats, JournalError> {
        self.sync()?;
        let bytes =
            fs::read(&self.path).map_err(|e| io_err(&format!("read {}", self.path.display()), e))?;
        check_header(&bytes)?;
        if let Some(bad) = self.frames.iter().find(|f| !frame_intact(&bytes, f)) {
            return Err(JournalError::Corrupt(format!(
                "{}: the frame at byte {} (seq {}) fails validation, {} of {} written bytes unreadable",
                self.path.display(),
                bad.offset,
                bad.seq,
                self.offset - bad.offset,
                self.offset
            )));
        }
        let bytes_before = self.offset;
        let tmp = self.path.with_extension("compact-tmp");
        let kept = write_kept_frames(&tmp, &bytes, &self.frames, checkpoint_seq).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })?;
        fs::rename(&tmp, &self.path).map_err(|e| io_err("rename compacted file", e))?;

        self.file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err("reopen after compaction", e))?;
        self.offset = self.file.seek(SeekFrom::End(0)).map_err(|e| io_err("seek", e))?;
        let dropped = (self.frames.len() - kept.len()) as u64;
        self.frames = kept;
        self.unsynced = 0;
        sync_parent_dir(&self.path)?;
        Ok(CompactStats {
            kept: self.frames.len() as u64,
            dropped,
            bytes_before,
            bytes_after: self.offset,
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The sequence number of the last appended record, if any.
    pub fn last_seq(&self) -> Option<u64> {
        if self.next_seq > 1 {
            Some(self.next_seq - 1)
        } else {
            None
        }
    }

    /// Records currently in the file (after any compaction).
    pub fn records_in_file(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Current file size in bytes — the journal position.
    pub fn bytes(&self) -> u64 {
        self.offset
    }

    /// Seq of the newest checkpoint in the file, if any.
    pub fn last_checkpoint_seq(&self) -> Option<u64> {
        self.last_checkpoint_seq
    }

    /// Crash-simulation and surgery helper: truncate the file at `path`
    /// so only the first `keep` records remain. Returns the number of
    /// records actually kept (≤ `keep`).
    pub fn truncate_records(path: &Path, keep: usize) -> Result<usize, JournalError> {
        let bytes =
            fs::read(path).map_err(|e| io_err(&format!("read {}", path.display()), e))?;
        let (_, frames, good) = parse_frames(&bytes)?;
        let kept = keep.min(frames.len());
        let cut = frames.get(kept).map(|f| f.offset).unwrap_or(good);
        let f = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("open for truncate", e))?;
        f.set_len(cut).map_err(|e| io_err("truncate", e))?;
        f.sync_data().map_err(|e| io_err("sync", e))?;
        Ok(kept)
    }
}

/// Seq of the newest checkpoint among `frames`.
fn last_checkpoint(frames: &[Frame]) -> Option<u64> {
    frames.iter().rev().find(|f| f.kind == RecordKind::Checkpoint).map(|f| f.seq)
}

/// Does `frame` still hold, in the file image `bytes`, the length and
/// CRC it was written with?
fn frame_intact(bytes: &[u8], frame: &Frame) -> bool {
    let start = frame.offset as usize;
    let Some(on_disk) = bytes.get(start..start + frame.span() as usize) else { return false };
    on_disk[..4] == frame.len.to_le_bytes() && on_disk[4..8] == crc32(&on_disk[8..]).to_le_bytes()
}

/// Write a compacted journal to `tmp` and fsync it: the header, then —
/// verbatim from the verified file image `bytes` — every frame that
/// survives compaction at `checkpoint_seq`. Returns the kept frames,
/// re-based to their offsets in the new file.
fn write_kept_frames(
    tmp: &Path,
    bytes: &[u8],
    frames: &[Frame],
    checkpoint_seq: u64,
) -> Result<Vec<Frame>, JournalError> {
    let file = File::create(tmp).map_err(|e| io_err(&format!("create {}", tmp.display()), e))?;
    let mut out = BufWriter::with_capacity(1 << 16, file);
    out.write_all(FILE_HEADER).map_err(|e| io_err("write header", e))?;
    let mut kept = Vec::with_capacity(frames.len());
    let mut offset = FILE_HEADER.len() as u64;
    for f in frames.iter().filter(|f| f.survives || f.seq >= checkpoint_seq) {
        let start = f.offset as usize;
        out.write_all(&bytes[start..start + f.span() as usize])
            .map_err(|e| io_err("write compacted frame", e))?;
        kept.push(Frame { offset, ..*f });
        offset += f.span();
    }
    let file = out.into_inner().map_err(|e| io_err("flush compacted file", e.into_error()))?;
    file.sync_data().map_err(|e| io_err("sync compacted file", e))?;
    Ok(kept)
}

/// fsync the directory holding `path`, so a rename into it is durable:
/// without this, a power loss can bring back the old directory entry
/// and, with it, the pre-compaction file.
fn sync_parent_dir(path: &Path) -> Result<(), JournalError> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err(&format!("sync directory {}", dir.display()), e))
}

/// Refuse a byte image that does not start with the journal header.
fn check_header(bytes: &[u8]) -> Result<(), JournalError> {
    if bytes.len() < FILE_HEADER.len() || &bytes[..FILE_HEADER.len()] != FILE_HEADER {
        return Err(JournalError::BadHeader(format!(
            "missing {:?} header",
            String::from_utf8_lossy(FILE_HEADER)
        )));
    }
    Ok(())
}

/// Parse the byte image of a journal: header, then frames until the
/// first violation. Returns the valid records, their frame index, and
/// the byte offset of the end of the last valid frame (everything past
/// it is torn tail).
fn parse_frames(bytes: &[u8]) -> Result<(Vec<Record>, Vec<Frame>, u64), JournalError> {
    check_header(bytes)?;
    let mut records = Vec::new();
    let mut frames = Vec::new();
    let mut off = FILE_HEADER.len();
    let mut last_seq = 0u64;
    while bytes.len() - off >= 8 {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            break; // corrupt length field
        }
        let len = len as usize;
        if bytes.len() - off - 8 < len {
            break; // short frame: torn mid-payload
        }
        let payload = &bytes[off + 8..off + 8 + len];
        if crc32(payload) != crc {
            break; // payload bit-rot or torn mid-frame
        }
        let Ok(text) = std::str::from_utf8(payload) else { break };
        let Ok(body) = dgf_xml::parse(text) else { break };
        let Some(kind) = RecordKind::from_name(&body.name) else { break };
        let Some(seq) = body.attr("seq").and_then(|s| s.parse::<u64>().ok()) else { break };
        if seq <= last_seq {
            break; // seqs are strictly increasing; anything else is corruption
        }
        last_seq = seq;
        let survives = survives_compaction(kind, &body);
        frames.push(Frame { seq, kind, survives, offset: off as u64, len: len as u32 });
        records.push(Record { seq, kind, body });
        off += 8 + len;
    }
    Ok((records, frames, off as u64))
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests write journals into the host's temp dir; test code never replays")]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "dgf-journal-test-{}-{name}-{n}.jrnl",
            std::process::id()
        ))
    }

    fn cmd(kind: &str) -> Element {
        Element::new("command").with_attr("kind", kind)
    }

    fn trans(what: &str) -> Element {
        Element::new("transition").with_attr("kind", what)
    }

    #[test]
    fn append_reopen_round_trip() {
        let p = tmp("roundtrip");
        let (mut j, recs, report) = Journal::open(&p, SyncPolicy::EveryRecord).unwrap();
        assert!(report.created && recs.is_empty());
        assert_eq!(j.append(Element::new("genesis").with_attr("label", "g")).unwrap(), 1);
        assert_eq!(j.append(cmd("pump")).unwrap(), 2);
        assert_eq!(j.append(trans("step.start")).unwrap(), 3);
        drop(j);

        let (j2, recs, report) = Journal::open(&p, SyncPolicy::default()).unwrap();
        assert!(!report.created);
        assert_eq!(report.records, 3);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].kind, RecordKind::Genesis);
        assert_eq!(recs[1].body.attr("kind"), Some("pump"));
        assert_eq!(recs[2].seq, 3);
        assert_eq!(j2.next_seq(), 4);
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let p = tmp("torn");
        let (mut j, _, _) = Journal::open(&p, SyncPolicy::EveryRecord).unwrap();
        for i in 0..5 {
            j.append(cmd(&format!("c{i}"))).unwrap();
        }
        let full = j.bytes();
        drop(j);
        // Tear the file at every byte length between records 3 and 5:
        // reopen must always surface exactly the intact prefix.
        let bytes = fs::read(&p).unwrap();
        let mut boundaries = vec![FILE_HEADER.len()];
        let mut off = FILE_HEADER.len();
        while off < bytes.len() {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            off += 8 + len;
            boundaries.push(off);
        }
        assert_eq!(boundaries.len(), 6);
        for cut in boundaries[3] + 1..full as usize {
            fs::write(&p, &bytes[..cut]).unwrap();
            let (_, recs, report) = Journal::open(&p, SyncPolicy::default()).unwrap();
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(recs.len(), whole, "cut at byte {cut}");
            assert!(report.truncated_bytes > 0 || boundaries.contains(&cut));
            // After open, the file itself holds only the valid prefix.
            assert_eq!(fs::metadata(&p).unwrap().len() as usize, boundaries[whole]);
        }
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn corrupt_crc_truncates_from_the_flip() {
        let p = tmp("crc");
        let (mut j, _, _) = Journal::open(&p, SyncPolicy::EveryRecord).unwrap();
        for i in 0..4 {
            j.append(cmd(&format!("c{i}"))).unwrap();
        }
        drop(j);
        let mut bytes = fs::read(&p).unwrap();
        // Flip one payload byte inside the third record.
        let mut off = FILE_HEADER.len();
        for _ in 0..2 {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            off += 8 + len;
        }
        bytes[off + 12] ^= 0x40;
        fs::write(&p, &bytes).unwrap();
        let (_, recs, report) = Journal::open(&p, SyncPolicy::default()).unwrap();
        assert_eq!(recs.len(), 2, "records after the corrupt one are unreachable");
        assert!(report.truncated_bytes > 0);
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn foreign_files_are_rejected() {
        let p = tmp("foreign");
        fs::write(&p, b"<provenance/>").unwrap();
        match Journal::open(&p, SyncPolicy::default()) {
            Err(JournalError::BadHeader(_)) => {}
            other => panic!("expected BadHeader, got {other:?}"),
        }
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn unknown_elements_are_unframeable() {
        let p = tmp("badrec");
        let (mut j, _, _) = Journal::open(&p, SyncPolicy::default()).unwrap();
        match j.append(Element::new("telemetry")) {
            Err(JournalError::BadRecord(_)) => {}
            other => panic!("expected BadRecord, got {other:?}"),
        }
        drop(j);
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn compaction_keeps_commands_and_tail() {
        let p = tmp("compact");
        let (mut j, _, _) = Journal::open(&p, SyncPolicy::EveryRecord).unwrap();
        j.append(Element::new("genesis").with_attr("label", "g")).unwrap();
        j.append(cmd("submit")).unwrap(); // seq 2
        for i in 0..10 {
            j.append(trans(&format!("s{i}"))).unwrap(); // 3..=12
        }
        let ck = j.append(Element::new("checkpoint")).unwrap(); // 13
        j.append(cmd("pump")).unwrap(); // 14
        j.append(trans("after")).unwrap(); // 15
        let before = j.records_in_file();
        let stats = j.compact(ck).unwrap();
        assert_eq!(before, 15);
        assert_eq!(stats.dropped, 10, "pre-checkpoint transitions dropped");
        assert_eq!(stats.kept, 5, "genesis + 2 commands + checkpoint + tail transition");
        assert!(stats.bytes_after < stats.bytes_before);
        assert_eq!(j.last_checkpoint_seq(), Some(ck));

        // Appends continue with un-renumbered seqs and the file reopens.
        let s = j.append(cmd("resume")).unwrap();
        assert_eq!(s, 16);
        drop(j);
        let (_, recs, report) = Journal::open(&p, SyncPolicy::default()).unwrap();
        assert_eq!(report.truncated_bytes, 0);
        let seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 13, 14, 15, 16]);
        assert_eq!(report.last_checkpoint_seq, Some(13));
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn compaction_refuses_a_corrupt_middle_frame() {
        let p = tmp("compact-corrupt");
        let (mut j, _, _) = Journal::open(&p, SyncPolicy::EveryRecord).unwrap();
        j.append(Element::new("genesis").with_attr("label", "g")).unwrap(); // 1
        j.append(cmd("submit")).unwrap(); // 2
        j.append(trans("step.done")).unwrap(); // 3
        j.append(cmd("pump")).unwrap(); // 4
        j.append(cmd("stop")).unwrap(); // 5
        let ck = j.append(Element::new("checkpoint")).unwrap(); // 6
        // Flip one payload byte inside the transition frame (seq 3).
        let mut bytes = fs::read(&p).unwrap();
        let mut off = FILE_HEADER.len();
        for _ in 0..2 {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            off += 8 + len;
        }
        bytes[off + 12] ^= 0x40;
        fs::write(&p, &bytes).unwrap();

        match j.compact(ck) {
            Err(JournalError::Corrupt(msg)) => assert!(msg.contains("fails validation"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(fs::read(&p).unwrap(), bytes, "the journal is left byte-identical");
        assert!(!p.with_extension("compact-tmp").exists());
        drop(j);
        // The damage stays visible to the next open.
        let (_, recs, report) = Journal::open(&p, SyncPolicy::default()).unwrap();
        assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert!(report.truncated_bytes > 0);
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn truncate_records_cuts_on_boundaries() {
        let p = tmp("cut");
        let (mut j, _, _) = Journal::open(&p, SyncPolicy::EveryRecord).unwrap();
        for i in 0..6 {
            j.append(cmd(&format!("c{i}"))).unwrap();
        }
        drop(j);
        assert_eq!(Journal::truncate_records(&p, 4).unwrap(), 4);
        let (recs, report) = Journal::read(&p).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(Journal::truncate_records(&p, 99).unwrap(), 4, "keep is clamped");
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn manual_policy_batches_until_sync() {
        let p = tmp("manual");
        let (mut j, _, _) = Journal::open(&p, SyncPolicy::Manual).unwrap();
        j.append(trans("a")).unwrap();
        j.append(trans("b")).unwrap();
        j.sync().unwrap();
        j.append(cmd("pump")).unwrap(); // commands sync themselves
        drop(j);
        let (recs, _) = Journal::read(&p).unwrap();
        assert_eq!(recs.len(), 3);
        fs::remove_file(&p).unwrap();
    }

    fn provenance(node: &str) -> Element {
        Element::new("transition").with_attr("kind", "provenance").with_child(
            Element::new("record").with_attr("node", node).with_attr("outcome", "completed"),
        )
    }

    /// The raw bytes of every frame in a journal image, in file order.
    fn frames_of(bytes: &[u8]) -> Vec<&[u8]> {
        let mut frames = Vec::new();
        let mut off = FILE_HEADER.len();
        while off < bytes.len() {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            frames.push(&bytes[off..off + 8 + len]);
            off += 8 + len;
        }
        frames
    }

    #[test]
    fn compaction_copies_kept_frames_verbatim_and_keeps_provenance() {
        let p = tmp("verbatim");
        let (mut j, _, _) = Journal::open(&p, SyncPolicy::EveryRecord).unwrap();
        j.append(Element::new("genesis").with_attr("label", "g")).unwrap(); // 1
        j.append(cmd("submit")).unwrap(); // 2
        j.append(trans("step.start")).unwrap(); // 3
        j.append(provenance("/0")).unwrap(); // 4
        // A checkpoint written before checkpoints stopped embedding a
        // provenance snapshot: the only copy of that history.
        let legacy = Element::new("checkpoint")
            .with_child(Element::new("provenance").with_child(Element::new("record")));
        j.append(legacy).unwrap(); // 5
        j.append(trans("binding")).unwrap(); // 6
        j.append(Element::new("checkpoint")).unwrap(); // 7: stale
        j.append(cmd("pump")).unwrap(); // 8
        j.append(provenance("/1")).unwrap(); // 9
        j.append(trans("step.start")).unwrap(); // 10
        let ck = j.append(Element::new("checkpoint")).unwrap(); // 11
        j.append(trans("after")).unwrap(); // 12

        let before = fs::read(&p).unwrap();
        let frames = frames_of(&before);
        let kept_seqs = [1u64, 2, 4, 5, 8, 9, 11, 12];
        let mut expected = FILE_HEADER.to_vec();
        for seq in kept_seqs {
            expected.extend_from_slice(frames[seq as usize - 1]);
        }
        let stats = j.compact(ck).unwrap();
        assert_eq!((stats.kept, stats.dropped), (8, 4));
        assert_eq!(fs::read(&p).unwrap(), expected, "kept frames are copied byte for byte");
        assert_eq!(stats.bytes_after, expected.len() as u64);
        assert_eq!(j.records_in_file(), 8);

        // The rebased index keeps appends and reopens consistent.
        assert_eq!(j.append(cmd("resume")).unwrap(), 13);
        drop(j);
        let (_, recs, report) = Journal::open(&p, SyncPolicy::default()).unwrap();
        assert_eq!(report.truncated_bytes, 0);
        let seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 4, 5, 8, 9, 11, 12, 13]);
        let provenance_kept =
            recs.iter().filter(|r| r.body.attr("kind") == Some("provenance")).count();
        assert_eq!(provenance_kept, 2, "provenance transitions survive compaction");
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn compaction_refuses_a_corrupt_kept_frame() {
        let p = tmp("compact-corrupt-kept");
        let (mut j, _, _) = Journal::open(&p, SyncPolicy::EveryRecord).unwrap();
        j.append(Element::new("genesis").with_attr("label", "g")).unwrap(); // 1
        j.append(cmd("submit")).unwrap(); // 2
        j.append(trans("step.done")).unwrap(); // 3
        j.append(cmd("pump")).unwrap(); // 4
        let ck = j.append(Element::new("checkpoint")).unwrap(); // 5
        // Flip one payload byte inside the submit command (seq 2), a
        // frame compaction would keep.
        let mut bytes = fs::read(&p).unwrap();
        let at = FILE_HEADER.len() + frames_of(&bytes)[0].len() + 12;
        bytes[at] ^= 0x40;
        fs::write(&p, &bytes).unwrap();

        match j.compact(ck) {
            Err(JournalError::Corrupt(msg)) => {
                assert!(msg.contains("fails validation") && msg.contains("seq 2"), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(fs::read(&p).unwrap(), bytes, "the journal is left byte-identical");
        assert!(!p.with_extension("compact-tmp").exists());
        drop(j);
        let (_, recs, _) = Journal::open(&p, SyncPolicy::default()).unwrap();
        assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1]);
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn compacting_a_reopened_journal_matches_compacting_the_live_one() {
        let live = tmp("index-live");
        let reopened = tmp("index-reopened");
        let (mut j, _, _) = Journal::open(&live, SyncPolicy::Batch(4)).unwrap();
        j.append(Element::new("genesis").with_attr("label", "g")).unwrap();
        for i in 0..6 {
            j.append(cmd(&format!("c{i}"))).unwrap();
            j.append(trans("step.start")).unwrap();
            j.append(provenance(&format!("/{i}"))).unwrap();
            if i % 2 == 1 {
                j.append(Element::new("checkpoint").with_attr("i", i.to_string())).unwrap();
            }
        }
        let ck = j.append(Element::new("checkpoint")).unwrap();
        j.append(trans("tail")).unwrap();
        j.sync().unwrap();
        fs::copy(&live, &reopened).unwrap();

        // The index `append` built and the one `open` rebuilds from the
        // same bytes must compact to the same bytes, twice over.
        let (mut r, _, _) = Journal::open(&reopened, SyncPolicy::Batch(4)).unwrap();
        assert_eq!(j.compact(ck).unwrap(), r.compact(ck).unwrap());
        assert_eq!(fs::read(&live).unwrap(), fs::read(&reopened).unwrap());
        for journal in [&mut j, &mut r] {
            journal.append(cmd("more")).unwrap();
            journal.append(provenance("/more")).unwrap();
        }
        let ck2 = j.append(Element::new("checkpoint")).unwrap();
        assert_eq!(r.append(Element::new("checkpoint")).unwrap(), ck2);
        assert_eq!(j.compact(ck2).unwrap(), r.compact(ck2).unwrap());
        assert_eq!(fs::read(&live).unwrap(), fs::read(&reopened).unwrap());
        drop((j, r));
        fs::remove_file(&live).unwrap();
        fs::remove_file(&reopened).unwrap();
    }
}

//! The segmented write-ahead log.
//!
//! Every acknowledged mutation (insert/upsert or delete) is appended to the
//! log *before* it is applied to the in-memory component. On restart the log
//! is replayed into a fresh memtable, restoring exactly the acknowledged
//! records that had not yet been flushed.
//!
//! ## Segments
//!
//! The log is a sequence of *segments*, one file each. Appends go to the
//! *active* segment; when the dataset seals its memtable for a background
//! flush it calls [`Wal::rotate`], which closes the active segment and opens
//! a fresh one. The sealed memtable's records are thereby confined to
//! segments up to the rotated id, so once the flush's manifest commits, those
//! segments — and only those — can be deleted with [`Wal::remove_through`]
//! while concurrent writers keep appending to the new active segment. This is
//! what makes "the WAL is truncated only after the flush manifest commits"
//! compatible with flushes running on background worker threads.
//!
//! Segment `N` is the file `wal-NNNNNN.log`.
//!
//! ## Frame format
//!
//! Each record is one self-delimiting frame:
//!
//! ```text
//! [payload length: u32 LE] [crc32(payload): u32 LE] [payload bytes]
//! ```
//!
//! and the payload is a tag byte (insert/delete) followed by the key (and,
//! for inserts, the record) in the VB row format — the same single-pass
//! value serialisation components use, so the WAL round-trips every document
//! the engine accepts.
//!
//! ## Staged frames
//!
//! Appending a frame does not write it: [`Wal::append_insert`] and
//! [`Wal::append_delete`] encode it in place at the end of the log's one
//! reusable buffer, and [`Wal::write_pending`] hands every staged frame to
//! the operating system with a single `write`. [`Wal::sync`] and
//! [`Wal::rotate`] write the staged frames first, so an fsync covers every
//! frame appended before it and a sealed segment holds every frame appended
//! before the seal. A batch of records therefore costs one `write` however many frames it holds.
//!
//! Dropping a `Wal` does **not** write its staged frames: they are lost
//! exactly as a process crash (`kill -9`) would lose them. Callers write
//! (or sync) before they acknowledge anything.
//!
//! ## Torn writes
//!
//! A crash can leave a partial frame at the tail of a segment. Replay stops
//! at the first frame whose length or CRC does not check out. When no whole
//! frame follows it in the newest segment, it is a torn tail: replay
//! *truncates the segment back to the last good frame boundary* and reports
//! the records read so far — everything before it was acknowledged and
//! must survive; everything from the torn frame on was never acknowledged.
//! A bad frame with a whole frame after it, or a bad frame in an older
//! segment, is damage to acknowledged history (a flipped bit, not a crash):
//! [`Wal::open`] returns an error and leaves the segment as it found it.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use docmodel::Value;
use encoding::crc::crc32;
use storage::RowFormat;
use telemetry::stage::Stage;

use crate::{PersistError, Result};

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Insert (or upsert) of `record` under `key`.
    Insert {
        /// Primary key.
        key: Value,
        /// The full document.
        record: Value,
    },
    /// Delete of `key` (an anti-matter entry in the memtable).
    Delete {
        /// Primary key.
        key: Value,
    },
}

impl WalRecord {
    fn decode(payload: &[u8]) -> Result<WalRecord> {
        let (&tag, rest) = payload
            .split_first()
            .ok_or_else(|| PersistError::new("empty WAL payload"))?;
        let mut pos = 0;
        match tag {
            TAG_INSERT => {
                let key = RowFormat::Vb.deserialize(rest, &mut pos)?;
                let record = RowFormat::Vb.deserialize(rest, &mut pos)?;
                Ok(WalRecord::Insert { key, record })
            }
            TAG_DELETE => {
                let key = RowFormat::Vb.deserialize(rest, &mut pos)?;
                Ok(WalRecord::Delete { key })
            }
            other => Err(PersistError::new(format!("unknown WAL record tag {other}"))),
        }
    }
}

/// File name of segment `id` within the dataset directory.
pub fn segment_file_name(id: u64) -> String {
    format!("wal-{id:06}.log")
}

fn parse_segment_id(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// A sealed, append-closed segment awaiting removal after a flush commit.
#[derive(Debug)]
struct SealedSegment {
    id: u64,
    path: PathBuf,
    len: u64,
}

/// What [`Wal::open`] found in the directory: the replayed records plus
/// the recovery summary the telemetry layer reports (how many segment
/// files were scanned, whether a torn tail had to be truncated).
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Acknowledged records not yet covered by a component, oldest first.
    pub records: Vec<WalRecord>,
    /// Segment files scanned (and replayed) at open.
    pub segments_replayed: usize,
    /// Whether a torn tail (partial frame from a crash mid-append) was
    /// truncated off the newest segment.
    pub torn_tail_healed: bool,
}

/// The segmented write-ahead log of one dataset directory.
///
/// Appends stage frames in memory; [`Wal::write_pending`], [`Wal::sync`]
/// and [`Wal::rotate`] write them (see the module docs). A `Wal` dropped
/// with frames staged loses them, as a crash would.
pub struct Wal {
    dir: PathBuf,
    /// Sealed segments, oldest first.
    sealed: Vec<SealedSegment>,
    active_id: u64,
    active_path: PathBuf,
    active_file: File,
    /// Bytes of the active segment's frames, staged ones included.
    active_len: u64,
    /// Frames appended to the active segment but not yet written, back to
    /// back; cleared (capacity kept) by every write.
    pending: Vec<u8>,
}

/// The whole frame at byte `pos` of a segment — its body present, its CRC
/// checked and its record decoded — and where it ends.
fn frame_at(bytes: &[u8], pos: usize) -> Option<(WalRecord, usize)> {
    let header = bytes.get(pos..pos.checked_add(8)?)?;
    let (len, crc) = header.split_at(4);
    let len = u32::from_le_bytes(len.try_into().ok()?) as usize;
    let end = (pos + 8).checked_add(len)?;
    let payload = bytes.get(pos + 8..end)?;
    if crc32(payload) != u32::from_le_bytes(crc.try_into().ok()?) {
        return None;
    }
    Some((WalRecord::decode(payload).ok()?, end))
}

/// Parse the valid frame prefix of one segment's bytes. Returns the decoded
/// records and the byte offset of the last good frame boundary.
fn parse_frames(bytes: &[u8], records: &mut Vec<WalRecord>) -> usize {
    let mut pos = 0;
    while let Some((record, end)) = frame_at(bytes, pos) {
        records.push(record);
        pos = end;
    }
    pos
}

/// Whether a whole frame starts anywhere after the bad frame at `bad`: then
/// the bad frame is damage to acknowledged history, not a torn tail.
fn frame_follows(bytes: &[u8], bad: usize) -> bool {
    (bad + 1..bytes.len()).any(|pos| frame_at(bytes, pos).is_some())
}

impl Wal {
    /// Open (or create) the log in `dir` and replay the valid prefix of every
    /// segment, oldest first. Returns the log positioned for appending to the
    /// newest segment and the replay (records + recovery summary).
    pub fn open(dir: &Path) -> Result<(Wal, WalReplay)> {
        let mut ids: Vec<u64> = Vec::new();
        let entries = std::fs::read_dir(dir)
            .map_err(|e| PersistError::new(format!("list WAL dir {}: {e}", dir.display())))?;
        for entry in entries {
            let entry = entry.map_err(|e| PersistError::new(format!("list WAL dir: {e}")))?;
            if let Some(id) = entry.file_name().to_str().and_then(parse_segment_id) {
                ids.push(id);
            }
        }
        ids.sort_unstable();

        let mut records = Vec::new();
        let mut sealed = Vec::new();
        let mut heal: Option<(PathBuf, u64)> = None;
        let mut torn_tail_healed = false;
        for (i, &id) in ids.iter().enumerate() {
            let path = dir.join(segment_file_name(id));
            let bytes = std::fs::read(&path)
                .map_err(|e| PersistError::new(format!("read WAL {}: {e}", path.display())))?;
            let good_end = parse_frames(&bytes, &mut records);
            if good_end < bytes.len() && (i + 1 < ids.len() || frame_follows(&bytes, good_end)) {
                // A torn frame is only expected at the tail of the *newest*
                // segment (a crash mid-append), with nothing whole after it.
                // Otherwise the acknowledged history is damaged — refuse to
                // guess, and leave the segment as it is.
                return Err(PersistError::new(format!(
                    "WAL segment {} is corrupt at byte {good_end}, before acknowledged frames",
                    path.display()
                )));
            }
            if i + 1 < ids.len() {
                sealed.push(SealedSegment {
                    id,
                    path,
                    len: good_end as u64,
                });
            } else {
                torn_tail_healed = good_end < bytes.len();
                heal = Some((path, good_end as u64));
            }
        }

        let active_id = ids.last().copied().unwrap_or(0);
        let active_path = dir.join(segment_file_name(active_id));
        let active_file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&active_path)
            .map_err(|e| PersistError::new(format!("open WAL {}: {e}", active_path.display())))?;
        let active_len = heal.as_ref().map(|(_, len)| *len).unwrap_or(0);
        // Drop any torn tail so appends continue from a clean boundary.
        active_file
            .set_len(active_len)
            .map_err(|e| PersistError::new(format!("truncate torn WAL tail: {e}")))?;
        let mut active_file = active_file;
        active_file
            .seek(SeekFrom::Start(active_len))
            .map_err(|e| PersistError::new(format!("seek WAL: {e}")))?;

        Ok((
            Wal {
                dir: dir.to_path_buf(),
                sealed,
                active_id,
                active_path,
                active_file,
                active_len,
                pending: Vec::new(),
            },
            WalReplay {
                records,
                segments_replayed: ids.len(),
                torn_tail_healed,
            },
        ))
    }

    /// Stage an insert frame without materialising a [`WalRecord`] (the
    /// ingest hot path logs borrowed values). Nothing is written until
    /// [`Wal::write_pending`], [`Wal::sync`] or [`Wal::rotate`]; staging
    /// itself cannot fail.
    pub fn append_insert(&mut self, key: &Value, record: &Value) -> Result<()> {
        self.stage(TAG_INSERT, key, Some(record));
        Ok(())
    }

    /// Stage a delete frame, like [`Wal::append_insert`].
    pub fn append_delete(&mut self, key: &Value) -> Result<()> {
        self.stage(TAG_DELETE, key, None);
        Ok(())
    }

    /// Encode one frame in place at the end of the staging buffer: a header
    /// placeholder, the payload, then the header patched with the payload's
    /// length and CRC.
    fn stage(&mut self, tag: u8, key: &Value, record: Option<&Value>) {
        let start = self.pending.len();
        self.pending.extend_from_slice(&[0; 8]);
        self.pending.push(tag);
        RowFormat::Vb.serialize(key, &mut self.pending);
        if let Some(record) = record {
            RowFormat::Vb.serialize(record, &mut self.pending);
        }
        let payload = &self.pending[start + 8..];
        let len = (payload.len() as u32).to_le_bytes();
        let crc = crc32(payload).to_le_bytes();
        self.pending[start..start + 4].copy_from_slice(&len);
        self.pending[start + 4..start + 8].copy_from_slice(&crc);
        self.active_len += (self.pending.len() - start) as u64;
    }

    /// Write every staged frame to the active segment with one `write_all`
    /// (buffered in the OS; [`Wal::sync`] forces it to the device). On an
    /// error the staged frames are dropped and the segment is cut back to
    /// its last whole frame, so later appends continue from a clean
    /// boundary.
    pub fn write_pending(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let _stage = Stage::WalWrite.enter();
        let staged = self.pending.len() as u64;
        let written = self.active_file.write_all(&self.pending);
        self.pending.clear();
        written.map_err(|e| {
            self.active_len -= staged;
            let _ = self.active_file.set_len(self.active_len);
            let _ = self.active_file.seek(SeekFrom::Start(self.active_len));
            PersistError::new(format!("append to WAL {}: {e}", self.active_path.display()))
        })
    }

    /// Write the staged frames, then force the active segment to the device
    /// (sealed segments were synced when they were rotated out).
    pub fn sync(&mut self) -> Result<()> {
        self.write_pending()?;
        let _stage = Stage::WalSync.enter();
        self.active_file
            .sync_data()
            .map_err(|e| PersistError::new(format!("sync WAL {}: {e}", self.active_path.display())))
    }

    /// Write and sync the staged frames, seal the active segment and open a
    /// fresh one. Returns the sealed segment's id: every record appended so
    /// far lives in segments with ids `<=` the returned id, so the caller
    /// may [`Wal::remove_through`] that id once the records are covered by a
    /// committed manifest.
    pub fn rotate(&mut self) -> Result<u64> {
        self.sync()?;
        let new_id = self.active_id + 1;
        let new_path = self.dir.join(segment_file_name(new_id));
        let new_file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&new_path)
            .map_err(|e| PersistError::new(format!("open WAL {}: {e}", new_path.display())))?;
        let sealed_id = self.active_id;
        self.sealed.push(SealedSegment {
            id: sealed_id,
            path: std::mem::replace(&mut self.active_path, new_path),
            len: self.active_len,
        });
        self.active_file = new_file;
        self.active_id = new_id;
        self.active_len = 0;
        Ok(sealed_id)
    }

    /// Delete every sealed segment with id `<= through` (their records are
    /// now covered by a committed manifest). The active segment is never
    /// touched — concurrent appends proceed unhindered.
    pub fn remove_through(&mut self, through: u64) -> Result<()> {
        let mut keep = Vec::new();
        for seg in self.sealed.drain(..) {
            if seg.id <= through {
                std::fs::remove_file(&seg.path).map_err(|e| {
                    PersistError::new(format!("remove WAL segment {}: {e}", seg.path.display()))
                })?;
            } else {
                keep.push(seg);
            }
        }
        self.sealed = keep;
        Ok(())
    }

    /// Drop every record: all sealed segments are deleted, the staged frames
    /// are discarded and the active segment is truncated. The flush commit
    /// path uses [`Wal::rotate`] + [`Wal::remove_through`] (in both
    /// synchronous and background modes); this is the blunt instrument for
    /// tools and tests that reset a log wholesale.
    pub fn truncate(&mut self) -> Result<()> {
        self.remove_through(u64::MAX)?;
        self.pending.clear();
        self.active_file
            .set_len(0)
            .map_err(|e| PersistError::new(format!("truncate WAL: {e}")))?;
        self.active_file
            .seek(SeekFrom::Start(0))
            .map_err(|e| PersistError::new(format!("seek WAL: {e}")))?;
        self.active_len = 0;
        self.sync()
    }

    /// Bytes of valid frames across every segment, staged frames included.
    pub fn len_bytes(&self) -> u64 {
        self.active_len + self.sealed.iter().map(|s| s.len).sum::<u64>()
    }

    /// `true` when no segment holds a record.
    pub fn is_empty(&self) -> bool {
        self.len_bytes() == 0
    }

    /// Id of the segment currently receiving appends.
    pub fn active_segment(&self) -> u64 {
        self.active_id
    }

    /// Number of sealed segments awaiting removal.
    pub fn sealed_segment_count(&self) -> usize {
        self.sealed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docmodel::doc;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("persist-wal-tests-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                key: Value::Int(1),
                record: doc!({"id": 1, "user": {"name": "ann"}, "tags": ["a", "b"]}),
            },
            WalRecord::Insert {
                key: Value::Int(2),
                record: doc!({"id": 2, "score": 3.25, "ok": true, "note": null}),
            },
            WalRecord::Delete { key: Value::Int(1) },
        ]
    }

    /// Stage `record` and write it, with every frame staged before it.
    fn log(wal: &mut Wal, record: &WalRecord) {
        match record {
            WalRecord::Insert { key, record } => wal.append_insert(key, record).unwrap(),
            WalRecord::Delete { key } => wal.append_delete(key).unwrap(),
        }
        wal.write_pending().unwrap();
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = temp_dir("roundtrip");
        let records = sample_records();
        {
            let (mut wal, replayed) = Wal::open(&dir).unwrap();
            assert!(replayed.records.is_empty());
            for r in &records {
                log(&mut wal, r);
            }
            wal.sync().unwrap();
        }
        let (wal, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(replayed.records, records);
        assert!(!wal.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_empties_the_log() {
        let dir = temp_dir("truncate");
        let (mut wal, _) = Wal::open(&dir).unwrap();
        for r in &sample_records() {
            log(&mut wal, r);
        }
        wal.truncate().unwrap();
        assert!(wal.is_empty());
        drop(wal);
        let (_, replayed) = Wal::open(&dir).unwrap();
        assert!(replayed.records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_healed() {
        let dir = temp_dir("torn");
        let records = sample_records();
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            for r in &records {
                log(&mut wal, r);
            }
        }
        // Simulate a crash mid-write: chop the last frame in half.
        let path = dir.join(segment_file_name(0));
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        let (mut wal, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(
            replayed.records,
            records[..2].to_vec(),
            "torn frame must be dropped"
        );
        assert!(
            replayed.torn_tail_healed,
            "the chopped frame is a torn tail"
        );
        // The file healed: appending after the torn tail yields a clean log.
        log(&mut wal, &records[2]);
        drop(wal);
        let (_, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(replayed.records, records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_stops_replay() {
        let dir = temp_dir("corrupt");
        let records = sample_records();
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            for r in &records {
                log(&mut wal, r);
            }
        }
        // Flip a byte inside the last frame's payload: nothing whole
        // follows it, so it reads as a torn tail.
        let path = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (_, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(replayed.records, records[..2].to_vec());
        assert!(replayed.torn_tail_healed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One flipped bit in an acknowledged frame of the newest segment, with
    /// acknowledged frames after it: not a torn tail. Opening refuses, and
    /// truncates nothing.
    #[test]
    fn a_rotted_frame_is_not_a_torn_tail() {
        let dir = temp_dir("rot");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            for i in 0..10 {
                wal.append_insert(&Value::Int(i), &doc!({"id": i, "v": "payload"}))
                    .unwrap();
            }
            wal.sync().unwrap();
        }
        let path = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8 + 3] ^= 0x04; // frame 0's payload
        std::fs::write(&path, &bytes).unwrap();

        let err = Wal::open(&dir).err().expect("a rotted frame is an error");
        assert!(err.message.contains("corrupt"), "{err}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "the segment is untouched"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_and_tiny_files_replay_cleanly() {
        let dir = temp_dir("tiny");
        std::fs::write(dir.join(segment_file_name(0)), [1, 2, 3]).unwrap(); // shorter than a header
        let (wal, replayed) = Wal::open(&dir).unwrap();
        assert!(replayed.records.is_empty());
        assert!(wal.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_segments_and_selective_removal() {
        let dir = temp_dir("rotate");
        let records = sample_records();
        let (mut wal, _) = Wal::open(&dir).unwrap();
        log(&mut wal, &records[0]);
        let seg0 = wal.rotate().unwrap();
        assert_eq!(seg0, 0);
        log(&mut wal, &records[1]);
        let seg1 = wal.rotate().unwrap();
        assert_eq!(seg1, 1);
        log(&mut wal, &records[2]);
        assert_eq!(wal.sealed_segment_count(), 2);
        assert_eq!(wal.active_segment(), 2);

        // Removing through segment 0 keeps segment 1 and the active tail.
        wal.remove_through(seg0).unwrap();
        assert_eq!(wal.sealed_segment_count(), 1);
        drop(wal);
        let (_, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(replayed.records, records[1..].to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_spans_segments_in_order() {
        let dir = temp_dir("spans");
        let records = sample_records();
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            for r in &records {
                log(&mut wal, r);
                wal.rotate().unwrap();
            }
        }
        let (wal, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(replayed.records, records);
        // Reopen keeps the sealed segments removable.
        let mut wal = wal;
        wal.remove_through(1).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(replayed.records, records[2..].to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_only_affects_newest_segment() {
        let dir = temp_dir("torn-newest");
        let records = sample_records();
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            log(&mut wal, &records[0]);
            wal.rotate().unwrap();
            log(&mut wal, &records[1]);
            log(&mut wal, &records[2]);
        }
        let path = dir.join(segment_file_name(1));
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (_, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(replayed.records, records[..2].to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn staged_frames_reach_the_file_in_one_write() {
        let dir = temp_dir("staged");
        let records = sample_records();
        let path = dir.join(segment_file_name(0));
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.append_insert(&Value::Int(1), &doc!({"id": 1})).unwrap();
        wal.append_delete(&Value::Int(1)).unwrap();
        let staged = wal.len_bytes();
        assert!(staged > 0, "len_bytes counts staged frames");
        assert_eq!(
            std::fs::read(&path).unwrap().len(),
            0,
            "staging writes nothing"
        );
        let clock = telemetry::stage::StageClock::start();
        wal.write_pending().unwrap();
        wal.write_pending().unwrap();
        let stages = clock.stop();
        assert_eq!(stages.count(Stage::WalWrite), 1, "{stages}");
        assert_eq!(std::fs::read(&path).unwrap().len() as u64, staged);
        assert_eq!(wal.len_bytes(), staged);
        drop(wal);
        let (_, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.records[1], records[2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_dropped_log_loses_its_staged_frames_like_a_crash() {
        let dir = temp_dir("drop-staged");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            log(&mut wal, &sample_records()[0]);
            wal.append_insert(&Value::Int(2), &doc!({"id": 2})).unwrap();
        }
        let (wal, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(replayed.records, sample_records()[..1].to_vec());
        assert!(
            !replayed.torn_tail_healed,
            "a staged frame leaves no torn tail"
        );
        assert_eq!(
            wal.len_bytes(),
            std::fs::metadata(dir.join(segment_file_name(0)))
                .unwrap()
                .len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_rotate_and_truncate_settle_staged_frames() {
        let dir = temp_dir("settle");
        let records = sample_records();
        let (mut wal, _) = Wal::open(&dir).unwrap();
        let clock = telemetry::stage::StageClock::start();
        wal.append_insert(&Value::Int(1), &doc!({"id": 1})).unwrap();
        wal.sync().unwrap();
        // A seal confines every frame appended before it to the sealed
        // segment, staged ones included.
        wal.append_insert(&Value::Int(2), &doc!({"id": 2})).unwrap();
        let sealed = wal.rotate().unwrap();
        let stages = clock.stop();
        assert_eq!(stages.count(Stage::WalWrite), 2, "{stages}");
        assert_eq!(stages.count(Stage::WalSync), 2, "{stages}");
        log(&mut wal, &records[2]);
        wal.remove_through(sealed).unwrap();
        drop(wal);
        let (mut wal, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(replayed.records, records[2..].to_vec());

        // Truncation discards staged frames with the written ones.
        wal.append_insert(&Value::Int(3), &doc!({"id": 3})).unwrap();
        wal.truncate().unwrap();
        assert!(wal.is_empty());
        wal.write_pending().unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&dir).unwrap();
        assert!(replayed.records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

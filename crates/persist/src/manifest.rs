//! The versioned manifest.
//!
//! The manifest is the dataset's durable root: one small file describing the
//! dataset configuration, the latest inferred [`Schema`], the live on-disk
//! components (one [`ComponentDescriptor`] each) and the next component id. A dataset directory is *defined* by its manifest:
//! recovery reads it, reopens every listed component against the page file,
//! and replays the WAL on top.
//!
//! ## Atomicity
//!
//! Each commit writes a complete manifest to `MANIFEST.tmp`, syncs it, and
//! atomically renames it over `MANIFEST`. A crash before the rename leaves
//! the previous manifest intact (new component pages become unreferenced
//! orphans in the page file — never corruption, and the orphan sweep at the
//! next open frees them); a crash after the rename leaves the new manifest
//! fully in place. The version counter
//! increases with every commit, and the body is CRC-guarded so a damaged
//! manifest is rejected rather than half-loaded.
//!
//! ## Format versioning
//!
//! There is one manifest generation. The magic bytes name it; a file that
//! opens with any other magic — including `LSMMAN01`–`LSMMAN09`, the
//! generations earlier commits of this repository wrote — is rejected with
//! an error that quotes the magic found. No deployed data predates this
//! format, so there is no compatibility reader and no skippable section: a
//! change to what the manifest records bumps `MAGIC` (one line) and edits
//! the one writer and the one reader below. So does a change to the bytes
//! of the pages it points at: `LSMMAN09` records what `LSMMAN08` did, but
//! its columnar pages are stored raw with a codec per column chunk, which
//! an `LSMMAN08` reader would misread as compressed pages. `LSMMAN10`
//! points at the same pages as `LSMMAN09`, but its dataset configuration
//! no longer records the AMAX empty-page tolerance or the leveled and
//! lazy-leveled strategies' size, threshold and ratio (they became
//! constants). A `LSMMAN10` reader would misread an `LSMMAN09`
//! configuration — the tolerance's eight bytes sit where the strategy tag
//! now does — so it refuses that generation by name like the others.
//!
//! ## What a component record holds
//!
//! Exactly its [`ComponentDescriptor`], in field order: the id, the layout
//! tag, the stored bytes and the leaf directory. Each leaf is its page, its
//! data pages, its smallest and largest key, its entry count and its zone
//! map (live records, then per column path its row and value counts and,
//! when the path has them, its bounds). Nothing is optional and nothing is
//! said twice: the component's record count, key range, page list and
//! statistics are folded from its leaves when it is opened.
//!
//! The dataset configuration is **opaque** here: its owner (the `lsm`
//! crate's `DatasetConfig`) encodes and decodes it, and this module frames
//! the bytes. The only configuration value `persist` keeps for itself is
//! [`ManifestData::page_size`], which [`crate::DurableStore::open`] checks
//! against the page size the page file is being opened with.
//!
//! Bytes from disk are untrusted: every count is checked against the bytes
//! that remain before anything is allocated for it, and a damaged file is an
//! `Err`, never a panic.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use docmodel::Value;
use encoding::crc::crc32;
use encoding::{plain, read_count, varint};
use schema::{serial, Schema};
use storage::component::{ComponentDescriptor, LeafDescriptor};
use storage::stats::{ColumnStats, ComponentStats};
use storage::{LayoutKind, PageId, RowFormat};

use crate::{PersistError, Result};

/// Magic bytes opening every manifest file: the one format generation.
const MAGIC: &[u8; 8] = b"LSMMAN10";

/// Everything one manifest commit records.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestData {
    /// Monotonic commit version (assigned by [`ManifestStore::commit`]).
    pub version: u64,
    /// Page size of the page file (must match on reopen).
    pub page_size: u64,
    /// The durable dataset configuration, encoded by its owner.
    pub config: Vec<u8>,
    /// Id the next flushed/merged component will receive.
    pub next_component_id: u64,
    /// The cumulative inferred schema (column ids are positions, so every
    /// component written under any earlier schema stays readable).
    pub schema: Schema,
    /// Live components, oldest first.
    pub components: Vec<ComponentDescriptor>,
}

fn write_value(out: &mut Vec<u8>, value: &Value) {
    RowFormat::Vb.serialize(value, out);
}

fn read_value(buf: &[u8], pos: &mut usize) -> Result<Value> {
    RowFormat::Vb.deserialize(buf, pos)
}

fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| PersistError::new("truncated manifest"))?;
    *pos += 1;
    Ok(b)
}

fn write_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn read_bool(buf: &[u8], pos: &mut usize) -> Result<bool> {
    Ok(read_u8(buf, pos)? != 0)
}

fn write_pages(out: &mut Vec<u8>, pages: &[PageId]) {
    varint::write_u64(out, pages.len() as u64);
    for &page in pages {
        varint::write_u64(out, page);
    }
}

fn read_pages(buf: &[u8], pos: &mut usize) -> Result<Vec<PageId>> {
    let count = read_count(buf, pos)?;
    let mut pages = Vec::with_capacity(count);
    for _ in 0..count {
        pages.push(varint::read_u64(buf, pos)?);
    }
    Ok(pages)
}

fn encode_body(data: &ManifestData) -> Vec<u8> {
    let mut out = Vec::new();
    varint::write_u64(&mut out, data.version);
    varint::write_u64(&mut out, data.page_size);
    plain::write_bytes(&mut out, &data.config);
    varint::write_u64(&mut out, data.next_component_id);
    serial::write_schema(&data.schema, &mut out);

    varint::write_u64(&mut out, data.components.len() as u64);
    for comp in &data.components {
        varint::write_u64(&mut out, comp.id);
        out.push(comp.layout.tag());
        varint::write_u64(&mut out, comp.stored_bytes);
        varint::write_u64(&mut out, comp.leaves.len() as u64);
        for leaf in &comp.leaves {
            varint::write_u64(&mut out, leaf.page);
            write_pages(&mut out, &leaf.data_pages);
            write_value(&mut out, &leaf.min_key);
            write_value(&mut out, &leaf.max_key);
            varint::write_u64(&mut out, leaf.record_count as u64);
            write_stats(&mut out, &leaf.stats);
        }
    }
    out
}

/// Serialize one leaf's zone map.
fn write_stats(out: &mut Vec<u8>, stats: &ComponentStats) {
    varint::write_u64(out, stats.live_records);
    varint::write_u64(out, stats.columns.len() as u64);
    for (path, col) in &stats.columns {
        plain::write_str(out, path);
        varint::write_u64(out, col.rows);
        varint::write_u64(out, col.values);
        match (&col.min, &col.max) {
            (Some(min), Some(max)) => {
                write_bool(out, true);
                write_value(out, min);
                write_value(out, max);
            }
            _ => write_bool(out, false),
        }
    }
}

/// Deserialize one leaf's zone map.
fn read_stats(buf: &[u8], pos: &mut usize) -> Result<ComponentStats> {
    let live_records = varint::read_u64(buf, pos)?;
    let column_count = read_count(buf, pos)?;
    let mut columns = std::collections::BTreeMap::new();
    for _ in 0..column_count {
        let path = plain::read_str(buf, pos)?.to_string();
        let rows = varint::read_u64(buf, pos)?;
        let values = varint::read_u64(buf, pos)?;
        let (min, max) = if read_bool(buf, pos)? {
            (Some(read_value(buf, pos)?), Some(read_value(buf, pos)?))
        } else {
            (None, None)
        };
        columns.insert(
            path,
            ColumnStats {
                rows,
                values,
                min,
                max,
            },
        );
    }
    Ok(ComponentStats {
        live_records,
        columns,
    })
}

fn decode_body(buf: &[u8]) -> Result<ManifestData> {
    let pos = &mut 0usize;
    let version = varint::read_u64(buf, pos)?;
    let page_size = varint::read_u64(buf, pos)?;
    let config = plain::read_bytes(buf, pos)?.to_vec();
    let next_component_id = varint::read_u64(buf, pos)?;
    let schema = serial::read_schema(buf, pos)?;

    let component_count = read_count(buf, pos)?;
    let mut components = Vec::with_capacity(component_count);
    for _ in 0..component_count {
        let id = varint::read_u64(buf, pos)?;
        let layout = LayoutKind::from_tag(read_u8(buf, pos)?)?;
        let stored_bytes = varint::read_u64(buf, pos)?;
        let leaf_count = read_count(buf, pos)?;
        let mut leaves = Vec::with_capacity(leaf_count);
        for _ in 0..leaf_count {
            let page = varint::read_u64(buf, pos)?;
            let data_pages = read_pages(buf, pos)?;
            let min_key = read_value(buf, pos)?;
            let max_key = read_value(buf, pos)?;
            let record_count = varint::read_u64(buf, pos)? as usize;
            let stats = read_stats(buf, pos)?;
            leaves.push(LeafDescriptor {
                page,
                data_pages,
                min_key,
                max_key,
                record_count,
                stats,
            });
        }
        components.push(ComponentDescriptor {
            id,
            layout,
            stored_bytes,
            leaves,
        });
    }
    if *pos != buf.len() {
        return Err(PersistError::new(format!(
            "manifest has {} trailing bytes",
            buf.len() - *pos
        )));
    }

    Ok(ManifestData {
        version,
        page_size,
        config,
        next_component_id,
        schema,
        components,
    })
}

/// Reads and atomically commits manifests in a dataset directory.
pub struct ManifestStore {
    path: PathBuf,
    tmp_path: PathBuf,
    dir: PathBuf,
    /// Version of the last loaded or committed manifest.
    version: u64,
}

impl ManifestStore {
    /// File name of the manifest within a dataset directory.
    pub const FILE_NAME: &'static str = "MANIFEST";

    /// Open the manifest location in `dir` and load the current manifest if
    /// one exists.
    pub fn open(dir: &Path) -> Result<(ManifestStore, Option<ManifestData>)> {
        let path = dir.join(Self::FILE_NAME);
        let tmp_path = dir.join(format!("{}.tmp", Self::FILE_NAME));
        // A crash may have left a stale temp file; it was never the truth.
        let _ = std::fs::remove_file(&tmp_path);
        let mut store = ManifestStore {
            path,
            tmp_path,
            dir: dir.to_path_buf(),
            version: 0,
        };
        let data = store.load()?;
        if let Some(data) = &data {
            store.version = data.version;
        }
        Ok((store, data))
    }

    fn load(&self) -> Result<Option<ManifestData>> {
        let mut file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(PersistError::new(format!(
                    "open manifest {}: {e}",
                    self.path.display()
                )))
            }
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| PersistError::new(format!("read manifest: {e}")))?;
        if bytes.len() < MAGIC.len() + 4 {
            return Err(PersistError::new("manifest too short"));
        }
        let (magic, rest) = bytes.split_at(MAGIC.len());
        if magic != MAGIC {
            return Err(PersistError::new(format!(
                "manifest magic is {:?}, this build reads only {:?}",
                String::from_utf8_lossy(magic),
                String::from_utf8_lossy(MAGIC)
            )));
        }
        let (crc, body) = rest.split_at(4);
        if crc32(body).to_le_bytes() != crc {
            return Err(PersistError::new(
                "manifest failed its CRC check — corrupt manifest",
            ));
        }
        decode_body(body).map(Some)
    }

    /// The version of the most recently loaded or committed manifest.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Atomically commit `data` as the next manifest version. On success the
    /// new manifest is durable; on failure (or crash) the previous manifest
    /// is still intact.
    pub fn commit(&mut self, mut data: ManifestData) -> Result<u64> {
        data.version = self.version + 1;
        let body = encode_body(&data);
        let mut bytes = Vec::with_capacity(MAGIC.len() + 4 + body.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);

        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&self.tmp_path)
            .map_err(|e| PersistError::new(format!("open manifest temp: {e}")))?;
        tmp.write_all(&bytes)
            .map_err(|e| PersistError::new(format!("write manifest temp: {e}")))?;
        tmp.sync_data()
            .map_err(|e| PersistError::new(format!("sync manifest temp: {e}")))?;
        drop(tmp);
        std::fs::rename(&self.tmp_path, &self.path)
            .map_err(|e| PersistError::new(format!("rename manifest into place: {e}")))?;
        // Make the rename itself durable.
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        self.version = data.version;
        Ok(self.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docmodel::doc;
    use schema::SchemaBuilder;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "persist-manifest-tests-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_data() -> ManifestData {
        let mut builder = SchemaBuilder::new(Some("id".to_string()));
        builder.observe(&doc!({"id": 1, "user": {"name": "a"}, "tags": [1, 2]}));
        builder.observe(&doc!({"id": 2, "user": "heterogeneous"}));
        ManifestData {
            version: 0,
            page_size: 4096,
            config: b"opaque to persist: the owner's encoding".to_vec(),
            next_component_id: 7,
            schema: builder.into_schema(),
            components: vec![ComponentDescriptor {
                id: 3,
                layout: LayoutKind::Amax,
                stored_bytes: 4567,
                leaves: vec![LeafDescriptor {
                    page: 0,
                    data_pages: vec![1, 2, 5],
                    min_key: Value::Int(0),
                    max_key: Value::Int(122),
                    record_count: 123,
                    stats: sample_stats(),
                }],
            }],
        }
    }

    fn sample_stats() -> ComponentStats {
        let mut columns = std::collections::BTreeMap::new();
        columns.insert(
            "timestamp".to_string(),
            ColumnStats {
                rows: 123,
                values: 123,
                min: Some(Value::Int(1_000)),
                max: Some(Value::Int(1_122)),
            },
        );
        columns.insert(
            "tags[*]".to_string(),
            ColumnStats {
                rows: 17,
                values: 40,
                min: None,
                max: None,
            },
        );
        ComponentStats {
            live_records: 123,
            columns,
        }
    }

    #[test]
    fn commit_load_roundtrip_bumps_versions() {
        let dir = temp_dir("roundtrip");
        let (mut store, loaded) = ManifestStore::open(&dir).unwrap();
        assert!(loaded.is_none());

        let data = sample_data();
        assert_eq!(store.commit(data.clone()).unwrap(), 1);
        assert_eq!(store.commit(data.clone()).unwrap(), 2);

        let (store2, loaded) = ManifestStore::open(&dir).unwrap();
        let loaded = loaded.unwrap();
        assert_eq!(store2.version(), 2);
        assert_eq!(loaded.version, 2);
        assert_eq!(loaded.page_size, 4096);
        assert_eq!(loaded.config, data.config);
        assert_eq!(loaded.next_component_id, 7);
        assert_eq!(loaded.schema, data.schema);
        assert_eq!(loaded.components, data.components);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_roundtrip() {
        let dir = temp_dir("stats-roundtrip");
        let (mut store, _) = ManifestStore::open(&dir).unwrap();
        let mut data = sample_data();
        // A second component, with an empty zone map and no leaf bounds.
        data.components.push(ComponentDescriptor {
            id: 4,
            layout: LayoutKind::Vb,
            stored_bytes: 99,
            leaves: vec![LeafDescriptor {
                page: 7,
                data_pages: Vec::new(),
                min_key: Value::Int(5),
                max_key: Value::Int(5),
                record_count: 1,
                stats: ComponentStats::default(),
            }],
        });
        store.commit(data.clone()).unwrap();
        let (_, loaded) = ManifestStore::open(&dir).unwrap();
        assert_eq!(loaded.unwrap().components, data.components);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leaf_zone_maps_roundtrip() {
        let dir = temp_dir("leaf-stats-roundtrip");
        let (mut store, _) = ManifestStore::open(&dir).unwrap();
        let mut data = sample_data();
        // Each leaf keeps its own zone map.
        let mut second = sample_stats();
        second.live_records = 78;
        second.columns.remove("tags[*]");
        data.components[0].leaves.push(LeafDescriptor {
            page: 9,
            data_pages: vec![10],
            min_key: Value::Int(123),
            max_key: Value::Int(200),
            record_count: 78,
            stats: second.clone(),
        });
        store.commit(data.clone()).unwrap();
        let (_, loaded) = ManifestStore::open(&dir).unwrap();
        let leaves = &loaded.unwrap().components[0].leaves;
        assert_eq!(leaves[0].stats, sample_stats());
        assert_eq!(leaves[1].stats, second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seal `body` under `magic` the way `commit` does, then load it.
    fn load_sealed(dir: &Path, magic: &[u8; 8], body: &[u8]) -> Result<Option<ManifestData>> {
        let mut bytes = magic.to_vec();
        bytes.extend_from_slice(&crc32(body).to_le_bytes());
        bytes.extend_from_slice(body);
        std::fs::write(dir.join(ManifestStore::FILE_NAME), bytes).unwrap();
        ManifestStore::open(dir).map(|(_, data)| data)
    }

    /// The bytes of a committed [`sample_data`] manifest in `dir`.
    fn committed(dir: &Path) -> Vec<u8> {
        let (mut store, _) = ManifestStore::open(dir).unwrap();
        store.commit(sample_data()).unwrap();
        std::fs::read(dir.join(ManifestStore::FILE_NAME)).unwrap()
    }

    #[test]
    fn every_truncation_and_byte_flip_of_the_file_is_an_error() {
        let dir = temp_dir("hostile-file");
        let good = committed(&dir);
        let load = |bytes: &[u8]| {
            std::fs::write(dir.join(ManifestStore::FILE_NAME), bytes).unwrap();
            ManifestStore::open(&dir).map(|(_, data)| data)
        };
        // Caught by the length, the magic or the CRC.
        for len in 0..good.len() {
            assert!(load(&good[..len]).is_err(), "truncated to {len} bytes");
        }
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x55;
            assert!(load(&bad).is_err(), "byte {i} flipped");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_generations_are_refused_by_name() {
        // Even over a body whose CRC holds.
        let dir = temp_dir("hostile-magic");
        let good = committed(&dir);
        let body = &good[MAGIC.len() + 4..];
        for old in [
            b"LSMMAN01",
            b"LSMMAN02",
            b"LSMMAN03",
            b"LSMMAN04",
            b"LSMMAN05",
            b"LSMMAN06",
            b"LSMMAN07",
            b"LSMMAN08",
            b"LSMMAN09",
        ] {
            let err = load_sealed(&dir, old, body).err().unwrap();
            let found = String::from_utf8_lossy(old);
            assert!(err.message.contains(&*found), "{err}");
        }
        assert_eq!(load_sealed(&dir, MAGIC, body).unwrap().unwrap().version, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_behind_a_valid_crc_never_panics_the_decoder() {
        // A cut body is an error; a damaged one is an error or a manifest.
        let dir = temp_dir("hostile-body");
        let good = committed(&dir);
        let body = &good[MAGIC.len() + 4..];
        for len in 0..body.len() {
            assert!(
                load_sealed(&dir, MAGIC, &body[..len]).is_err(),
                "body cut to {len}"
            );
        }
        for i in 0..body.len() {
            for mask in [0x01, 0x55, 0x80, 0xff] {
                let mut bad = body.to_vec();
                bad[i] ^= mask;
                let _ = load_sealed(&dir, MAGIC, &bad);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counts_are_checked_against_the_remaining_bytes_before_allocating() {
        // A body ending in "2^40 components" is refused as such, not after
        // reserving room for them.
        let dir = temp_dir("hostile-count");
        let mut empty = sample_data();
        empty.components.clear();
        let mut bogus = encode_body(&empty);
        assert_eq!(bogus.pop(), Some(0), "the component count comes last");
        varint::write_u64(&mut bogus, 1 << 40);
        let err = load_sealed(&dir, MAGIC, &bogus).err().unwrap();
        assert!(err.message.contains("exceeds"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_temp_file_is_ignored() {
        let dir = temp_dir("staletmp");
        let (mut store, _) = ManifestStore::open(&dir).unwrap();
        store.commit(sample_data()).unwrap();
        // Crash simulation: a half-written temp manifest left behind.
        std::fs::write(dir.join("MANIFEST.tmp"), b"half written garbage").unwrap();
        let (_, loaded) = ManifestStore::open(&dir).unwrap();
        assert!(loaded.is_some(), "temp file must not shadow the manifest");
        assert!(!dir.join("MANIFEST.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Page writes. The on-disk format is pinned: a fixed, seeded `sensors`
//! AMAX leaf written through the one component writer must produce
//! byte-identical pages — checked as the CRC-32 of every page it writes
//! (Page 0 and the data pages, in the order written) against constants
//! recorded when the format last changed. And a page the backend cannot
//! write fails the component write with an `Err`, never a panic; a page it
//! cannot free is reported by the `Drop` that frees it, never a panic.
//!
//! Read-path work (decoders, checksums, caches) must leave this test alone.
//! A deliberate format change updates the constants together with the
//! manifest magic in `persist::manifest`.

use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use docmodel::Value;
use encoding::crc::crc32;
use encoding::DecodeError;
use schema::{Schema, SchemaBuilder};
use storage::component::{Component, ComponentConfig};
use storage::{
    BufferCache, ComponentWriter, LayoutKind, MemoryBackend, PageId, PageStore, StorageBackend,
};

/// A `sensors`-shaped record (the paper's IoT dataset) from a fixed
/// xorshift stream, so the bytes depend on nothing outside this file.
fn sensor(id: i64, state: &mut u64) -> Value {
    let mut next = |bound: u64| {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state % bound
    };
    let readings: Vec<Value> = (0..4 + next(8) as i64)
        .map(|seq| {
            Value::empty_object()
                .with_field("seq", Value::Int(seq))
                .with_field("temp", Value::Double((next(650) as f64 - 200.0) / 10.0))
                .with_field("humidity", Value::Int(next(100) as i64))
        })
        .collect();
    Value::empty_object()
        .with_field("id", Value::Int(id))
        .with_field("sensor_id", Value::Int(id % 50))
        .with_field("report_time", Value::Int(1_556_400_000_000 + id * 60_000))
        .with_field(
            "status",
            Value::empty_object()
                .with_field("battery", Value::Int(next(100) as i64))
                .with_field("online", Value::Bool(next(20) != 0)),
        )
        .with_field("readings", Value::Array(readings))
}

/// 400 seeded sensors and their schema.
fn sensors() -> (Vec<(Value, Option<Value>)>, Schema) {
    let mut state = 0x5EED_0FA1_u64;
    let entries: Vec<(Value, Option<Value>)> = (0..400)
        .map(|id| (Value::Int(id), Some(sensor(id, &mut state))))
        .collect();
    let mut builder = SchemaBuilder::new(Some("id".to_string()));
    builder.observe_all(entries.iter().filter_map(|(_, doc)| doc.as_ref()));
    (entries, builder.into_schema())
}

#[test]
fn a_seeded_sensors_amax_leaf_writes_the_same_pages() {
    let (entries, schema) = sensors();
    let cache = BufferCache::new(PageStore::with_page_size(8 * 1024), 64);
    let config = ComponentConfig::new(LayoutKind::Amax);
    let component = Component::write(&cache, &config, schema, &entries, 1).unwrap();
    assert_eq!(component.leaf_count(), 1);

    // A fresh store numbers pages from 0 in the order they are written.
    let crcs: Vec<u32> = (0..cache.store().page_count())
        .map(|id| crc32(&cache.store().read_page(id).unwrap()))
        .collect();
    assert_eq!(crcs, GOLDEN, "page bytes changed: {crcs:#010x?}");
}

/// Re-recorded under `LSMMAN09`, when the columnar pages stopped being
/// LZ-compressed whole and each column chunk took its own codec: `temp`
/// became decimal (tenths, delta-packed), Page 0 stopped repeating the zone
/// map the leaf descriptor holds, and the leaf shrank from Page 0 plus five
/// data pages to Page 0 plus two. The CRCs recorded under
/// `LSMMAN07` (and unchanged under `LSMMAN08`, which changed only what the
/// manifest records) pinned the whole-page LZ format. `LSMMAN10` also
/// changed only what the manifest records, so these stand.
const GOLDEN: &[u32] = &[0xa184_32e4, 0xbe34_64f7, 0xc881_e236];

/// A backend that writes `left` more pages, then fails every append; with
/// `frees_fail` it fails every free as well.
struct Failing {
    pages: MemoryBackend,
    left: AtomicUsize,
    frees_fail: bool,
}

impl Failing {
    /// A buffer cache over a failing backend of 8 KiB pages.
    fn cache(left: usize, frees_fail: bool) -> BufferCache {
        let backend = Failing {
            pages: MemoryBackend::new(8 * 1024),
            left: AtomicUsize::new(left),
            frees_fail,
        };
        BufferCache::new(PageStore::with_backend(Box::new(backend)), 64)
    }
}

impl StorageBackend for Failing {
    fn page_size(&self) -> usize {
        self.pages.page_size()
    }
    fn max_payload(&self) -> usize {
        self.pages.max_payload()
    }
    fn page_count(&self) -> u64 {
        self.pages.page_count()
    }
    fn free_page_count(&self) -> u64 {
        self.pages.free_page_count()
    }
    fn append_page(&self, data: Vec<u8>) -> storage::Result<PageId> {
        match self
            .left
            .fetch_update(Relaxed, Relaxed, |n| n.checked_sub(1))
        {
            Ok(_) => self.pages.append_page(data),
            Err(_) => Err(DecodeError::new("injected page write failure")),
        }
    }
    fn read_page(&self, id: PageId) -> storage::Result<Arc<Vec<u8>>> {
        self.pages.read_page(id)
    }
    fn free_pages(&self, ids: &[PageId]) -> storage::Result<()> {
        if self.frees_fail {
            return Err(DecodeError::new("injected page free failure"));
        }
        self.pages.free_pages(ids)
    }
    fn shrink_free_tail(&self) -> storage::Result<u64> {
        self.pages.shrink_free_tail()
    }
    fn sync(&self) -> storage::Result<()> {
        self.pages.sync()
    }
}

/// A page the backend cannot write (a full disk, an I/O error) fails the
/// component write with an `Err`, and the page written before it goes back
/// to the free list.
#[test]
fn a_failed_page_write_is_an_error() {
    let (entries, schema) = sensors();
    for layout in LayoutKind::ALL {
        let cache = Failing::cache(1, false);
        let config = ComponentConfig::new(layout);
        let written = Component::write(&cache, &config, schema.clone(), &entries, 1);
        assert!(written.is_err(), "{layout:?}");
        let store = cache.store();
        assert_eq!(store.page_count(), 1, "{layout:?}");
        assert_eq!(store.free_page_count(), 1, "{layout:?}: the page is freed");
    }
}

/// A retired component whose pages the backend cannot free drops without a
/// panic, and its slots stay allocated for the next open's orphan sweep.
#[test]
fn a_retired_component_that_cannot_free_its_pages_drops_quietly() {
    let (entries, schema) = sensors();
    for layout in LayoutKind::ALL {
        let cache = Failing::cache(usize::MAX, true);
        let config = ComponentConfig::new(layout);
        let component = Component::write(&cache, &config, schema.clone(), &entries, 1).unwrap();
        let pages = cache.store().page_count();
        assert!(pages > 0, "{layout:?}");
        component.retire();
        drop(component);
        assert_eq!(cache.store().page_count(), pages, "{layout:?}");
        assert_eq!(cache.store().free_page_count(), 0, "{layout:?}");
    }
}

/// A writer dropped unfinished frees the pages it wrote; when the backend
/// cannot free them, the drop reports it and does not panic. Row and APAX
/// leaves fill by size, so the sensors seal some before the drop (an AMAX
/// leaf holds all 400).
#[test]
fn an_unfinished_writer_that_cannot_free_its_pages_drops_quietly() {
    let (entries, schema) = sensors();
    for layout in [LayoutKind::Open, LayoutKind::Vb, LayoutKind::Apax] {
        let cache = Failing::cache(usize::MAX, true);
        let mut writer =
            ComponentWriter::new(&cache, &ComponentConfig::new(layout), schema.clone(), 1);
        for (key, doc) in &entries {
            writer.push_entry(key, doc.as_ref()).unwrap();
        }
        let pages = cache.store().page_count();
        assert!(pages > 0, "{layout:?}: the writer sealed a leaf");
        drop(writer);
        assert_eq!(cache.store().page_count(), pages, "{layout:?}");
        assert_eq!(cache.store().free_page_count(), 0, "{layout:?}");
    }
}

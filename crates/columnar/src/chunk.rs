//! Column chunks: one column's definition levels and values.
//!
//! A [`ColumnChunk`] is the unit that page writers place into APAX minipages
//! or AMAX megapages: the encoded definition levels followed by the encoded
//! values, matching the minipage layout of Figure 8 (size, value count,
//! encoded definition levels, encoded values).

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::OnceLock;

use docmodel::{total_cmp, Value};
use encoding::{
    bitpack, bytesenc, compress, decimal, delta, plain, rle, varint, DecodeError, Encoding,
};
use schema::{AtomicType, ColumnSpec};
use telemetry::stage::Stage;

use crate::Result;

/// Typed value storage for one column chunk. Only entries whose definition
/// level equals the column's maximum carry a value — except for the
/// primary-key column, where every entry carries the key (anti-matter
/// entries store the deleted key with definition level 0, §3.2.3).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnValues {
    /// Boolean values.
    Bool(Vec<bool>),
    /// Integer values.
    Int(Vec<i64>),
    /// Double values.
    Double(Vec<f64>),
    /// String values.
    String(Vec<String>),
    /// `null`s, counted: a `Null` column's levels say where they are, and
    /// there is nothing else to store.
    Null(usize),
}

impl ColumnValues {
    /// An empty value vector of the given type.
    pub fn empty(ty: AtomicType) -> ColumnValues {
        match ty {
            AtomicType::Bool => ColumnValues::Bool(Vec::new()),
            AtomicType::Int => ColumnValues::Int(Vec::new()),
            AtomicType::Double => ColumnValues::Double(Vec::new()),
            AtomicType::String => ColumnValues::String(Vec::new()),
            AtomicType::Null => ColumnValues::Null(0),
        }
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        match self {
            ColumnValues::Bool(v) => v.len(),
            ColumnValues::Int(v) => v.len(),
            ColumnValues::Double(v) => v.len(),
            ColumnValues::String(v) => v.len(),
            ColumnValues::Null(n) => *n,
        }
    }

    /// `true` when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The type of the stored values.
    pub fn ty(&self) -> AtomicType {
        match self {
            ColumnValues::Bool(_) => AtomicType::Bool,
            ColumnValues::Int(_) => AtomicType::Int,
            ColumnValues::Double(_) => AtomicType::Double,
            ColumnValues::String(_) => AtomicType::String,
            ColumnValues::Null(_) => AtomicType::Null,
        }
    }

    /// Append a value; the value must match the column type (the shredder
    /// guarantees this because it routes through the schema).
    pub fn push(&mut self, value: &Value) {
        match (self, value) {
            (ColumnValues::Bool(v), Value::Bool(b)) => v.push(*b),
            (ColumnValues::Int(v), Value::Int(i)) => v.push(*i),
            (ColumnValues::Double(v), Value::Double(d)) => v.push(*d),
            (ColumnValues::String(v), Value::String(s)) => v.push(s.clone()),
            (ColumnValues::Null(n), Value::Null) => *n += 1,
            (this, other) => panic!(
                "column of type {:?} cannot store value of kind {:?}",
                this.ty(),
                other.kind()
            ),
        }
    }

    /// Read the value at `index` as a [`Value`].
    pub fn get(&self, index: usize) -> Value {
        match self {
            ColumnValues::Bool(v) => Value::Bool(v[index]),
            ColumnValues::Int(v) => Value::Int(v[index]),
            ColumnValues::Double(v) => Value::Double(v[index]),
            ColumnValues::String(v) => Value::String(v[index].clone()),
            ColumnValues::Null(_) => Value::Null,
        }
    }

    /// [`Value::approx_size`] of the value at `index`, without building it.
    pub fn approx_size_at(&self, index: usize) -> usize {
        match self {
            ColumnValues::Bool(_) | ColumnValues::Null(_) => 1,
            ColumnValues::Int(_) | ColumnValues::Double(_) => 8,
            ColumnValues::String(v) => 4 + v[index].len(),
        }
    }

    /// Compare the value at `index` with `other` under the document total
    /// order, without materialising a [`Value`] when the types agree — the
    /// comparator of the point-lookup binary search over a sorted key column.
    pub fn cmp_at(&self, index: usize, other: &Value) -> Ordering {
        match (self, other) {
            (ColumnValues::Int(v), Value::Int(o)) => v[index].cmp(o),
            (ColumnValues::String(v), Value::String(o)) => v[index].as_str().cmp(o.as_str()),
            _ => total_cmp(&self.get(index), other),
        }
    }

    /// Compare the value at `index` with `other`'s at `other_index` under the
    /// document total order, without materialising either — how a k-way
    /// merge orders the heads of two decoded key columns.
    #[inline]
    pub fn cmp_between(&self, index: usize, other: &ColumnValues, other_index: usize) -> Ordering {
        match (self, other) {
            (ColumnValues::Int(a), ColumnValues::Int(b)) => a[index].cmp(&b[other_index]),
            (ColumnValues::String(a), ColumnValues::String(b)) => a[index].cmp(&b[other_index]),
            _ => total_cmp(&self.get(index), &other.get(other_index)),
        }
    }

    /// Append `src[range]` — one slice extend, the value half of a
    /// record-range column copy ([`ColumnChunk::extend_from`]). Both sides
    /// must hold the same type (they are chunks of one column).
    pub fn extend_from_range(&mut self, src: &ColumnValues, range: Range<usize>) {
        match (self, src) {
            (ColumnValues::Bool(v), ColumnValues::Bool(s)) => v.extend_from_slice(&s[range]),
            (ColumnValues::Int(v), ColumnValues::Int(s)) => v.extend_from_slice(&s[range]),
            (ColumnValues::Double(v), ColumnValues::Double(s)) => v.extend_from_slice(&s[range]),
            (ColumnValues::String(v), ColumnValues::String(s)) => v.extend_from_slice(&s[range]),
            (ColumnValues::Null(n), ColumnValues::Null(_)) => *n += range.len(),
            (this, other) => panic!(
                "column of type {:?} cannot take values of type {:?}",
                this.ty(),
                other.ty()
            ),
        }
    }

    /// Rough in-memory footprint in bytes, used by the flush writers to size
    /// temporary buffers.
    pub fn approx_bytes(&self) -> usize {
        match self {
            ColumnValues::Bool(v) => v.len(),
            ColumnValues::Int(v) => v.len() * 8,
            ColumnValues::Double(v) => v.len() * 8,
            ColumnValues::String(v) => v.iter().map(|s| s.len() + 4).sum(),
            ColumnValues::Null(_) => 0,
        }
    }

    /// Minimum and maximum stored value (as [`Value`]s) under the document
    /// total order — doubles by `f64::total_cmp`, so a NaN sorts above
    /// every number and `-0.0` below `0.0`, exactly as a pushed predicate
    /// compares them. Used for the zone maps. `None` when the chunk has no
    /// values.
    pub fn min_max(&self) -> Option<(Value, Value)> {
        fn mm<T: Clone>(v: &[T], cmp: impl Fn(&T, &T) -> Ordering) -> Option<(T, T)> {
            let min = v.iter().min_by(|a, b| cmp(a, b))?;
            let max = v.iter().max_by(|a, b| cmp(a, b))?;
            Some((min.clone(), max.clone()))
        }
        match self {
            ColumnValues::Bool(v) => mm(v, Ord::cmp).map(|(a, b)| (Value::Bool(a), Value::Bool(b))),
            ColumnValues::Int(v) => mm(v, Ord::cmp).map(|(a, b)| (Value::Int(a), Value::Int(b))),
            ColumnValues::Double(v) => {
                mm(v, f64::total_cmp).map(|(a, b)| (Value::Double(a), Value::Double(b)))
            }
            ColumnValues::String(v) => {
                mm(v, Ord::cmp).map(|(a, b)| (Value::String(a), Value::String(b)))
            }
            ColumnValues::Null(n) => (*n > 0).then_some((Value::Null, Value::Null)),
        }
    }
}

/// High bit of a chunk's value tag: the string bytes that follow are
/// LZ-compressed ([`ColumnChunk::encode`]).
pub const LZ_FLAG: u8 = 0x80;

/// Decoded byte arrays as the strings they must be.
fn strings(raw: Vec<Vec<u8>>) -> Result<ColumnValues> {
    let strings = raw
        .into_iter()
        .map(String::from_utf8)
        .collect::<std::result::Result<Vec<_>, _>>()
        .map_err(|_| DecodeError::new("invalid utf-8 in string column"))?;
    Ok(ColumnValues::String(strings))
}

/// A position inside a chunk: the next definition-level entry and the next
/// value. The two advance at different rates because only some entries
/// carry a value. The one position type of this crate: the assembly
/// automaton moves one per column entry by entry, and outside the crate it
/// is obtained from [`ColumnChunk::record_pos`] and advanced by
/// [`ColumnChunk::skip_records`], so it always stands on a record boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkPos {
    pub(crate) def: usize,
    pub(crate) value: usize,
}

/// Records between two checkpoints of a chunk's record-offset index: a seek
/// walks at most this many records from the checkpoint before its target.
pub(crate) const SEEK_INTERVAL: usize = 64;

/// The sparse record-offset index of one chunk: the [`ChunkPos`] of every
/// [`SEEK_INTERVAL`]-th record. Built by the first seek and never at decode
/// time, so a chunk that is only ever scanned does not pay for it. It is
/// derived from `defs` alone, hence invisible to equality, and a clone
/// starts without one (the clone may be edited before it is shared).
#[derive(Debug, Default)]
struct RecordIndex(OnceLock<Vec<ChunkPos>>);

impl Clone for RecordIndex {
    fn clone(&self) -> Self {
        RecordIndex::default()
    }
}

impl PartialEq for RecordIndex {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// One column's data for a batch of records: the definition-level stream
/// (including delimiters) and the values.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnChunk {
    /// The column's schema-derived metadata.
    pub spec: ColumnSpec,
    /// Definition-level stream (content entries and delimiters).
    pub defs: Vec<u16>,
    /// Values for entries at the maximum definition level (every entry for
    /// the primary-key column).
    pub values: ColumnValues,
    /// Lazily built seek index; chunks are immutable once shared behind an
    /// `Arc`, which is the only way a cursor (and so a seek) reaches them.
    record_index: RecordIndex,
}

impl ColumnChunk {
    /// An empty chunk for the given column.
    pub fn new(spec: ColumnSpec) -> ColumnChunk {
        let values = ColumnValues::empty(spec.ty);
        ColumnChunk {
            spec,
            defs: Vec::new(),
            values,
            record_index: RecordIndex::default(),
        }
    }

    /// Number of (definition level) entries.
    pub fn entry_count(&self) -> usize {
        self.defs.len()
    }

    /// Rough in-memory footprint (defs + values).
    pub fn approx_bytes(&self) -> usize {
        self.defs.len() * 2 + self.values.approx_bytes()
    }

    /// Upper bound on the heap bytes the lazily built record-offset index
    /// occupies once a seek has built it; zero for the key column, which
    /// never builds one (its ordinals are its positions). Callers that
    /// budget decoded chunks (the leaf cache) charge it up front, because
    /// the index appears after the chunk was admitted — a deliberate
    /// over-estimate for chunks that are only ever scanned.
    pub fn seek_index_bytes(&self) -> usize {
        if self.spec.is_key {
            return 0;
        }
        (self.defs.len() / SEEK_INTERVAL + 1) * std::mem::size_of::<ChunkPos>()
    }

    /// Whether the record at `ordinal` of this **primary-key** chunk is
    /// anti-matter: the key column stores a deleted key at definition level
    /// 0 (§3.2.3), one entry per record. The only anti-matter test there is;
    /// nothing outside this crate reads a definition level.
    #[inline]
    pub fn is_antimatter(&self, ordinal: usize) -> bool {
        debug_assert!(self.spec.is_key);
        self.defs[ordinal] == 0
    }

    /// The definition level of the entry at `pos`; `None` past the end.
    #[inline]
    pub(crate) fn peek(&self, pos: ChunkPos) -> Option<u16> {
        self.defs.get(pos.def).copied()
    }

    /// Advance `pos` past one entry.
    pub(crate) fn skip_entry(&self, pos: &mut ChunkPos) {
        if let Some(&def) = self.defs.get(pos.def) {
            pos.def += 1;
            if self.spec.is_key || def == self.spec.max_def {
                pos.value += 1;
            }
        }
    }

    /// Advance `pos` past the entries of exactly one record, using the
    /// column's record-boundary rules:
    ///
    /// * a non-repeated column contributes exactly one entry per record;
    /// * a repeated column contributes a single entry when its outermost
    ///   array is absent (definition level below the array's level),
    ///   otherwise a run of entries terminated by the delimiter `0`.
    pub(crate) fn skip_record(&self, pos: &mut ChunkPos) {
        if self.spec.is_repeated() {
            *pos = self.record_end(*pos).0;
        } else {
            self.skip_entry(pos);
        }
    }

    /// Where the record of a **repeated** column that starts at `pos` ends,
    /// and how many entries it holds besides its delimiter and the marker of
    /// an empty outermost array — its elements, for a column under exactly
    /// one array. The one statement of where such a record ends: a single
    /// entry when its outermost array is absent (definition level below the
    /// array's), else a run through the delimiter `0`. At the end of the
    /// chunk, `pos` and no entries.
    #[inline]
    pub(crate) fn record_end(&self, pos: ChunkPos) -> (ChunkPos, usize) {
        match self.defs.get(pos.def) {
            None => (pos, 0),
            Some(&first) if first < self.spec.array_levels[0] => {
                (ChunkPos { def: pos.def + 1, ..pos }, 0)
            }
            Some(&first) => {
                let (end, entries) = self.rest_of_record(pos);
                (end, entries - usize::from(first == self.spec.array_levels[0]))
            }
        }
    }

    /// Where the `n` records of a column under **exactly one** array that
    /// start at `pos` end, and how many elements they hold — `record_end`
    /// over each of them, summed (fewer records when the chunk ends first).
    /// Its rule says more here: no entry inside such a record is below the
    /// array's level (elements are above it, the empty array's marker is at
    /// it), so a record ends exactly at its one entry below that level — a
    /// delimiter `0` or an absent array's marker — and an element is an
    /// entry above it. So whole blocks of levels that cannot hold the `n`-th
    /// end are counted in one pass with no step per record, and only the
    /// last few records are stepped over one at a time.
    pub(crate) fn records_end(&self, mut pos: ChunkPos, n: usize) -> (ChunkPos, usize) {
        const BLOCK: usize = 32;
        debug_assert_eq!(self.spec.array_levels.len(), 1);
        let array = self.spec.array_levels[0];
        let max_def = self.spec.max_def;
        let mut ended = 0;
        let mut elements = 0;
        // A block holds at most `BLOCK` ends, so while more than that are
        // still to come it is taken whole. Its counts fit `u16` lanes.
        let mut blocks = self.defs[pos.def..].chunks_exact(BLOCK);
        while n - ended > BLOCK {
            let Some(block) = blocks.next() else { break };
            let (mut ends, mut inside, mut values) = (0u16, 0u16, 0u16);
            for &def in block {
                ends += u16::from(def < array);
                inside += u16::from(def > array);
                values += u16::from(def == max_def);
            }
            ended += usize::from(ends);
            elements += usize::from(inside);
            pos.def += BLOCK;
            pos.value += usize::from(values);
        }
        while ended < n && pos.def < self.defs.len() {
            let (end, count) = self.record_end(pos);
            pos = end;
            elements += count;
            ended += 1;
        }
        (pos, elements)
    }

    /// The rest of a record whose outermost array is present (possibly
    /// empty), from entry `pos` on: where it ends — just past the delimiter
    /// 0, which the shredder always terminates such a record segment with,
    /// and which no content entry mid-record can have — and the entries
    /// before the delimiter.
    #[inline]
    fn rest_of_record(&self, mut pos: ChunkPos) -> (ChunkPos, usize) {
        let max_def = self.spec.max_def;
        let mut entries = 0;
        for &def in &self.defs[pos.def..] {
            pos.def += 1;
            if def == 0 {
                break;
            }
            entries += 1;
            pos.value += usize::from(def == max_def);
        }
        (pos, entries)
    }

    /// Advance `pos` past `n` records (fewer when the chunk ends first). A
    /// non-repeated column holds one entry per record, so its definition
    /// position moves by `n` and its value position by the entries of that
    /// span that carry a value — no per-record walk. A repeated column's
    /// records are stepped over one at a time (`record_end`), a tight loop
    /// over the levels.
    pub fn skip_records(&self, pos: &mut ChunkPos, n: usize) {
        if self.spec.is_repeated() {
            for _ in 0..n {
                if pos.def == self.defs.len() {
                    break;
                }
                *pos = self.record_end(*pos).0;
            }
            return;
        }
        let end = (pos.def + n).min(self.defs.len());
        pos.value += if self.spec.is_key {
            end - pos.def
        } else {
            let max_def = self.spec.max_def;
            self.defs[pos.def..end]
                .iter()
                .filter(|&&def| def == max_def)
                .count()
        };
        pos.def = end;
    }

    /// Append the entries of `src` between two record boundaries — the
    /// record-range column copy of a merge (§4.4): one slice extend of the
    /// definition levels and one of the values, no record assembled. `src`
    /// must be a chunk of the same column.
    pub fn extend_from(&mut self, src: &ColumnChunk, from: ChunkPos, to: ChunkPos) {
        self.defs.extend_from_slice(&src.defs[from.def..to.def]);
        self.values.extend_from_range(&src.values, from.value..to.value);
    }

    /// Append `n` records in which the column is absent from the record root
    /// down: one definition-level-0 entry each, whether or not the column is
    /// repeated. What a column whose top-level field an older component
    /// never saw holds for that component's records.
    pub fn push_absent_records(&mut self, n: usize) {
        debug_assert!(!self.spec.is_key, "every record has a key");
        self.defs.resize(self.defs.len() + n, 0);
    }

    /// The position of the first entry of record `ordinal` (the end of the
    /// chunk when the chunk has fewer records). The first call on a chunk
    /// builds its record-offset index — one pass over `defs`; afterwards a
    /// seek costs a checkpoint read plus at most `SEEK_INTERVAL` (64) record
    /// skips.
    pub fn record_pos(&self, ordinal: usize) -> ChunkPos {
        if self.spec.is_key {
            // One entry and one value per record: the ordinal is the position.
            let at = ordinal.min(self.defs.len());
            return ChunkPos { def: at, value: at };
        }
        let index = self.record_index.0.get_or_init(|| {
            let mut index = vec![ChunkPos::default()];
            let mut pos = ChunkPos::default();
            let mut records = 0usize;
            while pos.def < self.defs.len() {
                self.skip_record(&mut pos);
                records += 1;
                if records.is_multiple_of(SEEK_INTERVAL) {
                    index.push(pos);
                }
            }
            index
        });
        let slot = (ordinal / SEEK_INTERVAL).min(index.len() - 1);
        let mut pos = index[slot];
        for _ in slot * SEEK_INTERVAL..ordinal {
            if pos.def >= self.defs.len() {
                break;
            }
            self.skip_record(&mut pos);
        }
        pos
    }

    /// Encode the chunk into `out`, choosing the values' codec for this
    /// chunk: RLE/bit-packed definition levels, delta-packed integers,
    /// decimal doubles when every value round-trips bit for bit
    /// ([`decimal::choose`]) and plain ones otherwise, bit-vector booleans,
    /// and adaptive delta strings, LZ-compressed when that saves at least
    /// an eighth of their bytes. The chunk is the unit of compression of
    /// the columnar layouts: their pages are stored as written.
    ///
    /// Layout:
    /// ```text
    /// varint entry_count
    /// varint value_count
    /// u8     def bit width
    /// varint encoded-defs length | defs bytes
    /// u8     value tag            | values bytes
    /// ```
    /// The value tag is an [`Encoding`] tag; on a string chunk its high bit
    /// ([`LZ_FLAG`]) says the values bytes are `varint length | LZ stream`,
    /// which expands to the strings' encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let _stage = Stage::ChunkEncode.enter();
        varint::write_u64(out, self.defs.len() as u64);
        varint::write_u64(out, self.values.len() as u64);
        let width = bitpack::bit_width(u64::from(self.spec.max_def.max(1)));
        out.push(width as u8);

        let mut def_bytes = Vec::with_capacity(self.defs.len() / 4 + 8);
        let defs_u64: Vec<u64> = self.defs.iter().map(|&d| u64::from(d)).collect();
        rle::encode(&defs_u64, width, &mut def_bytes);
        varint::write_u64(out, def_bytes.len() as u64);
        out.extend_from_slice(&def_bytes);

        match &self.values {
            ColumnValues::Bool(v) => {
                out.push(Encoding::Plain.tag());
                plain::encode_bool_column(v, out);
            }
            ColumnValues::Int(v) => {
                out.push(Encoding::DeltaBinaryPacked.tag());
                delta::encode(v, out);
            }
            ColumnValues::Double(v) => match decimal::choose(v) {
                Some(exponent) => {
                    out.push(Encoding::Decimal.tag());
                    decimal::encode(v, exponent, out);
                }
                None => {
                    out.push(Encoding::Plain.tag());
                    plain::encode_f64_column(v, out);
                }
            },
            ColumnValues::String(v) => {
                let (enc, bytes) = bytesenc::encode_adaptive(v);
                let packed = compress::compress(&bytes);
                let packed_len = varint::encoded_len_u64(packed.len() as u64) + packed.len();
                if packed_len <= bytes.len() - bytes.len() / 8 {
                    out.push(enc.tag() | LZ_FLAG);
                    varint::write_u64(out, packed.len() as u64);
                    out.extend_from_slice(&packed);
                } else {
                    out.push(enc.tag());
                    out.extend_from_slice(&bytes);
                }
            }
            // The count is the header's value count.
            ColumnValues::Null(_) => out.push(Encoding::Plain.tag()),
        }
    }

    /// Decode a chunk previously produced by [`ColumnChunk::encode`]. The
    /// caller supplies the [`ColumnSpec`] (persisted in the component's
    /// schema) so the right value decoder is used. The header's counts are
    /// untrusted: the level decoder reserves only what its bytes can hold,
    /// so a forged count is an `Err`, not an allocation. So are levels above
    /// the column's maximum, and values that differ in number from the ones
    /// the levels announce (an entry at the maximum level, or every entry of
    /// the key column) — the walks and the assembler index the values by the
    /// levels.
    pub fn decode(spec: ColumnSpec, buf: &[u8], pos: &mut usize) -> Result<ColumnChunk> {
        let entry_count = varint::read_u64(buf, pos)? as usize;
        let value_count = varint::read_u64(buf, pos)? as usize;
        let width = u32::from(*buf.get(*pos).ok_or_else(|| DecodeError::new("truncated chunk"))?);
        *pos += 1;
        let def_len = varint::read_u64(buf, pos)? as usize;
        let def_end = pos
            .checked_add(def_len)
            .ok_or_else(|| DecodeError::new("def length overflow"))?;
        if def_end > buf.len() {
            return Err(DecodeError::new("truncated definition levels"));
        }
        let mut def_pos = *pos;
        let levels_stage = Stage::DecodeLevels.enter();
        let levels = rle::decode(
            &buf[..def_end],
            &mut def_pos,
            entry_count,
            width,
            spec.max_def,
        )?;
        drop(levels_stage);
        *pos = def_end;
        // Every value the levels announce must be stored, and nothing else:
        // a kernel or the assembler indexes the values by the levels.
        let announced = if spec.is_key {
            levels.levels.len()
        } else {
            levels.at_max
        };
        if announced != value_count {
            return Err(DecodeError::new(format!(
                "value count mismatch: levels announce {announced}, header {value_count}"
            )));
        }

        let tag = *buf.get(*pos).ok_or_else(|| DecodeError::new("truncated chunk"))?;
        *pos += 1;
        let enc = Encoding::from_tag(tag & !LZ_FLAG)?;
        let _values_stage = Stage::DecodeValues.enter();
        let values = match (spec.ty, enc, tag & LZ_FLAG != 0) {
            (AtomicType::Bool, Encoding::Plain, false) => {
                ColumnValues::Bool(plain::decode_bool_column(buf, pos)?)
            }
            (AtomicType::Int, Encoding::DeltaBinaryPacked, false) => {
                ColumnValues::Int(delta::decode(buf, pos)?)
            }
            (AtomicType::Double, Encoding::Plain, false) => {
                ColumnValues::Double(plain::decode_f64_column(buf, pos)?)
            }
            (AtomicType::Double, Encoding::Decimal, false) => {
                ColumnValues::Double(decimal::decode(buf, pos)?)
            }
            (AtomicType::String, _, false) => {
                strings(bytesenc::decode_adaptive(enc, buf, pos)?)?
            }
            (AtomicType::Null, Encoding::Plain, false) => ColumnValues::Null(value_count),
            (AtomicType::String, _, true) => {
                let len = encoding::read_count(buf, pos)?;
                let packed = &buf[*pos..*pos + len];
                *pos += len;
                let bytes = {
                    let _stage = Stage::Decompress.enter();
                    compress::decompress(packed)?
                };
                let mut inner = 0;
                let raw = bytesenc::decode_adaptive(enc, &bytes, &mut inner)?;
                if inner != bytes.len() {
                    return Err(DecodeError::new("trailing bytes in a compressed string chunk"));
                }
                strings(raw)?
            }
            (ty, enc, lz) => {
                return Err(DecodeError::new(format!(
                    "a {ty:?} chunk cannot be stored as {enc:?}{}",
                    if lz { " under LZ" } else { "" }
                )))
            }
        };
        if values.len() != value_count {
            return Err(DecodeError::new(format!(
                "value count mismatch: header {value_count}, decoded {}",
                values.len()
            )));
        }
        Ok(ColumnChunk {
            spec,
            defs: levels.levels,
            values,
            record_index: RecordIndex::default(),
        })
    }

    /// Min/max of the stored values for zone-map filtering.
    pub fn min_max(&self) -> Option<(Value, Value)> {
        self.values.min_max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docmodel::Path;
    use schema::AtomicType;

    fn spec(ty: AtomicType, max_def: u16) -> ColumnSpec {
        ColumnSpec {
            id: 7,
            path: Path::parse("x"),
            ty,
            max_def,
            array_levels: vec![],
            is_key: false,
        }
    }

    #[test]
    fn int_chunk_roundtrip() {
        let mut chunk = ColumnChunk::new(spec(AtomicType::Int, 1));
        for i in 0..1000i64 {
            if i % 7 == 0 {
                chunk.defs.push(0);
            } else {
                chunk.defs.push(1);
                chunk.values.push(&Value::Int(i * 3));
            }
        }
        let mut buf = Vec::new();
        chunk.encode(&mut buf);
        let mut pos = 0;
        let back = ColumnChunk::decode(chunk.spec.clone(), &buf, &mut pos).unwrap();
        assert_eq!(back, chunk);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn string_chunk_roundtrip() {
        let mut chunk = ColumnChunk::new(spec(AtomicType::String, 3));
        let words = ["NBA", "NFL", "FIFA", "PES"];
        for i in 0..500 {
            chunk.defs.push(3);
            chunk.values.push(&Value::from(words[i % words.len()]));
            if i % 10 == 0 {
                chunk.defs.push(0); // delimiter entries carry no value
            }
        }
        let mut buf = Vec::new();
        chunk.encode(&mut buf);
        let mut pos = 0;
        let back = ColumnChunk::decode(chunk.spec.clone(), &buf, &mut pos).unwrap();
        assert_eq!(back, chunk);
    }

    #[test]
    fn double_and_bool_chunks_roundtrip() {
        let mut d = ColumnChunk::new(spec(AtomicType::Double, 2));
        let mut b = ColumnChunk::new(spec(AtomicType::Bool, 1));
        for i in 0..300 {
            d.defs.push(2);
            d.values.push(&Value::Double(i as f64 * 0.5));
            b.defs.push(1);
            b.values.push(&Value::Bool(i % 3 == 0));
        }
        for chunk in [&d, &b] {
            let mut buf = Vec::new();
            chunk.encode(&mut buf);
            let mut pos = 0;
            let back = ColumnChunk::decode(chunk.spec.clone(), &buf, &mut pos).unwrap();
            assert_eq!(&back, chunk);
        }
    }

    #[test]
    fn null_chunks_store_levels_only() {
        let mut chunk = ColumnChunk::new(spec(AtomicType::Null, 2));
        for i in 0..100 {
            chunk.defs.push(i % 3);
            if i % 3 == 2 {
                chunk.values.push(&Value::Null);
            }
        }
        let mut buf = Vec::new();
        chunk.encode(&mut buf);
        let mut pos = 0;
        let back = ColumnChunk::decode(chunk.spec.clone(), &buf, &mut pos).unwrap();
        assert_eq!((back.values.len(), pos), (33, buf.len()));
        assert_eq!(back, chunk);
        assert_eq!(back.values.get(5), Value::Null);
        assert_eq!(back.min_max(), Some((Value::Null, Value::Null)));
    }

    #[test]
    fn min_max_statistics() {
        let mut chunk = ColumnChunk::new(spec(AtomicType::Int, 1));
        for v in [5i64, -3, 12, 7] {
            chunk.defs.push(1);
            chunk.values.push(&Value::Int(v));
        }
        let (min, max) = chunk.min_max().unwrap();
        assert_eq!(min, Value::Int(-3));
        assert_eq!(max, Value::Int(12));

        let empty = ColumnChunk::new(spec(AtomicType::String, 1));
        assert!(empty.min_max().is_none());
    }

    #[test]
    fn cmp_at_agrees_with_the_total_order() {
        use docmodel::total_cmp;
        let ints = ColumnValues::Int(vec![-4, 0, 9]);
        let strings = ColumnValues::String(vec!["apple".into(), "pear".into()]);
        let doubles = ColumnValues::Double(vec![0.5, 2.0]);
        let probes = [
            Value::Int(0),
            Value::Int(10),
            Value::Double(8.5),
            Value::from("banana"),
            Value::Bool(true),
            Value::Null,
        ];
        for values in [&ints, &strings, &doubles] {
            for index in 0..values.len() {
                for probe in &probes {
                    assert_eq!(
                        values.cmp_at(index, probe),
                        total_cmp(&values.get(index), probe),
                        "{values:?}[{index}] vs {probe}"
                    );
                }
            }
        }
    }

    #[test]
    fn seek_index_is_lazy_and_invisible_to_equality() {
        let mut chunk = ColumnChunk::new(spec(AtomicType::Int, 1));
        for i in 0..1000i64 {
            chunk.defs.push(u16::from(i % 3 != 0));
            if i % 3 != 0 {
                chunk.values.push(&Value::Int(i));
            }
        }
        let untouched = chunk.clone();
        assert!(
            chunk.record_index.0.get().is_none(),
            "decode builds no index"
        );
        // Record 700: 700 entries in, past the values of the non-multiples
        // of three below it.
        let pos = chunk.record_pos(700);
        assert_eq!((pos.def, pos.value), (700, 700 - 234));
        assert!(chunk.record_index.0.get().is_some());
        assert_eq!(chunk, untouched);
        assert!(chunk.clone().record_index.0.get().is_none());
        assert!(chunk.seek_index_bytes() >= (1000 / SEEK_INTERVAL) * 16);
        // The key column answers from the ordinal and is charged nothing.
        chunk.spec.is_key = true;
        assert_eq!(chunk.seek_index_bytes(), 0);
    }

    /// The kernel primitives agree with what assembling the records and
    /// walking the documents would see, including across skipped records.
    #[test]
    fn record_and_element_walks_match_the_documents() {
        use crate::cursor::ColumnWalk;
        use crate::shred::shred_records;
        use docmodel::doc;
        use schema::SchemaBuilder;
        use std::sync::Arc;

        let records = vec![
            doc!({"id": 0, "score": 5, "readings": [{"temp": 1.5, "seq": 0}, {"seq": 1}]}),
            doc!({"id": 1}),
            doc!({"id": 2, "score": 7, "readings": []}),
            doc!({"id": 3, "readings": [{"temp": 2.5, "seq": 0}]}),
            doc!({"id": 4, "score": 9, "readings": [{"seq": 0}, {"temp": 3.5, "seq": 1}, {"temp": 4.5}]}),
        ];
        let mut builder = SchemaBuilder::new(Some("id".to_string()));
        builder.observe_all(records.iter());
        let schema = builder.into_schema();
        let batch = shred_records(&schema, &records);
        let walk = |path: &str| {
            let chunk = batch
                .columns
                .iter()
                .find(|c| c.spec.path == Path::parse(path));
            ColumnWalk::new(Arc::new(chunk.unwrap().clone()))
        };

        // Record-level column: the value index of each record, or None,
        // from every start position.
        let scores = [Some(5i64), None, Some(7), None, Some(9)];
        for first in 0..records.len() {
            let mut score = walk("score");
            for (ordinal, want) in scores.iter().enumerate().skip(first) {
                let got = score.value_index(ordinal).map(|i| score.values().get(i));
                assert_eq!(got, want.map(Value::Int), "record {ordinal} from {first}");
            }
        }
        // The key column holds a value for every entry.
        assert_eq!(walk("id").value_index(3), Some(3));

        // Element walk: the values of the elements holding `temp`, and how
        // many elements there are; absent and empty arrays have none; every
        // start position, and every gap between the records asked, works.
        let want: [(&[f64], usize); 5] = [
            (&[1.5], 2),
            (&[], 0),
            (&[], 0),
            (&[2.5], 1),
            (&[3.5, 4.5], 3),
        ];
        for first in 0..records.len() {
            for stride in 1..3 {
                let mut temp = walk("readings[*].temp");
                for (ordinal, (values, count)) in
                    want.iter().enumerate().skip(first).step_by(stride)
                {
                    let elements = temp.elements(ordinal);
                    assert_eq!(elements.count, *count, "record {ordinal}");
                    assert_eq!(elements.lacking(), count - values.len());
                    let seen: Vec<Value> = elements.values.map(|i| temp.values().get(i)).collect();
                    let want: Vec<Value> = values.iter().map(|&d| Value::Double(d)).collect();
                    assert_eq!(seen, want, "record {ordinal} from {first}");
                }
                if stride == 1 {
                    let end = temp.chunk.entry_count();
                    assert_eq!(temp.pos.def, end, "the walk ends with the chunk");
                }
            }
        }

        // A run of records as one span: its records' elements joined, and
        // for a record-level column its records' values; after a gap, too.
        for first in 0..records.len() {
            for last in first..=records.len() {
                let mut temp = walk("readings[*].temp");
                let mut score = walk("score");
                if first > 0 {
                    temp.span(0..first - 1);
                    score.span(0..first - 1);
                }
                let elements = temp.span(first..last);
                let joined: Vec<f64> = want[first..last]
                    .iter()
                    .flat_map(|w| w.0)
                    .copied()
                    .collect();
                let seen: Vec<Value> = elements.values.map(|i| temp.values().get(i)).collect();
                let joined: Vec<Value> = joined.into_iter().map(Value::Double).collect();
                assert_eq!(seen, joined, "records {first}..{last}");
                let count: usize = want[first..last].iter().map(|w| w.1).sum();
                assert_eq!(elements.count, count, "records {first}..{last}");
                let present = score.span(first..last);
                assert_eq!(present.count, last - first);
                let seen: Vec<Value> = present.values.map(|i| score.values().get(i)).collect();
                let joined: Vec<Value> = scores[first..last]
                    .iter()
                    .flatten()
                    .map(|&s| Value::Int(s))
                    .collect();
                assert_eq!(seen, joined, "records {first}..{last}");
            }
        }
    }

    #[test]
    fn corrupted_chunk_is_an_error() {
        let mut chunk = ColumnChunk::new(spec(AtomicType::Int, 1));
        for i in 0..50 {
            chunk.defs.push(1);
            chunk.values.push(&Value::Int(i));
        }
        let mut buf = Vec::new();
        chunk.encode(&mut buf);
        for cut in [1usize, 3, buf.len() / 2] {
            let mut pos = 0;
            assert!(ColumnChunk::decode(chunk.spec.clone(), &buf[..cut], &mut pos).is_err());
        }
    }

    /// The entry count leads the chunk and is untrusted: rewritten to 2^40
    /// it once reserved 8 TiB of levels and aborted the process.
    #[test]
    fn forged_entry_count_is_an_error_not_an_allocation() {
        let mut chunk = ColumnChunk::new(spec(AtomicType::Int, 1));
        for i in 0..50 {
            chunk.defs.push(1);
            chunk.values.push(&Value::Int(i));
        }
        let mut buf = Vec::new();
        chunk.encode(&mut buf);
        let mut pos = 0;
        varint::read_u64(&buf, &mut pos).unwrap();
        let mut forged = Vec::new();
        varint::write_u64(&mut forged, 1 << 40);
        forged.extend_from_slice(&buf[pos..]);
        let mut pos = 0;
        assert!(ColumnChunk::decode(chunk.spec.clone(), &forged, &mut pos).is_err());
    }

    #[test]
    #[should_panic(expected = "cannot store value")]
    fn pushing_wrong_type_panics() {
        let mut values = ColumnValues::empty(AtomicType::Int);
        values.push(&Value::from("not an int"));
    }

    #[test]
    fn values_accessors() {
        let mut v = ColumnValues::empty(AtomicType::String);
        assert!(v.is_empty());
        v.push(&Value::from("a"));
        v.push(&Value::from("b"));
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(1), Value::from("b"));
        assert_eq!(v.ty(), AtomicType::String);
        assert!(v.approx_bytes() > 0);
    }
}

//! Schema persistence.
//!
//! The tuple compactor persists the inferred schema into each flushed
//! component's *metadata page* so that readers can interpret the component's
//! columns, and so that later builders (and merges) can resume from the most
//! recent schema. The encoding is a simple tagged pre-order dump of the node
//! arena — node ids are positions, so they survive the round trip unchanged,
//! preserving column-id stability.

use crate::node::{BranchKind, NodeId, Schema, SchemaNode};
use crate::types::AtomicType;
use encoding::{plain, read_count, varint, DecodeError, DecodeResult};

const TAG_OBJECT: u8 = 0;
const TAG_ARRAY: u8 = 1;
const TAG_UNION: u8 = 2;
const TAG_ATOMIC: u8 = 3;

const BRANCH_OBJECT: u8 = 100;
const BRANCH_ARRAY: u8 = 101;

/// Serialize `schema` into `out`.
pub fn write_schema(schema: &Schema, out: &mut Vec<u8>) {
    match schema.key_field() {
        Some(k) => {
            out.push(1);
            plain::write_str(out, k);
        }
        None => out.push(0),
    }
    varint::write_u64(out, schema.node_count() as u64);
    for (_, node) in schema.iter() {
        match node {
            SchemaNode::Object { fields } => {
                out.push(TAG_OBJECT);
                varint::write_u64(out, fields.len() as u64);
                for (name, child) in fields {
                    plain::write_str(out, name);
                    varint::write_u64(out, u64::from(*child));
                }
            }
            SchemaNode::Array { item } => {
                out.push(TAG_ARRAY);
                match item {
                    Some(id) => {
                        out.push(1);
                        varint::write_u64(out, u64::from(*id));
                    }
                    None => out.push(0),
                }
            }
            SchemaNode::Union { branches } => {
                out.push(TAG_UNION);
                varint::write_u64(out, branches.len() as u64);
                for (kind, child) in branches {
                    out.push(branch_tag(*kind));
                    varint::write_u64(out, u64::from(*child));
                }
            }
            SchemaNode::Atomic { ty } => {
                out.push(TAG_ATOMIC);
                out.push(ty.tag());
            }
        }
    }
}

/// Deserialize a schema previously written with [`write_schema`].
pub fn read_schema(buf: &[u8], pos: &mut usize) -> DecodeResult<Schema> {
    let has_key = read_u8(buf, pos)?;
    let key_field = if has_key == 1 {
        Some(plain::read_str(buf, pos)?.to_string())
    } else {
        None
    };
    let node_count = read_count(buf, pos)?;
    let mut schema = Schema::new(key_field);
    for i in 0..node_count {
        let node = read_node(buf, pos)?;
        if i == 0 {
            // Node 0 is the root object; fill in the placeholder created by
            // Schema::new so that ids keep their original positions.
            match node {
                SchemaNode::Object { fields } => {
                    if let SchemaNode::Object { fields: slot } = schema.node_mut(0) {
                        *slot = fields;
                    }
                }
                _ => return Err(DecodeError::new("schema root must be an object")),
            }
        } else {
            schema.push(node);
        }
    }
    validate(&schema, node_count)?;
    Ok(schema)
}

fn read_node(buf: &[u8], pos: &mut usize) -> DecodeResult<SchemaNode> {
    let tag = read_u8(buf, pos)?;
    Ok(match tag {
        TAG_OBJECT => {
            let n = read_count(buf, pos)?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let name = plain::read_str(buf, pos)?.to_string();
                let child = varint::read_u64(buf, pos)? as NodeId;
                fields.push((name, child));
            }
            SchemaNode::Object { fields }
        }
        TAG_ARRAY => {
            let has_item = read_u8(buf, pos)?;
            let item = if has_item == 1 {
                Some(varint::read_u64(buf, pos)? as NodeId)
            } else {
                None
            };
            SchemaNode::Array { item }
        }
        TAG_UNION => {
            let n = read_count(buf, pos)?;
            let mut branches = Vec::with_capacity(n);
            for _ in 0..n {
                let kind = read_branch_tag(read_u8(buf, pos)?)?;
                let child = varint::read_u64(buf, pos)? as NodeId;
                branches.push((kind, child));
            }
            SchemaNode::Union { branches }
        }
        TAG_ATOMIC => {
            let ty = AtomicType::from_tag(read_u8(buf, pos)?)
                .ok_or_else(|| DecodeError::new("invalid atomic type tag"))?;
            SchemaNode::Atomic { ty }
        }
        other => return Err(DecodeError::new(format!("invalid schema node tag {other}"))),
    })
}

fn branch_tag(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Atomic(t) => t.tag(),
        BranchKind::Object => BRANCH_OBJECT,
        BranchKind::Array => BRANCH_ARRAY,
    }
}

fn read_branch_tag(tag: u8) -> DecodeResult<BranchKind> {
    Ok(match tag {
        BRANCH_OBJECT => BranchKind::Object,
        BRANCH_ARRAY => BranchKind::Array,
        t => BranchKind::Atomic(
            AtomicType::from_tag(t).ok_or_else(|| DecodeError::new("invalid branch tag"))?,
        ),
    })
}

fn read_u8(buf: &[u8], pos: &mut usize) -> DecodeResult<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| DecodeError::new("truncated schema"))?;
    *pos += 1;
    Ok(b)
}

/// Reject schemas whose child references point outside the arena — corrupt
/// metadata must not cause panics deeper in the read path.
fn validate(schema: &Schema, node_count: usize) -> DecodeResult<()> {
    for (_, node) in schema.iter() {
        let check = |id: NodeId| -> DecodeResult<()> {
            if (id as usize) < node_count {
                Ok(())
            } else {
                Err(DecodeError::new("schema child id out of range"))
            }
        };
        match node {
            SchemaNode::Object { fields } => {
                for (_, c) in fields {
                    check(*c)?;
                }
            }
            SchemaNode::Array { item } => {
                if let Some(c) = item {
                    check(*c)?;
                }
            }
            SchemaNode::Union { branches } => {
                for (_, c) in branches {
                    check(*c)?;
                }
            }
            SchemaNode::Atomic { .. } => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::columns_of;
    use crate::infer::SchemaBuilder;
    use docmodel::doc;

    fn sample_schema() -> Schema {
        let mut b = SchemaBuilder::new(Some("id".to_string()));
        b.observe(&doc!({"id": 1, "name": {"first": "A"}, "games": [{"title": "NBA", "consoles": ["PS4"]}]}));
        b.observe(&doc!({"id": 2, "name": "plain string", "score": 3.5, "flags": [true, false]}));
        b.into_schema()
    }

    #[test]
    fn roundtrip_preserves_schema_and_column_ids() {
        let schema = sample_schema();
        let mut buf = Vec::new();
        write_schema(&schema, &mut buf);
        let mut pos = 0;
        let back = read_schema(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back, schema);
        assert_eq!(columns_of(&back), columns_of(&schema));
    }

    #[test]
    fn roundtrip_empty_schema() {
        let schema = Schema::new(None);
        let mut buf = Vec::new();
        write_schema(&schema, &mut buf);
        let mut pos = 0;
        let back = read_schema(&buf, &mut pos).unwrap();
        assert_eq!(back, schema);
        assert_eq!(back.key_field(), None);
    }

    #[test]
    fn truncated_schema_is_an_error() {
        let schema = sample_schema();
        let mut buf = Vec::new();
        write_schema(&schema, &mut buf);
        for cut in [0, 1, 3, buf.len() / 2, buf.len() - 1] {
            let mut pos = 0;
            assert!(read_schema(&buf[..cut], &mut pos).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_node_tag_is_an_error() {
        let schema = sample_schema();
        let mut buf = Vec::new();
        write_schema(&schema, &mut buf);
        // The first node tag sits right after the key-field header.
        let key_header_len = 1 + 1 + 2; // flag byte, varint len (1), "id"
        buf[key_header_len + 1] = 99;
        let mut pos = 0;
        assert!(read_schema(&buf, &mut pos).is_err());
    }

    #[test]
    fn out_of_range_child_is_rejected() {
        // Hand-craft a schema whose root references node 7 which does not exist.
        let mut buf = Vec::new();
        buf.push(0); // no key field
        varint::write_u64(&mut buf, 1); // one node
        buf.push(TAG_OBJECT);
        varint::write_u64(&mut buf, 1);
        plain::write_str(&mut buf, "dangling");
        varint::write_u64(&mut buf, 7);
        let mut pos = 0;
        assert!(read_schema(&buf, &mut pos).is_err());
    }

    /// A forged node, field or branch count of 2^40 is an `Err` before
    /// anything is reserved for it.
    #[test]
    fn forged_counts_are_errors_not_allocations() {
        let forged = |body: &[u8]| {
            let mut buf = vec![0]; // no key field
            buf.extend_from_slice(body);
            varint::write_u64(&mut buf, 1 << 40);
            buf.extend_from_slice(&[0; 32]);
            let mut pos = 0;
            read_schema(&buf, &mut pos).unwrap_err().message
        };
        assert!(forged(&[]).contains("exceeds"), "node count");
        assert!(forged(&[1, TAG_OBJECT]).contains("exceeds"), "field count");
        let branches = forged(&[2, TAG_OBJECT, 1, 1, b'u', 1, TAG_UNION]);
        assert!(branches.contains("exceeds"), "branch count");
    }

    #[test]
    fn schema_followed_by_other_data() {
        let schema = sample_schema();
        let mut buf = Vec::new();
        write_schema(&schema, &mut buf);
        let schema_len = buf.len();
        buf.extend_from_slice(b"TRAILER");
        let mut pos = 0;
        let back = read_schema(&buf, &mut pos).unwrap();
        assert_eq!(pos, schema_len);
        assert_eq!(back, schema);
    }
}

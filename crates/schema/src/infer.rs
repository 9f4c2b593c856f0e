//! Single-pass schema inference with union introduction.
//!
//! The builder is fed records one by one (the tuple compactor does this
//! during the LSM flush) and grows the schema monotonically: fields are only
//! ever added, and type conflicts are resolved by *interposing a union node*
//! above the existing child. Because the arena is append-only, the existing
//! child — and every column below it — keeps its [`NodeId`], so columns that
//! were already written in earlier flushes remain addressable without
//! rewriting their definition levels (§3.2.2 of the paper).
//!
//! Nothing a record holds is skipped: `null` is an atomic type, so a field
//! or an array element seen as `null` creates (or joins, through a union) a
//! `Null` branch, and an empty array or object creates its node with no
//! children yet. The tuple-compaction paper (arXiv 1910.08185) keeps the
//! same facts about a field seen only empty or `null`: its node is there,
//! and a later sighting promotes it through the union path above.

use crate::node::{BranchKind, NodeId, Schema, SchemaNode};
use docmodel::Value;

/// Incremental schema inference.
#[derive(Debug, Clone)]
pub struct SchemaBuilder {
    schema: Schema,
    records_observed: u64,
}

impl SchemaBuilder {
    /// Create a builder, optionally declaring which root field is the
    /// primary key (the only piece of schema a dataset declares up front,
    /// exactly as in AsterixDB).
    pub fn new(key_field: Option<String>) -> SchemaBuilder {
        SchemaBuilder {
            schema: Schema::new(key_field),
            records_observed: 0,
        }
    }

    /// Start from an existing schema (e.g. the schema persisted by the most
    /// recent flushed component) and keep growing it.
    pub fn from_schema(schema: Schema) -> SchemaBuilder {
        SchemaBuilder {
            schema,
            records_observed: 0,
        }
    }

    /// The current inferred schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Consume the builder, returning the schema.
    pub fn into_schema(self) -> Schema {
        self.schema
    }

    /// Number of records observed by this builder instance.
    pub fn records_observed(&self) -> u64 {
        self.records_observed
    }

    /// Observe one record (must be an object) and update the schema.
    pub fn observe(&mut self, record: &Value) {
        self.records_observed += 1;
        let root = self.schema.root();
        if let Value::Object(fields) = record {
            for (name, value) in fields {
                self.observe_field(root, name, value);
            }
        }
    }

    /// Observe a batch of records.
    pub fn observe_all<'a>(&mut self, records: impl IntoIterator<Item = &'a Value>) {
        for r in records {
            self.observe(r);
        }
    }

    fn observe_field(&mut self, object: NodeId, name: &str, value: &Value) {
        match self.schema.object_field(object, name) {
            Some(child) => {
                let resolved = self.observe_value(child, value);
                if resolved != child {
                    // A union was interposed: redirect the parent edge.
                    if let SchemaNode::Object { fields } = self.schema.node_mut(object) {
                        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == name) {
                            slot.1 = resolved;
                        }
                    }
                }
            }
            None => {
                let child = self.create_node_for(value);
                if let SchemaNode::Object { fields } = self.schema.node_mut(object) {
                    fields.push((name.to_string(), child));
                }
                self.populate(child, value);
            }
        }
    }

    /// Observe `value` against the existing node `id`. Returns the node that
    /// should now occupy this position: `id` itself, or a newly created union
    /// node when the types conflict.
    fn observe_value(&mut self, id: NodeId, value: &Value) -> NodeId {
        let value_kind = BranchKind::of(value);
        let node_kind = match self.schema.node(id) {
            SchemaNode::Union { .. } => None,
            node => Some(node.branch_kind()),
        };
        match node_kind {
            // The node is already a union: find or add the branch.
            None => {
                let branch = self.union_branch(id, value_kind);
                self.populate(branch, value);
                id
            }
            // Same kind: descend.
            Some(kind) if kind == value_kind => {
                self.populate(id, value);
                id
            }
            // Kind conflict: interpose a union above the existing node.
            Some(existing_kind) => {
                let union_id = self
                    .schema
                    .push(SchemaNode::Union { branches: vec![(existing_kind, id)] });
                let branch = self.union_branch(union_id, value_kind);
                self.populate(branch, value);
                union_id
            }
        }
    }

    /// Find or create the branch of union `union_id` for `kind`.
    fn union_branch(&mut self, union_id: NodeId, kind: BranchKind) -> NodeId {
        if let SchemaNode::Union { branches } = self.schema.node(union_id) {
            if let Some((_, id)) = branches.iter().find(|(k, _)| *k == kind) {
                return *id;
            }
        }
        let new_branch = self.schema.push(Self::empty_node_of(kind));
        if let SchemaNode::Union { branches } = self.schema.node_mut(union_id) {
            branches.push((kind, new_branch));
        }
        new_branch
    }

    /// Descend into `value`'s children, assuming node `id` already has the
    /// right kind for `value`.
    fn populate(&mut self, id: NodeId, value: &Value) {
        match value {
            Value::Object(fields) => {
                for (name, v) in fields {
                    self.observe_field(id, name, v);
                }
            }
            Value::Array(elems) => {
                for elem in elems {
                    let item = match self.schema.node(id) {
                        SchemaNode::Array { item } => *item,
                        _ => unreachable!("populate(array) on non-array node"),
                    };
                    match item {
                        Some(item_id) => {
                            let resolved = self.observe_value(item_id, elem);
                            if resolved != item_id {
                                if let SchemaNode::Array { item } = self.schema.node_mut(id) {
                                    *item = Some(resolved);
                                }
                            }
                        }
                        None => {
                            let item_id = self.create_node_for(elem);
                            if let SchemaNode::Array { item } = self.schema.node_mut(id) {
                                *item = Some(item_id);
                            }
                            self.populate(item_id, elem);
                        }
                    }
                }
            }
            // Atomic values: the node already records the type.
            _ => {}
        }
    }

    fn create_node_for(&mut self, value: &Value) -> NodeId {
        self.schema.push(Self::empty_node_of(BranchKind::of(value)))
    }

    fn empty_node_of(kind: BranchKind) -> SchemaNode {
        match kind {
            BranchKind::Atomic(ty) => SchemaNode::Atomic { ty },
            BranchKind::Object => SchemaNode::Object { fields: Vec::new() },
            BranchKind::Array => SchemaNode::Array { item: None },
        }
    }
}

/// Convenience: infer a schema from a slice of records in one call.
pub fn infer_schema(records: &[Value], key_field: Option<String>) -> Schema {
    let mut b = SchemaBuilder::new(key_field);
    b.observe_all(records);
    b.into_schema()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SchemaNode;
    use crate::types::AtomicType;
    use docmodel::{doc, Path};

    #[test]
    fn simple_flat_schema() {
        let mut b = SchemaBuilder::new(Some("id".to_string()));
        b.observe(&doc!({"id": 0, "name": "Kim", "age": 26}));
        b.observe(&doc!({"id": 1, "name": "John", "age": 22}));
        let s = b.schema();
        assert_eq!(s.column_count(), 3);
        assert_eq!(s.key_field(), Some("id"));
        let age = s.resolve_path(&Path::parse("age")).unwrap();
        assert!(matches!(s.node(age), SchemaNode::Atomic { ty: AtomicType::Int }));
        assert_eq!(b.records_observed(), 2);
    }

    #[test]
    fn missing_fields_do_not_create_columns() {
        let mut b = SchemaBuilder::new(None);
        b.observe(&doc!({"a": 1}));
        b.observe(&doc!({"b": "x"}));
        let s = b.schema();
        assert_eq!(s.column_count(), 2);
        assert!(s.resolve_path(&Path::parse("c")).is_none());
    }

    #[test]
    fn nulls_and_empty_containers_create_columns() {
        let mut b = SchemaBuilder::new(None);
        b.observe(&doc!({"c": null, "t": [], "o": {}, "xs": [null]}));
        let s = b.schema();
        assert_eq!(s.column_count(), 4);
        let c = s.resolve_path(&Path::parse("c")).unwrap();
        assert!(matches!(
            s.node(c),
            SchemaNode::Atomic {
                ty: AtomicType::Null
            }
        ));
        let t = s.resolve_path(&Path::parse("t")).unwrap();
        assert!(matches!(s.node(t), SchemaNode::Array { item: None }));
        assert!(s.owns_column(t));
        let o = s.resolve_path(&Path::parse("o")).unwrap();
        assert!(s.owns_column(o) && !s.owns_column(s.root()));
        assert!(s.resolve_path(&Path::parse("xs[*]")).is_some());

        // `null` then a value: a union whose `null` branch keeps its id.
        b.observe(&doc!({"c": 5, "t": ["x"]}));
        let s = b.schema();
        let union = s.resolve_path(&Path::parse("c")).unwrap();
        assert!(matches!(s.node(union), SchemaNode::Union { .. }));
        assert_eq!(
            s.resolve_path(&Path::parse("c").union_branch("null")),
            Some(c)
        );
        assert!(!s.owns_column(t), "an array with items owns no column");
    }

    #[test]
    fn type_conflict_creates_union_and_keeps_old_node_id() {
        let mut b = SchemaBuilder::new(None);
        b.observe(&doc!({"age": 25}));
        let old_id = b.schema().resolve_path(&Path::parse("age")).unwrap();

        b.observe(&doc!({"age": "old"}));
        let s = b.schema();
        let age_node = s.resolve_path(&Path::parse("age")).unwrap();
        match s.node(age_node) {
            SchemaNode::Union { branches } => {
                assert_eq!(branches.len(), 2);
                // The int branch is the pre-existing node: same id as before.
                let (_, int_branch) = branches
                    .iter()
                    .find(|(k, _)| *k == BranchKind::Atomic(AtomicType::Int))
                    .unwrap();
                assert_eq!(*int_branch, old_id);
            }
            other => panic!("expected union, got {other:?}"),
        }
        // Levels: both branches sit at level 1 (union does not count).
        let int_branch = s
            .resolve_path(&Path::parse("age").union_branch("int"))
            .unwrap();
        let str_branch = s
            .resolve_path(&Path::parse("age").union_branch("string"))
            .unwrap();
        assert_eq!(s.level_of(int_branch), Some(1));
        assert_eq!(s.level_of(str_branch), Some(1));
    }

    #[test]
    fn paper_figure6_schema() {
        // name: union(string, object{first,last});
        // games: array of union(string, array of string).
        let mut b = SchemaBuilder::new(None);
        b.observe(&doc!({"name": "John", "games": ["NBA", ["FIFA", "PES"], "NFL"]}));
        b.observe(&doc!({"name": {"first": "Ann", "last": "Brown"}, "games": ["NFL", "NBA"]}));
        let s = b.schema();

        let name = s.resolve_path(&Path::parse("name")).unwrap();
        assert!(matches!(s.node(name), SchemaNode::Union { .. }));
        assert!(s.resolve_path(&Path::parse("name.first")).is_some());
        assert!(s.resolve_path(&Path::parse("name.last")).is_some());

        let games_item = s.resolve_path(&Path::parse("games[*]")).unwrap();
        assert!(matches!(s.node(games_item), SchemaNode::Union { .. }));
        assert!(s.resolve_path(&Path::parse("games[*][*]")).is_some());
        // Columns: name<string>, first, last, games[*]<string>, games[*][*].
        assert_eq!(s.column_count(), 5);
    }

    #[test]
    fn heterogeneous_array_elements() {
        // [0, "1", {"seq": 2}] — the example from §3.2.2.
        let mut b = SchemaBuilder::new(None);
        b.observe(&doc!({"xs": [0, "1", {"seq": 2}]}));
        let s = b.schema();
        let item = s.resolve_path(&Path::parse("xs[*]")).unwrap();
        match s.node(item) {
            SchemaNode::Union { branches } => assert_eq!(branches.len(), 3),
            other => panic!("expected union, got {other:?}"),
        }
        assert!(s.resolve_path(&Path::parse("xs[*].seq")).is_some());
    }

    #[test]
    fn nested_object_to_array_conflict() {
        let mut b = SchemaBuilder::new(None);
        b.observe(&doc!({"addr": {"country": "US"}}));
        b.observe(&doc!({"addr": [{"country": "DE"}, {"country": "FR"}]}));
        let s = b.schema();
        let addr = s.resolve_path(&Path::parse("addr")).unwrap();
        assert!(matches!(s.node(addr), SchemaNode::Union { .. }));
        // Both the object branch and the array branch have a country column.
        assert!(s.resolve_path(&Path::parse("addr.country")).is_some());
        assert!(s.resolve_path(&Path::parse("addr[*].country")).is_some());
        assert_eq!(s.column_count(), 2);
    }

    #[test]
    fn inference_is_idempotent_for_repeated_records() {
        let rec = doc!({"id": 1, "a": {"b": [1, 2, 3]}, "s": "x"});
        let mut b = SchemaBuilder::new(None);
        b.observe(&rec);
        let after_one = b.schema().clone();
        for _ in 0..10 {
            b.observe(&rec);
        }
        assert_eq!(b.schema(), &after_one);
    }

    #[test]
    fn later_schema_is_superset_of_earlier() {
        // The property the paper relies on when persisting only the latest
        // flushed component's schema.
        let mut b = SchemaBuilder::new(None);
        b.observe(&doc!({"a": 1}));
        let early = b.schema().clone();
        b.observe(&doc!({"a": 1, "b": {"c": "x"}}));
        b.observe(&doc!({"a": "now a string"}));
        let late = b.schema().clone();
        // Every column resolvable in the early schema resolves (same id) in
        // the late schema.
        for (id, node) in early.iter() {
            if matches!(node, SchemaNode::Atomic { .. }) {
                assert!(matches!(late.node(id), SchemaNode::Atomic { .. }));
            }
        }
        assert!(late.column_count() >= early.column_count());
    }

    #[test]
    fn from_schema_continues_growing() {
        let mut b = SchemaBuilder::new(None);
        b.observe(&doc!({"a": 1}));
        let snapshot = b.schema().clone();
        let mut b2 = SchemaBuilder::from_schema(snapshot);
        b2.observe(&doc!({"b": 2.5}));
        assert_eq!(b2.schema().column_count(), 2);
    }

    #[test]
    fn infer_schema_helper() {
        let records = vec![doc!({"x": 1}), doc!({"y": "s"})];
        let s = infer_schema(&records, None);
        assert_eq!(s.column_count(), 2);
    }
}

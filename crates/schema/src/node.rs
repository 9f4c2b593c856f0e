//! The arena-backed schema tree.
//!
//! Nodes are stored in a `Vec` and referenced by [`NodeId`]. The arena is
//! append-only: ids are never reused and never change, which gives every
//! atomic leaf a stable identity even as the schema evolves (new fields are
//! appended, and when a field's type changes the *parent edge* is redirected
//! to a freshly allocated union node whose first branch is the old child —
//! the old child's id, and therefore its column id, is untouched).

use crate::types::AtomicType;
use docmodel::{Path, Value, ValueKind};

/// Identifier of a schema node. Stable for the lifetime of a dataset.
pub type NodeId = u32;

/// Key of a union branch: the dynamic type the branch covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// An atomic branch of the given type.
    Atomic(AtomicType),
    /// An object branch.
    Object,
    /// An array branch.
    Array,
}

impl BranchKind {
    /// The branch kind a value belongs to (`null` is an atomic type).
    pub fn of(value: &Value) -> BranchKind {
        match (value.kind(), AtomicType::of(value)) {
            (_, Some(ty)) => BranchKind::Atomic(ty),
            (ValueKind::Array, None) => BranchKind::Array,
            (_, None) => BranchKind::Object,
        }
    }

    /// Human-readable name, matching the paper's union-child keys.
    pub fn name(self) -> &'static str {
        match self {
            BranchKind::Atomic(t) => t.name(),
            BranchKind::Object => "object",
            BranchKind::Array => "array",
        }
    }
}

/// One node of the inferred schema tree.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaNode {
    /// An object with named, insertion-ordered children.
    Object {
        /// Field name → child node, in first-observation order.
        fields: Vec<(String, NodeId)>,
    },
    /// An array. `item` is `None` while the array was only seen empty.
    Array {
        /// The element schema (possibly a union).
        item: Option<NodeId>,
    },
    /// A union of heterogeneous alternatives, keyed by type.
    Union {
        /// Branches in first-observation order.
        branches: Vec<(BranchKind, NodeId)>,
    },
    /// An atomic leaf — exactly one column.
    Atomic {
        /// The column's value type.
        ty: AtomicType,
    },
}

impl SchemaNode {
    /// The branch kind this node would occupy inside a union.
    pub fn branch_kind(&self) -> BranchKind {
        match self {
            SchemaNode::Object { .. } => BranchKind::Object,
            SchemaNode::Array { .. } => BranchKind::Array,
            SchemaNode::Atomic { ty } => BranchKind::Atomic(*ty),
            SchemaNode::Union { .. } => {
                unreachable!("unions are never nested directly inside unions")
            }
        }
    }
}

/// The inferred schema of one dataset (or one LSM component).
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    nodes: Vec<SchemaNode>,
    root: NodeId,
    /// Name of the root field that is the primary key, if declared.
    key_field: Option<String>,
}

impl Schema {
    /// Create an empty schema (a root object with no fields).
    pub fn new(key_field: Option<String>) -> Schema {
        Schema {
            nodes: vec![SchemaNode::Object { fields: Vec::new() }],
            root: 0,
            key_field,
        }
    }

    /// The root object node id (always 0).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The declared primary-key field, if any.
    pub fn key_field(&self) -> Option<&str> {
        self.key_field.as_deref()
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &SchemaNode {
        &self.nodes[id as usize]
    }

    /// Mutably borrow a node (used by the inference pass).
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut SchemaNode {
        &mut self.nodes[id as usize]
    }

    /// Append a node and return its id.
    pub(crate) fn push(&mut self, node: SchemaNode) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(node);
        id
    }

    /// Total number of nodes (atomic + nested).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of columns: of nodes that [own one](Schema::owns_column).
    pub fn column_count(&self) -> usize {
        (0..self.nodes.len() as NodeId)
            .filter(|&id| self.owns_column(id))
            .count()
    }

    /// Whether node `id` is a column of its own: an atomic leaf, or a
    /// container other than the root with no children — an array only ever
    /// seen as `[]`, an object only ever seen as `{}`. Every other node has
    /// such a node beneath it, so whatever a record holds at a node, some
    /// column says so.
    pub fn owns_column(&self, id: NodeId) -> bool {
        match self.node(id) {
            SchemaNode::Atomic { .. } => true,
            SchemaNode::Array { item } => item.is_none(),
            SchemaNode::Object { fields } => fields.is_empty() && id != self.root,
            SchemaNode::Union { .. } => false,
        }
    }

    /// Iterate over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &SchemaNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (i as NodeId, n))
    }

    /// Look up the child of an object node by field name.
    pub fn object_field(&self, object: NodeId, name: &str) -> Option<NodeId> {
        match self.node(object) {
            SchemaNode::Object { fields } => {
                fields.iter().find(|(k, _)| k == name).map(|(_, id)| *id)
            }
            _ => None,
        }
    }

    /// Resolve a (field/array) [`Path`] to the node it addresses, looking
    /// *through* union nodes: at each step, if the current node is a union,
    /// every branch that can continue the path is considered and the first
    /// match wins (the query layer handles multi-branch access explicitly).
    pub fn resolve_path(&self, path: &Path) -> Option<NodeId> {
        let mut current = self.root;
        for step in path.steps() {
            current = self.step(current, step)?;
        }
        Some(current)
    }

    /// Resolve one path step from `id`, looking through unions.
    pub fn step(&self, id: NodeId, step: &docmodel::PathStep) -> Option<NodeId> {
        use docmodel::PathStep;
        // Candidate nodes to try the step against: the node itself, or every
        // branch when it is a union.
        let candidates: Vec<NodeId> = match self.node(id) {
            SchemaNode::Union { branches } => branches.iter().map(|(_, b)| *b).collect(),
            _ => vec![id],
        };
        for cand in candidates {
            match (step, self.node(cand)) {
                (PathStep::Field(name), SchemaNode::Object { fields }) => {
                    if let Some((_, child)) = fields.iter().find(|(k, _)| k == name) {
                        return Some(*child);
                    }
                }
                (PathStep::AllElements, SchemaNode::Array { item: Some(item) }) => {
                    return Some(*item);
                }
                (PathStep::Union(type_name), node)
                    if node.branch_kind().name() == *type_name => {
                        return Some(cand);
                    }
                _ => {}
            }
        }
        None
    }

    /// Definition level of a node: the number of field and array-item steps
    /// on the path from the root (union steps do not count, per §3.2.2).
    /// The root has level 0.
    pub fn level_of(&self, target: NodeId) -> Option<u16> {
        fn walk(schema: &Schema, id: NodeId, target: NodeId, level: u16) -> Option<u16> {
            if id == target {
                return Some(level);
            }
            match schema.node(id) {
                SchemaNode::Object { fields } => fields
                    .iter()
                    .find_map(|(_, child)| walk(schema, *child, target, level + 1)),
                SchemaNode::Array { item } => item
                    .and_then(|item| walk(schema, item, target, level + 1)),
                SchemaNode::Union { branches } => branches
                    .iter()
                    .find_map(|(_, child)| walk(schema, *child, target, level)),
                SchemaNode::Atomic { .. } => None,
            }
        }
        walk(self, self.root, target, 0)
    }

    /// Pretty-print the schema tree, mostly for debugging and examples.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        self.describe_node(self.root, "root", 0, &mut out);
        out
    }

    fn describe_node(&self, id: NodeId, label: &str, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match self.node(id) {
            SchemaNode::Object { fields } => {
                out.push_str(&format!("{pad}{label}: object\n"));
                for (name, child) in fields {
                    self.describe_node(*child, name, indent + 1, out);
                }
            }
            SchemaNode::Array { item } => {
                out.push_str(&format!("{pad}{label}: array\n"));
                if let Some(item) = item {
                    self.describe_node(*item, "[*]", indent + 1, out);
                }
            }
            SchemaNode::Union { branches } => {
                out.push_str(&format!("{pad}{label}: union\n"));
                for (kind, child) in branches {
                    self.describe_node(*child, kind.name(), indent + 1, out);
                }
            }
            SchemaNode::Atomic { ty } => {
                out.push_str(&format!("{pad}{label}: {ty}\n"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::SchemaBuilder;
    use docmodel::doc;

    fn gamer_schema() -> Schema {
        let mut b = SchemaBuilder::new(Some("id".to_string()));
        b.observe(&doc!({"id": 0, "games": [{"title": "NFL"}]}));
        b.observe(&doc!({
            "id": 1,
            "name": {"last": "Brown"},
            "games": [{"title": "FIFA", "consoles": ["PC", "PS4"]}]
        }));
        b.observe(&doc!({
            "id": 2,
            "name": {"first": "John", "last": "Smith"},
            "games": [
                {"title": "NBA", "consoles": ["PS4", "PC"]},
                {"title": "NFL", "consoles": ["XBOX"]}
            ]
        }));
        b.observe(&doc!({"id": 3}));
        b.schema().clone()
    }

    #[test]
    fn levels_match_the_paper_example() {
        // Figure 4b: id (R:0,D:0 — but key), name.first (D:2), name.last (D:2),
        // games[*].title (D:3), games[*].consoles[*] (D:4).
        let schema = gamer_schema();
        let id = schema.resolve_path(&Path::parse("id")).unwrap();
        let first = schema.resolve_path(&Path::parse("name.first")).unwrap();
        let title = schema.resolve_path(&Path::parse("games[*].title")).unwrap();
        let consoles = schema
            .resolve_path(&Path::parse("games[*].consoles[*]"))
            .unwrap();
        assert_eq!(schema.level_of(id), Some(1));
        assert_eq!(schema.level_of(first), Some(2));
        assert_eq!(schema.level_of(title), Some(3));
        assert_eq!(schema.level_of(consoles), Some(4));
        assert_eq!(schema.level_of(schema.root()), Some(0));
    }

    #[test]
    fn resolve_path_misses_unknown_fields() {
        let schema = gamer_schema();
        assert!(schema.resolve_path(&Path::parse("nope")).is_none());
        assert!(schema.resolve_path(&Path::parse("name.middle")).is_none());
        assert!(schema.resolve_path(&Path::parse("id[*]")).is_none());
    }

    #[test]
    fn describe_is_readable() {
        let schema = gamer_schema();
        let text = schema.describe();
        assert!(text.contains("games"));
        assert!(text.contains("consoles"));
        assert!(text.contains("string"));
        assert!(text.starts_with("root: object"));
    }

    #[test]
    fn column_count_counts_leaves() {
        let schema = gamer_schema();
        // id, name.first, name.last, games[*].title, games[*].consoles[*]
        assert_eq!(schema.column_count(), 5);
        assert!(schema.node_count() > schema.column_count());
    }

    #[test]
    fn union_levels_ignore_union_nodes() {
        // Figure 6/7: name is union(string | object{first,last});
        // the string branch has level 1, first/last have level 2.
        let mut b = SchemaBuilder::new(None);
        b.observe(&doc!({"name": "John", "games": ["NBA", ["FIFA", "PES"], "NFL"]}));
        b.observe(&doc!({"name": {"first": "Ann", "last": "Brown"}, "games": ["NFL", "NBA"]}));
        let schema = b.schema();

        let name_string = schema
            .resolve_path(&Path::parse("name").union_branch("string"))
            .unwrap();
        let name_first = schema.resolve_path(&Path::parse("name.first")).unwrap();
        assert_eq!(schema.level_of(name_string), Some(1));
        assert_eq!(schema.level_of(name_first), Some(2));

        // games[*] is union(string | array of string): levels 2 and 3.
        let games_string = schema
            .resolve_path(&Path::parse("games[*]").union_branch("string"))
            .unwrap();
        let games_inner = schema
            .resolve_path(&Path::parse("games[*][*]"))
            .unwrap();
        assert_eq!(schema.level_of(games_string), Some(2));
        assert_eq!(schema.level_of(games_inner), Some(3));
    }

    #[test]
    fn branch_kind_of_values() {
        assert_eq!(BranchKind::of(&Value::Null), BranchKind::Atomic(AtomicType::Null));
        assert_eq!(BranchKind::of(&doc!(1)), BranchKind::Atomic(AtomicType::Int));
        assert_eq!(BranchKind::of(&doc!({"a": 1})), BranchKind::Object);
        assert_eq!(BranchKind::of(&doc!([1])), BranchKind::Array);
    }
}

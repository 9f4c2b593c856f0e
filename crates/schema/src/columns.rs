//! Flattening the schema tree into per-column metadata.
//!
//! Every node that [owns a column](Schema::owns_column) — an atomic leaf,
//! or a container seen only empty — is one column of the extended Dremel
//! format. The shredder, the page writers (APAX minipages / AMAX megapages)
//! and the readers need, per column:
//!
//! * a stable identifier ([`ColumnId`] — the node's `NodeId`),
//! * the value type (which picks the encoder/decoder; `Null` for a column
//!   of levels only),
//! * the column's *maximum definition level*,
//! * the definition levels of its enclosing array nodes (which determine the
//!   delimiter values, §3.2.1), and
//! * whether it is the primary-key column (whose definition level encodes
//!   anti-matter rather than nullability, §3.2.3).

use crate::node::{NodeId, Schema, SchemaNode};
use crate::types::AtomicType;
use docmodel::Path;

/// Identifier of a column: the `NodeId` of the node that owns it. Stable
/// across schema evolution.
pub type ColumnId = NodeId;

/// Metadata of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    /// Stable identifier (the owning node's id).
    pub id: ColumnId,
    /// Path from the record root to the node, including `[*]` and union
    /// steps, e.g. `games[*].consoles[*]` or `name<string>`.
    pub path: Path,
    /// Value type; `Null` for a container's column, which stores no values.
    pub ty: AtomicType,
    /// Maximum definition level: the node's level (number of field and
    /// array-item steps from the root). For the primary-key column this is 1
    /// and the level means record (1) vs anti-matter (0).
    pub max_def: u16,
    /// Definition levels of the enclosing array nodes, outermost first. The
    /// `k`-th entry is the level of the array whose end is signalled by
    /// delimiter value `k`; `max_delimiter = array_levels.len() - 1`.
    pub array_levels: Vec<u16>,
    /// `true` for the primary-key column.
    pub is_key: bool,
}

impl ColumnSpec {
    /// Maximum delimiter value, or `None` for non-repeated columns.
    pub fn max_delimiter(&self) -> Option<u16> {
        if self.array_levels.is_empty() {
            None
        } else {
            Some(self.array_levels.len() as u16 - 1)
        }
    }

    /// `true` if the column lies under at least one array.
    pub fn is_repeated(&self) -> bool {
        !self.array_levels.is_empty()
    }

    /// Number of bits needed for one definition-level entry of this column.
    pub fn def_bit_width(&self) -> u32 {
        encoding_bit_width(self.max_def)
    }
}

fn encoding_bit_width(max: u16) -> u32 {
    (16 - u16::leading_zeros(max.max(1))).max(1)
}

/// Extract the columns of `schema` in a deterministic order: the primary-key
/// column first (if declared and observed), then the remaining columns in
/// depth-first, first-observation order. These are the columns a component
/// written under `schema` holds.
pub fn columns_of(schema: &Schema) -> Vec<ColumnSpec> {
    Walk::run(schema, false)
}

/// [`columns_of`], plus the column of every container that has gained
/// children: a component written while the container was seen only empty
/// holds it, and is read under the newer schema. Readers decode with these
/// specs; writers write [`columns_of`].
pub fn readable_columns(schema: &Schema) -> Vec<ColumnSpec> {
    Walk::run(schema, true)
}

/// Widen a projection so that assembly tells every array's elements from
/// its emptiness: where `columns` holds a column beneath a union that is an
/// array's item, it gains every column of `readable` beneath that union.
/// (Where one branch of such a union is present, the others record the
/// array's own level; a projection that left the present branch out would
/// read the element as the array's empty marker.)
pub fn widen_over_union_items(
    schema: &Schema,
    readable: impl Iterator<Item = ColumnId> + Clone,
    columns: &mut Vec<ColumnId>,
) {
    fn subtree(schema: &Schema, id: NodeId, out: &mut Vec<NodeId>) {
        out.push(id);
        match schema.node(id) {
            SchemaNode::Object { fields } => {
                fields.iter().for_each(|(_, c)| subtree(schema, *c, out));
            }
            SchemaNode::Array { item } => item.iter().for_each(|c| subtree(schema, *c, out)),
            SchemaNode::Union { branches } => {
                branches.iter().for_each(|(_, c)| subtree(schema, *c, out));
            }
            SchemaNode::Atomic { .. } => {}
        }
    }
    for (_, node) in schema.iter() {
        let SchemaNode::Array { item: Some(item) } = node else {
            continue;
        };
        if !matches!(schema.node(*item), SchemaNode::Union { .. }) {
            continue;
        }
        let mut beneath = Vec::new();
        subtree(schema, *item, &mut beneath);
        if columns.iter().any(|c| beneath.contains(c)) {
            for column in readable.clone() {
                if beneath.contains(&column) && !columns.contains(&column) {
                    columns.push(column);
                }
            }
        }
    }
}

/// Find the primary-key column, if the schema has observed it.
pub fn key_column(schema: &Schema) -> Option<ColumnSpec> {
    columns_of(schema).into_iter().find(|c| c.is_key)
}

/// The depth-first walk behind [`columns_of`] and [`readable_columns`].
struct Walk<'s> {
    schema: &'s Schema,
    /// Emit a column for containers with children too.
    every_container: bool,
    array_levels: Vec<u16>,
    out: Vec<ColumnSpec>,
}

impl Walk<'_> {
    fn run(schema: &Schema, every_container: bool) -> Vec<ColumnSpec> {
        let mut walk = Walk {
            schema,
            every_container,
            array_levels: Vec::new(),
            out: Vec::with_capacity(schema.column_count()),
        };
        let root = schema.root();
        if let SchemaNode::Object { fields } = schema.node(root) {
            for (name, child) in fields {
                let path = Path::root().child(name);
                // The primary key must be an atomic root field; its
                // definition level encodes anti-matter (0) vs record (1),
                // per §3.2.3.
                match schema.node(*child) {
                    SchemaNode::Atomic { ty } if schema.key_field() == Some(name.as_str()) => {
                        walk.out.insert(
                            0,
                            ColumnSpec {
                                id: *child,
                                path,
                                ty: *ty,
                                max_def: 1,
                                array_levels: Vec::new(),
                                is_key: true,
                            },
                        );
                    }
                    _ => walk.node(*child, &path, 1),
                }
            }
        }
        walk.out
    }

    fn node(&mut self, id: NodeId, path: &Path, level: u16) {
        if self.schema.owns_column(id) || self.every_container && self.is_container(id) {
            let ty = match self.schema.node(id) {
                SchemaNode::Atomic { ty } => *ty,
                _ => AtomicType::Null,
            };
            self.out.push(ColumnSpec {
                id,
                path: path.clone(),
                ty,
                max_def: level,
                array_levels: self.array_levels.clone(),
                is_key: false,
            });
        }
        match self.schema.node(id) {
            SchemaNode::Object { fields } => {
                for (name, child) in fields {
                    self.node(*child, &path.child(name), level + 1);
                }
            }
            SchemaNode::Array { item: Some(item) } => {
                self.array_levels.push(level);
                self.node(*item, &path.elements(), level + 1);
                self.array_levels.pop();
            }
            SchemaNode::Union { branches } => {
                for (kind, child) in branches {
                    // Union steps do not change the level or the array stack.
                    self.node(*child, &path.union_branch(kind.name()), level);
                }
            }
            SchemaNode::Array { item: None } | SchemaNode::Atomic { .. } => {}
        }
    }

    fn is_container(&self, id: NodeId) -> bool {
        matches!(
            self.schema.node(id),
            SchemaNode::Object { .. } | SchemaNode::Array { .. }
        )
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
        b.into_schema()
    }

    #[test]
    fn columns_match_figure_4b() {
        let cols = columns_of(&gamer_schema());
        let by_path: std::collections::HashMap<String, &ColumnSpec> =
            cols.iter().map(|c| (c.path.to_string(), c)).collect();

        let id = by_path["id"];
        assert!(id.is_key);
        assert_eq!(id.max_def, 1);
        assert_eq!(id.ty, AtomicType::Int);
        assert!(!id.is_repeated());

        let title = by_path["games[*].title"];
        assert_eq!(title.max_def, 3);
        assert_eq!(title.array_levels, vec![1]);
        assert_eq!(title.max_delimiter(), Some(0));

        let consoles = by_path["games[*].consoles[*]"];
        assert_eq!(consoles.max_def, 4);
        assert_eq!(consoles.array_levels, vec![1, 3]);
        assert_eq!(consoles.max_delimiter(), Some(1));

        let first = by_path["name.first"];
        assert_eq!(first.max_def, 2);
        assert!(!first.is_key);
        assert_eq!(first.max_delimiter(), None);
    }

    #[test]
    fn key_column_is_first_and_unique() {
        let cols = columns_of(&gamer_schema());
        assert!(cols[0].is_key);
        assert_eq!(cols.iter().filter(|c| c.is_key).count(), 1);
        assert_eq!(cols.len(), 5);
        let key = key_column(&gamer_schema()).unwrap();
        assert_eq!(key.path.to_string(), "id");
    }

    #[test]
    fn union_columns_from_figure_6() {
        let mut b = SchemaBuilder::new(None);
        b.observe(&doc!({"name": "John", "games": ["NBA", ["FIFA", "PES"], "NFL"]}));
        b.observe(&doc!({"name": {"first": "Ann", "last": "Brown"}, "games": ["NFL", "NBA"]}));
        let cols = columns_of(&b.into_schema());
        let by_path: std::collections::HashMap<String, &ColumnSpec> =
            cols.iter().map(|c| (c.path.to_string(), c)).collect();

        // Column 1 in Figure 7: name<string> with max def 1.
        let name_str = by_path["name<string>"];
        assert_eq!(name_str.max_def, 1);
        // Columns 2/3: name.first / name.last at def 2 (union ignored).
        assert_eq!(by_path["name<object>.first"].max_def, 2);
        // Column 4: games[*]<string>, max def 2, one enclosing array.
        let games_str = by_path["games[*]<string>"];
        assert_eq!(games_str.max_def, 2);
        assert_eq!(games_str.array_levels, vec![1]);
        // Column 5: games[*]<array>[*], max def 3, two enclosing arrays.
        let games_arr = by_path["games[*]<array>[*]"];
        assert_eq!(games_arr.max_def, 3);
        assert_eq!(games_arr.array_levels, vec![1, 2]);
        assert_eq!(games_arr.max_delimiter(), Some(1));
    }

    #[test]
    fn column_ids_are_stable_across_growth() {
        let mut b = SchemaBuilder::new(Some("id".to_string()));
        b.observe(&doc!({"id": 1, "age": 25}));
        let before = columns_of(b.schema());
        let age_before = before.iter().find(|c| c.path.to_string() == "age").unwrap();

        b.observe(&doc!({"id": 2, "age": "old", "extra": true}));
        let after = columns_of(b.schema());
        let age_after = after
            .iter()
            .find(|c| c.path.to_string() == "age<int>")
            .unwrap();
        assert_eq!(age_before.id, age_after.id);
        assert_eq!(age_after.max_def, 1);
    }

    #[test]
    fn def_bit_width_is_sane() {
        let cols = columns_of(&gamer_schema());
        for c in &cols {
            assert!(c.def_bit_width() >= 1 && c.def_bit_width() <= 3);
        }
    }

    #[test]
    fn containers_seen_only_empty_are_columns() {
        let mut b = SchemaBuilder::new(Some("id".to_string()));
        b.observe(&doc!({"id": 1, "tags": [], "o": {}, "n": null, "a": [[]]}));
        let cols = columns_of(b.schema());
        let by_path: std::collections::HashMap<String, &ColumnSpec> =
            cols.iter().map(|c| (c.path.to_string(), c)).collect();
        assert_eq!(cols.len(), 5);
        for path in ["tags", "o", "n"] {
            let spec = by_path[path];
            assert_eq!((spec.ty, spec.max_def), (AtomicType::Null, 1), "{path}");
            assert!(!spec.is_repeated());
        }
        let inner = by_path["a[*]"];
        assert_eq!((inner.ty, inner.max_def), (AtomicType::Null, 2));
        assert_eq!(inner.array_levels, vec![1]);

        // Once `tags` has items, new components stop writing its column;
        // readers still know it.
        let tags = by_path["tags"].clone();
        b.observe(&doc!({"id": 2, "tags": ["x"]}));
        assert!(columns_of(b.schema()).iter().all(|c| c.id != tags.id));
        let readable = readable_columns(b.schema());
        assert_eq!(readable.iter().find(|c| c.id == tags.id), Some(&tags));
        assert!(readable.iter().any(|c| c.path.to_string() == "tags[*]"));
    }

    #[test]
    fn projections_widen_over_union_items() {
        let mut b = SchemaBuilder::new(Some("id".to_string()));
        b.observe(&doc!({"id": 1, "d": [{"a": 1}, 5, [true]], "o": {"u": [{"a": 1}]}}));
        let schema = b.into_schema();
        let cols = columns_of(&schema);
        let id = |path: &str| cols.iter().find(|c| c.path.to_string() == path).unwrap().id;
        let readable = cols.iter().map(|c| c.id);
        let mut columns = vec![id("d[*]<object>.a")];
        widen_over_union_items(&schema, readable.clone(), &mut columns);
        columns.sort_unstable();
        let mut whole = vec![id("d[*]<object>.a"), id("d[*]<int>"), id("d[*]<array>[*]")];
        whole.sort_unstable();
        assert_eq!(columns, whole);
        // No union of items beneath: nothing to widen.
        let mut columns = vec![id("o.u[*].a")];
        widen_over_union_items(&schema, readable, &mut columns);
        assert_eq!(columns, vec![id("o.u[*].a")]);
    }

    #[test]
    fn empty_schema_has_no_columns() {
        let s = Schema::new(Some("id".into()));
        assert!(columns_of(&s).is_empty());
        assert!(key_column(&s).is_none());
    }
}

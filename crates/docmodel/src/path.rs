//! Field paths: the addressing scheme for columns and query projections.
//!
//! A [`Path`] names a (possibly nested, possibly repeated) value inside a
//! document, e.g. `games[*].consoles[*]` from the paper's running example.
//! Paths are how the schema crate names inferred columns, how the shredder
//! maps atomic values to column writers, and how queries declare which
//! columns they need (so AMAX can read only those megapages).

use std::fmt;

use crate::value::Value;

/// One step of a [`Path`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathStep {
    /// Descend into an object field with this name.
    Field(String),
    /// Descend into *all* elements of an array (`[*]` in the paper's
    /// notation). Individual-index addressing is not needed by the columnar
    /// format: arrays are always shredded element-wise.
    AllElements,
    /// Descend into the branch of a union node with the given type name
    /// (e.g. `"string"` or `"object"`). Union steps are "logical guides" —
    /// they do not appear in the document text — but they are needed so that
    /// two columns coming from the two alternatives of a union have distinct
    /// path identities.
    Union(&'static str),
}

impl fmt::Display for PathStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathStep::Field(name) => write!(f, ".{name}"),
            PathStep::AllElements => write!(f, "[*]"),
            PathStep::Union(t) => write!(f, "<{t}>"),
        }
    }
}

/// A path from the record root to a value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Path {
    steps: Vec<PathStep>,
}

impl Path {
    /// The empty path (the record root).
    pub fn root() -> Path {
        Path { steps: Vec::new() }
    }

    /// Build a path from field names only (no array or union steps), e.g.
    /// `Path::fields(&["name", "first"])`.
    pub fn fields(names: &[&str]) -> Path {
        Path {
            steps: names
                .iter()
                .map(|n| PathStep::Field((*n).to_string()))
                .collect(),
        }
    }

    /// Parse a dotted/starred textual path such as `"games[*].title"` or
    /// `"name.first"`. This is the format used by the query API and the
    /// benchmark configuration files.
    pub fn parse(text: &str) -> Path {
        let mut steps = Vec::new();
        for part in text.split('.') {
            if part.is_empty() {
                continue;
            }
            let mut rest = part;
            // A component may carry one or more trailing "[*]" markers.
            while let Some(idx) = rest.find("[*]") {
                let (head, tail) = rest.split_at(idx);
                if !head.is_empty() {
                    steps.push(PathStep::Field(head.to_string()));
                }
                steps.push(PathStep::AllElements);
                rest = &tail[3..];
            }
            if !rest.is_empty() {
                steps.push(PathStep::Field(rest.to_string()));
            }
        }
        Path { steps }
    }

    /// The steps of the path, root-first.
    pub fn steps(&self) -> &[PathStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` for the root path.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Append a field step.
    pub fn child(&self, name: &str) -> Path {
        let mut steps = self.steps.clone();
        steps.push(PathStep::Field(name.to_string()));
        Path { steps }
    }

    /// Append an `[*]` step.
    pub fn elements(&self) -> Path {
        let mut steps = self.steps.clone();
        steps.push(PathStep::AllElements);
        Path { steps }
    }

    /// Append a union-branch step.
    pub fn union_branch(&self, type_name: &'static str) -> Path {
        let mut steps = self.steps.clone();
        steps.push(PathStep::Union(type_name));
        Path { steps }
    }

    /// `true` if `self` is a prefix of (or equal to) `other`.
    pub fn is_prefix_of(&self, other: &Path) -> bool {
        other.steps.len() >= self.steps.len() && other.steps[..self.steps.len()] == self.steps[..]
    }

    /// Number of array (`[*]`) steps in the path — the column's *repetition
    /// depth*. A column under two nested arrays (e.g. `games[*].consoles[*]`)
    /// has repeated depth 2, which is also its `max-delimiter + 1` in the
    /// extended Dremel encoding.
    pub fn repeated_depth(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, PathStep::AllElements))
            .count()
    }

    /// Collect every value addressed by this path in `doc`. Array steps fan
    /// out over all elements; union steps match values whose dynamic type
    /// equals the branch name. Missing fields simply contribute nothing.
    pub fn evaluate<'a>(&self, doc: &'a Value) -> Vec<&'a Value> {
        let mut out = Vec::new();
        self.any(doc, |v| {
            out.push(v);
            false
        });
        out
    }

    /// `true` when some value [`Path::evaluate`] would collect satisfies
    /// `pred` (existential semantics), found by a walk that collects
    /// nothing and stops at the first match. Values are offered in
    /// [`Path::evaluate`]'s order.
    pub fn any<'a>(&self, doc: &'a Value, mut pred: impl FnMut(&'a Value) -> bool) -> bool {
        any_along(&self.steps, doc, &mut pred)
    }
}

fn any_along<'a>(
    steps: &[PathStep],
    v: &'a Value,
    pred: &mut impl FnMut(&'a Value) -> bool,
) -> bool {
    let Some((step, rest)) = steps.split_first() else {
        return pred(v);
    };
    match step {
        PathStep::Field(name) => v
            .get_field(name)
            .is_some_and(|child| any_along(rest, child, pred)),
        PathStep::AllElements => v
            .as_array()
            .is_some_and(|elems| elems.iter().any(|child| any_along(rest, child, pred))),
        PathStep::Union(type_name) => v.kind().name() == *type_name && any_along(rest, v, pred),
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return write!(f, "$");
        }
        let mut first = true;
        for step in &self.steps {
            match step {
                PathStep::Field(name) => {
                    if first {
                        write!(f, "{name}")?;
                    } else {
                        write!(f, ".{name}")?;
                    }
                }
                PathStep::AllElements => write!(f, "[*]")?,
                PathStep::Union(t) => write!(f, "<{t}>")?,
            }
            first = false;
        }
        Ok(())
    }
}

impl From<&str> for Path {
    fn from(text: &str) -> Self {
        Path::parse(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    #[test]
    fn parse_and_display_roundtrip() {
        for text in [
            "id",
            "name.first",
            "games[*].title",
            "games[*].consoles[*]",
            "a.b.c",
        ] {
            let p = Path::parse(text);
            assert_eq!(p.to_string(), text);
        }
        assert_eq!(Path::root().to_string(), "$");
    }

    #[test]
    fn repeated_depth_counts_array_steps() {
        assert_eq!(Path::parse("id").repeated_depth(), 0);
        assert_eq!(Path::parse("games[*].title").repeated_depth(), 1);
        assert_eq!(Path::parse("games[*].consoles[*]").repeated_depth(), 2);
    }

    #[test]
    fn prefix_relation() {
        let a = Path::parse("games[*]");
        let b = Path::parse("games[*].title");
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(Path::root().is_prefix_of(&b));
        assert!(a.is_prefix_of(&a));
    }

    #[test]
    fn evaluate_fans_out_over_arrays() {
        let rec = doc!({
            "id": 2,
            "name": {"first": "John", "last": "Smith"},
            "games": [
                {"title": "NBA", "consoles": ["PS4", "PC"]},
                {"title": "NFL", "consoles": ["XBOX"]}
            ]
        });
        let titles = Path::parse("games[*].title").evaluate(&rec);
        assert_eq!(titles.len(), 2);
        assert_eq!(titles[0].as_str(), Some("NBA"));
        let consoles = Path::parse("games[*].consoles[*]").evaluate(&rec);
        let names: Vec<_> = consoles.iter().map(|v| v.as_str()).collect();
        assert_eq!(names, [Some("PS4"), Some("PC"), Some("XBOX")]);
        assert!(Path::parse("missing.path").evaluate(&rec).is_empty());
        // `any` offers the same values, collecting nothing.
        let console = |name: &'static str| move |v: &Value| v.as_str() == Some(name);
        assert!(Path::parse("games[*].consoles[*]").any(&rec, console("XBOX")));
        assert!(!Path::parse("games[*].title").any(&rec, console("PC")));
        assert!(Path::root().any(&rec, |v| v.get_field("id") == Some(&Value::Int(2))));
        assert!(!Path::parse("missing.path").any(&rec, |_| true));
    }

    #[test]
    fn evaluate_union_step_filters_by_type() {
        let rec = doc!({"name": "John"});
        let rec2 = doc!({"name": {"first": "Ann"}});
        let p = Path::parse("name").union_branch("string");
        assert_eq!(p.evaluate(&rec).len(), 1);
        assert_eq!(p.evaluate(&rec2).len(), 0);
        assert!(p.any(&rec, |_| true) && !p.any(&rec2, |_| true));
    }

    #[test]
    fn builder_steps() {
        let p = Path::root().child("games").elements().child("title");
        assert_eq!(p, Path::parse("games[*].title"));
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(Path::root().is_empty());
    }
}

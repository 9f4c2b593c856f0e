//! The predicate expression tree.
//!
//! [`Expr`] replaces the closed `Predicate` enum of the original query layer
//! with a compositional boolean algebra: comparison leaves ([`CmpOp`]),
//! existence/containment/length tests, and arbitrary `AND`/`OR`/`NOT`
//! combinations. Expressions are evaluated against whole records with
//! *existential* path semantics (a comparison holds if **some** value
//! addressed by the path satisfies it — SQL++'s `SOME ... SATISFIES`), which
//! is also what a secondary index answers: the index maps every indexed
//! value to its record, so a range probe returns exactly the records where
//! some indexed value falls in the range.
//!
//! Besides evaluation, the tree supports the two static analyses the planner
//! needs:
//!
//! * [`Expr::collect_paths`] — every record-rooted path the expression
//!   reads, the input to projection pushdown;
//! * [`Expr::implied_bounds`] — the tightest value range `R` on a given path
//!   such that the expression *implies* `path ∈ R`. When the path is covered
//!   by a secondary index, probing `R` yields a superset of the matching
//!   records and the full expression is re-applied as a residual filter, so
//!   index routing is always safe.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Bound;

use docmodel::{total_cmp, Path, Value};

/// A comparison operator for [`Expr::Cmp`] and [`Expr::Length`] leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal (under the document total order, so `1 = 1.0`).
    Eq,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// `true` when `ord` (the ordering of `lhs` relative to `rhs`) satisfies
    /// the operator.
    pub fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator satisfied by exactly the orderings this one rejects, or
    /// `None` for `Eq` (the algebra has no `Ne`).
    pub fn negated(self) -> Option<CmpOp> {
        match self {
            CmpOp::Eq => None,
            CmpOp::Lt => Some(CmpOp::Ge),
            CmpOp::Le => Some(CmpOp::Gt),
            CmpOp::Gt => Some(CmpOp::Le),
            CmpOp::Ge => Some(CmpOp::Lt),
        }
    }

    /// The SQL rendering used by `EXPLAIN` output.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A filter predicate over a record: a boolean expression tree.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Conjunction. The empty conjunction is `true`.
    And(Vec<Expr>),
    /// Disjunction. The empty disjunction is `false`.
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// `SOME v IN path SATISFIES v <op> value` — existential comparison over
    /// every value the path addresses.
    Cmp {
        /// Comparison operator.
        op: CmpOp,
        /// Record-rooted path to the tested value(s).
        path: Path,
        /// Constant to compare against.
        value: Value,
    },
    /// `path IS NOT MISSING` — the path addresses at least one value
    /// (explicit `null` counts as existing).
    Exists(Path),
    /// `SOME v IN path SATISFIES v = value`, additionally descending into an
    /// array addressed by the path (so `tags` and `tags[*]` both work).
    Contains {
        /// Path to the array (or repeated value).
        path: Path,
        /// Value at least one element must equal.
        value: Value,
    },
    /// `LENGTH(path) <op> len` — string length in characters, array length
    /// in elements; other value kinds never match.
    Length {
        /// Path to the measured value(s).
        path: Path,
        /// Comparison operator applied to the length.
        op: CmpOp,
        /// Constant length to compare against.
        len: i64,
    },
}

impl Expr {
    /// `path = value`.
    pub fn eq(path: impl Into<Path>, value: impl Into<Value>) -> Expr {
        Expr::Cmp { op: CmpOp::Eq, path: path.into(), value: value.into() }
    }

    /// `path < value`.
    pub fn lt(path: impl Into<Path>, value: impl Into<Value>) -> Expr {
        Expr::Cmp { op: CmpOp::Lt, path: path.into(), value: value.into() }
    }

    /// `path <= value`.
    pub fn le(path: impl Into<Path>, value: impl Into<Value>) -> Expr {
        Expr::Cmp { op: CmpOp::Le, path: path.into(), value: value.into() }
    }

    /// `path > value`.
    pub fn gt(path: impl Into<Path>, value: impl Into<Value>) -> Expr {
        Expr::Cmp { op: CmpOp::Gt, path: path.into(), value: value.into() }
    }

    /// `path >= value`.
    pub fn ge(path: impl Into<Path>, value: impl Into<Value>) -> Expr {
        Expr::Cmp { op: CmpOp::Ge, path: path.into(), value: value.into() }
    }

    /// `lo <= path <= hi` (the inclusive range of the paper's queries).
    pub fn between(path: impl Into<Path>, lo: impl Into<Value>, hi: impl Into<Value>) -> Expr {
        let path = path.into();
        Expr::And(vec![Expr::ge(path.clone(), lo), Expr::le(path, hi)])
    }

    /// `path IS NOT MISSING`.
    pub fn exists(path: impl Into<Path>) -> Expr {
        Expr::Exists(path.into())
    }

    /// `SOME v IN path SATISFIES v = value`.
    pub fn contains(path: impl Into<Path>, value: impl Into<Value>) -> Expr {
        Expr::Contains { path: path.into(), value: value.into() }
    }

    /// `LENGTH(path) <op> len`.
    pub fn length(path: impl Into<Path>, op: CmpOp, len: i64) -> Expr {
        Expr::Length { path: path.into(), op, len }
    }

    /// Conjunction of several expressions.
    pub fn and(exprs: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::And(exprs.into_iter().collect())
    }

    /// Disjunction of several expressions.
    pub fn or(exprs: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::Or(exprs.into_iter().collect())
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(expr: Expr) -> Expr {
        Expr::Not(Box::new(expr))
    }

    /// Evaluate the expression against a record.
    pub fn matches(&self, doc: &Value) -> bool {
        match self {
            Expr::And(children) => children.iter().all(|c| c.matches(doc)),
            Expr::Or(children) => children.iter().any(|c| c.matches(doc)),
            Expr::Not(inner) => !inner.matches(doc),
            Expr::Cmp { op, path, value } => path.any(doc, |v| op.matches(total_cmp(v, value))),
            Expr::Exists(path) => path.any(doc, |_| true),
            Expr::Contains { path, value } => path.any(doc, |v| match v {
                Value::Array(elems) => elems.iter().any(|e| total_cmp(e, value) == Ordering::Equal),
                other => total_cmp(other, value) == Ordering::Equal,
            }),
            Expr::Length { path, op, len } => path.any(doc, |v| {
                value_length(v).is_some_and(|l| op.matches(l.cmp(len)))
            }),
        }
    }

    /// Planner-side simplification: an **equivalent** expression (same
    /// [`Expr::matches`] verdict on every document) that is flatter and
    /// pushes negations inward, so the planner's static analyses
    /// ([`Expr::implied_bounds`], zone maps) see through boolean noise:
    ///
    /// * **constant folding** — nested `AND`s/`OR`s are flattened, `TRUE`
    ///   (the empty conjunction) disappears from conjunctions and
    ///   annihilates disjunctions, dually for `FALSE`; single-child
    ///   `AND`/`OR` unwrap;
    /// * **double negation** — `NOT NOT e` → `e` (this is what lets a
    ///   `NOT NOT BETWEEN` drive an index probe);
    /// * **De Morgan push-in** — `NOT (a AND b)` → `NOT a OR NOT b` and
    ///   dually, recursively;
    /// * **comparison negation** — on a *single-valued* path (no `[*]`
    ///   step), `NOT (p < c)` → `p >= c OR NOT EXISTS(p)`. The
    ///   `NOT EXISTS` disjunct is required for equivalence: comparisons are
    ///   existential, so a record *missing* `p` satisfies the negation but
    ///   not the flipped comparison. On multi-valued paths the negation of
    ///   "some element satisfies" is "every element fails", which the
    ///   algebra cannot express — the `NOT` stays put. `NOT (p = c)` also
    ///   stays (no `Ne` operator).
    ///
    /// The planner simplifies every filter before access-path selection and
    /// stores the simplified tree in the physical plan, so `EXPLAIN` shows
    /// it and the residual filter evaluates the simpler form.
    pub fn simplify(&self) -> Expr {
        match self {
            Expr::And(children) => {
                let mut out = Vec::new();
                for child in children {
                    match child.simplify() {
                        Expr::And(grand) => out.extend(grand), // flatten; TRUE vanishes
                        Expr::Or(grand) if grand.is_empty() => return Expr::Or(Vec::new()),
                        other => out.push(other),
                    }
                }
                if out.len() == 1 {
                    out.pop().expect("one child")
                } else {
                    Expr::And(out)
                }
            }
            Expr::Or(children) => {
                let mut out = Vec::new();
                for child in children {
                    match child.simplify() {
                        Expr::Or(grand) => out.extend(grand), // flatten; FALSE vanishes
                        Expr::And(grand) if grand.is_empty() => return Expr::And(Vec::new()),
                        other => out.push(other),
                    }
                }
                if out.len() == 1 {
                    out.pop().expect("one child")
                } else {
                    Expr::Or(out)
                }
            }
            Expr::Not(inner) => Expr::simplify_negation(inner),
            leaf => leaf.clone(),
        }
    }

    /// Simplify `NOT inner`, pushing the negation as deep as soundness
    /// allows (see [`Expr::simplify`]).
    fn simplify_negation(inner: &Expr) -> Expr {
        match inner {
            Expr::Not(doubly) => doubly.simplify(),
            Expr::And(children) => {
                Expr::Or(children.iter().map(Expr::simplify_negation).collect()).simplify()
            }
            Expr::Or(children) => {
                Expr::And(children.iter().map(Expr::simplify_negation).collect()).simplify()
            }
            Expr::Cmp { op, path, value } if path.repeated_depth() == 0 => {
                match op.negated() {
                    // ¬(∃v∈p: v op c) on a single-valued path: either the
                    // one value fails the comparison, or there is no value.
                    Some(negated) => Expr::Or(vec![
                        Expr::Cmp {
                            op: negated,
                            path: path.clone(),
                            value: value.clone(),
                        },
                        Expr::Not(Box::new(Expr::Exists(path.clone()))),
                    ]),
                    None => Expr::Not(Box::new(inner.simplify())),
                }
            }
            other => Expr::Not(Box::new(other.simplify())),
        }
    }

    /// Append every record-rooted path the expression reads to `out`
    /// (deduplicated) — the columns projection pushdown must assemble for the
    /// filter to be evaluable.
    pub fn collect_paths(&self, out: &mut Vec<Path>) {
        let mut add = |p: &Path| {
            if !out.contains(p) {
                out.push(p.clone());
            }
        };
        match self {
            Expr::And(children) | Expr::Or(children) => {
                for c in children {
                    c.collect_paths(out);
                }
            }
            Expr::Not(inner) => inner.collect_paths(out),
            Expr::Cmp { path, .. }
            | Expr::Exists(path)
            | Expr::Contains { path, .. }
            | Expr::Length { path, .. } => add(path),
        }
    }

    /// Bounds `(lo, hi)` such that `self` implies
    /// `∃v ∈ path: v ∈ (lo, hi)` under the document total order, or `None`
    /// when the expression implies no bound on `path` — the soundness
    /// condition for probing a secondary index on `path` and re-applying the
    /// expression as a residual filter.
    ///
    /// Conjunctions intersect the bounds their children imply **only for
    /// single-valued paths** (no `[*]` step): with existential semantics a
    /// multi-valued path may satisfy each conjunct with a *different*
    /// witness (`ts = [100, 200]` matches `ts[*] >= 120 AND ts[*] <= 180`
    /// with witnesses 200 and 100, neither in the intersection), so there
    /// the conjunction keeps one child's bounds, which any witness of that
    /// child satisfies. Disjunctions require *every* branch to bound the
    /// path and take the union hull (an over-approximation, made exact
    /// again by the residual filter); negations and non-comparison leaves
    /// are conservatively unbounded.
    pub fn implied_bounds(&self, path: &Path) -> Option<(Bound<Value>, Bound<Value>)> {
        match self {
            Expr::Cmp { op, path: p, value } if p == path => Some(match op {
                CmpOp::Eq => (Bound::Included(value.clone()), Bound::Included(value.clone())),
                CmpOp::Ge => (Bound::Included(value.clone()), Bound::Unbounded),
                CmpOp::Gt => (Bound::Excluded(value.clone()), Bound::Unbounded),
                CmpOp::Le => (Bound::Unbounded, Bound::Included(value.clone())),
                CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(value.clone())),
            }),
            Expr::And(children) => {
                // Field/union steps address at most one value per record, so
                // a single witness must satisfy every conjunct and the
                // intersection is sound. Array steps fan out; see above.
                let single_valued = path.repeated_depth() == 0;
                let mut acc: Option<(Bound<Value>, Bound<Value>)> = None;
                for child in children {
                    if let Some(bounds) = child.implied_bounds(path) {
                        acc = Some(match acc {
                            None => bounds,
                            Some(prev) if single_valued => intersect_bounds(prev, bounds),
                            Some(prev) => prev,
                        });
                    }
                }
                acc
            }
            Expr::Or(children) => {
                if children.is_empty() {
                    return None;
                }
                let mut acc: Option<(Bound<Value>, Bound<Value>)> = None;
                for child in children {
                    let bounds = child.implied_bounds(path)?;
                    acc = Some(match acc {
                        None => bounds,
                        Some(prev) => union_bounds(prev, bounds),
                    });
                }
                acc
            }
            _ => None,
        }
    }
}

/// `LENGTH(v)`: characters for strings, elements for arrays, `None` for
/// every other kind (the comparison then never matches).
fn value_length(v: &Value) -> Option<i64> {
    match v {
        Value::String(s) => Some(s.chars().count() as i64),
        Value::Array(a) => Some(a.len() as i64),
        _ => None,
    }
}

/// Intersection of two ranges: tightest lower bound, tightest upper bound.
fn intersect_bounds(
    a: (Bound<Value>, Bound<Value>),
    b: (Bound<Value>, Bound<Value>),
) -> (Bound<Value>, Bound<Value>) {
    (tighter_lo(a.0, b.0), tighter_hi(a.1, b.1))
}

/// Union hull of two ranges: loosest lower bound, loosest upper bound.
fn union_bounds(
    a: (Bound<Value>, Bound<Value>),
    b: (Bound<Value>, Bound<Value>),
) -> (Bound<Value>, Bound<Value>) {
    (looser_lo(a.0, b.0), looser_hi(a.1, b.1))
}

fn tighter_lo(a: Bound<Value>, b: Bound<Value>) -> Bound<Value> {
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match total_cmp(x, y) {
                Ordering::Greater => a,
                Ordering::Less => b,
                // Equal values: the excluded bound is tighter.
                Ordering::Equal => {
                    if matches!(a, Bound::Excluded(_)) {
                        a
                    } else {
                        b
                    }
                }
            }
        }
    }
}

fn tighter_hi(a: Bound<Value>, b: Bound<Value>) -> Bound<Value> {
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match total_cmp(x, y) {
                Ordering::Less => a,
                Ordering::Greater => b,
                Ordering::Equal => {
                    if matches!(a, Bound::Excluded(_)) {
                        a
                    } else {
                        b
                    }
                }
            }
        }
    }
}

fn looser_lo(a: Bound<Value>, b: Bound<Value>) -> Bound<Value> {
    match (&a, &b) {
        (Bound::Unbounded, _) | (_, Bound::Unbounded) => Bound::Unbounded,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match total_cmp(x, y) {
                Ordering::Less => a,
                Ordering::Greater => b,
                Ordering::Equal => {
                    if matches!(a, Bound::Included(_)) {
                        a
                    } else {
                        b
                    }
                }
            }
        }
    }
}

fn looser_hi(a: Bound<Value>, b: Bound<Value>) -> Bound<Value> {
    match (&a, &b) {
        (Bound::Unbounded, _) | (_, Bound::Unbounded) => Bound::Unbounded,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match total_cmp(x, y) {
                Ordering::Greater => a,
                Ordering::Less => b,
                Ordering::Equal => {
                    if matches!(a, Bound::Included(_)) {
                        a
                    } else {
                        b
                    }
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::And(children) => write_joined(f, children, " AND ", "TRUE"),
            Expr::Or(children) => write_joined(f, children, " OR ", "FALSE"),
            Expr::Not(inner) => write!(f, "NOT {inner}"),
            Expr::Cmp { op, path, value } => write!(f, "{path} {} {value}", op.symbol()),
            Expr::Exists(path) => write!(f, "EXISTS({path})"),
            Expr::Contains { path, value } => write!(f, "CONTAINS({path}, {value})"),
            Expr::Length { path, op, len } => {
                write!(f, "LENGTH({path}) {} {len}", op.symbol())
            }
        }
    }
}

fn write_joined(
    f: &mut fmt::Formatter<'_>,
    children: &[Expr],
    sep: &str,
    empty: &str,
) -> fmt::Result {
    if children.is_empty() {
        return f.write_str(empty);
    }
    write!(f, "(")?;
    for (i, child) in children.iter().enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        write!(f, "{child}")?;
    }
    write!(f, ")")
}

#[cfg(test)]
mod tests {
    use super::*;
    use docmodel::doc;

    fn record() -> Value {
        doc!({"age": 30, "tags": ["jobs", "rust"], "d": 599, "text": "hello"})
    }

    #[test]
    fn comparison_leaves_evaluate_existentially() {
        let rec = record();
        assert!(Expr::ge("age", 30).matches(&rec));
        assert!(!Expr::ge("d", 600).matches(&rec));
        assert!(Expr::lt("age", 31).matches(&rec));
        assert!(Expr::eq("age", 30).matches(&rec));
        assert!(Expr::eq("age", Value::Double(30.0)).matches(&rec), "numeric widening");
        assert!(Expr::between("age", 20, 40).matches(&rec));
        assert!(!Expr::between("age", 31, 40).matches(&rec));
        // Missing paths never satisfy a comparison.
        assert!(!Expr::eq("missing", 1).matches(&rec));
    }

    #[test]
    fn boolean_combinators() {
        let rec = record();
        assert!(Expr::and([Expr::ge("age", 20), Expr::exists("tags")]).matches(&rec));
        assert!(!Expr::and([Expr::ge("age", 20), Expr::exists("nope")]).matches(&rec));
        assert!(Expr::or([Expr::ge("age", 99), Expr::exists("tags")]).matches(&rec));
        assert!(Expr::not(Expr::ge("age", 99)).matches(&rec));
        // Identity elements.
        assert!(Expr::and([]).matches(&rec));
        assert!(!Expr::or([]).matches(&rec));
    }

    #[test]
    fn contains_descends_into_arrays_with_and_without_star() {
        let rec = record();
        assert!(Expr::contains("tags[*]", "jobs").matches(&rec));
        assert!(Expr::contains("tags", "jobs").matches(&rec));
        assert!(!Expr::contains("tags", "none").matches(&rec));
    }

    #[test]
    fn length_measures_strings_and_arrays() {
        let rec = record();
        assert!(Expr::length("text", CmpOp::Eq, 5).matches(&rec));
        assert!(Expr::length("tags", CmpOp::Ge, 2).matches(&rec));
        assert!(!Expr::length("age", CmpOp::Eq, 2).matches(&rec), "ints have no length");
    }

    #[test]
    fn collect_paths_deduplicates() {
        let e = Expr::and([
            Expr::ge("score", 50),
            Expr::or([Expr::exists("tags"), Expr::le("score", 90)]),
        ]);
        let mut paths = Vec::new();
        e.collect_paths(&mut paths);
        let rendered: Vec<String> = paths.iter().map(|p| p.to_string()).collect();
        assert_eq!(rendered, vec!["score".to_string(), "tags".to_string()]);
    }

    #[test]
    fn implied_bounds_from_conjunctions() {
        let p = Path::parse("score");
        let e = Expr::and([Expr::ge("score", 50), Expr::lt("score", 90), Expr::exists("tags")]);
        let (lo, hi) = e.implied_bounds(&p).unwrap();
        assert_eq!(lo, Bound::Included(Value::Int(50)));
        assert_eq!(hi, Bound::Excluded(Value::Int(90)));
        // Eq implies a point range.
        let (lo, hi) = Expr::eq("score", 7).implied_bounds(&p).unwrap();
        assert_eq!(lo, Bound::Included(Value::Int(7)));
        assert_eq!(hi, Bound::Included(Value::Int(7)));
        // Tighter of two lower bounds wins.
        let (lo, _) = Expr::and([Expr::ge("score", 10), Expr::gt("score", 10)])
            .implied_bounds(&p)
            .unwrap();
        assert_eq!(lo, Bound::Excluded(Value::Int(10)));
    }

    #[test]
    fn implied_bounds_never_intersect_on_multi_valued_paths() {
        // `ts = [100, 200]` satisfies `ts[*] >= 120 AND ts[*] <= 180` with
        // two different witnesses; intersecting to [120, 180] would make an
        // index probe miss the record. The conjunction must keep one
        // child's (individually sound) bounds instead.
        let p = Path::parse("ts[*]");
        let e = Expr::between("ts[*]", 120, 180);
        let rec = doc!({"ts": [100, 200]});
        assert!(e.matches(&rec));
        let (lo, hi) = e.implied_bounds(&p).unwrap();
        assert_eq!(lo, Bound::Included(Value::Int(120)));
        assert_eq!(hi, Bound::Unbounded, "no intersection across conjuncts");
        // Both the lone witness values satisfy the kept bound's range.
        assert!(matches!(hi, Bound::Unbounded));
    }

    #[test]
    fn implied_bounds_from_disjunctions_take_the_hull() {
        let p = Path::parse("score");
        let e = Expr::or([Expr::eq("score", 5), Expr::between("score", 10, 20)]);
        let (lo, hi) = e.implied_bounds(&p).unwrap();
        assert_eq!(lo, Bound::Included(Value::Int(5)));
        assert_eq!(hi, Bound::Included(Value::Int(20)));
        // A branch that does not bound the path poisons the disjunction.
        let e = Expr::or([Expr::eq("score", 5), Expr::exists("tags")]);
        assert!(e.implied_bounds(&p).is_none());
        // Negation is conservatively unbounded.
        assert!(Expr::not(Expr::eq("score", 5)).implied_bounds(&p).is_none());
    }

    #[test]
    fn simplify_folds_constants_and_flattens() {
        // Nested AND flattens, the empty AND (TRUE) disappears.
        let e = Expr::and([
            Expr::and([Expr::ge("a", 1), Expr::and([])]),
            Expr::lt("a", 9),
        ]);
        assert_eq!(e.simplify().to_string(), "(a >= 1 AND a < 9)");
        // FALSE annihilates a conjunction; TRUE annihilates a disjunction.
        let e = Expr::and([Expr::ge("a", 1), Expr::or([])]);
        assert!(matches!(e.simplify(), Expr::Or(v) if v.is_empty()));
        let e = Expr::or([Expr::ge("a", 1), Expr::and([])]);
        assert!(matches!(e.simplify(), Expr::And(v) if v.is_empty()));
        // Single-child wrappers unwrap.
        assert_eq!(Expr::and([Expr::ge("a", 1)]).simplify().to_string(), "a >= 1");
    }

    #[test]
    fn simplify_eliminates_double_negation_enabling_bounds() {
        let e = Expr::not(Expr::not(Expr::between("score", 10, 20)));
        let s = e.simplify();
        let p = Path::parse("score");
        let (lo, hi) = s.implied_bounds(&p).expect("double negation must expose bounds");
        assert_eq!(lo, Bound::Included(Value::Int(10)));
        assert_eq!(hi, Bound::Included(Value::Int(20)));
        assert!(e.implied_bounds(&p).is_none(), "unsimplified NOT is opaque");
    }

    #[test]
    fn simplify_pushes_not_through_de_morgan_and_comparisons() {
        // NOT (a < 5 AND EXISTS(t)) → (a >= 5 OR NOT EXISTS(a)) OR NOT EXISTS(t).
        let e = Expr::not(Expr::and([Expr::lt("a", 5), Expr::exists("t")]));
        let s = e.simplify();
        let text = s.to_string();
        assert!(text.contains("a >= 5"), "{text}");
        assert!(text.contains("NOT EXISTS(t)"), "{text}");
        assert!(!text.contains("NOT a"), "{text}");
        // The NOT EXISTS guard is what keeps missing paths equivalent.
        assert!(text.contains("NOT EXISTS(a)"), "{text}");
    }

    #[test]
    fn simplify_preserves_matches_on_tricky_records() {
        let records = [
            doc!({"a": 3, "t": 1}),
            doc!({"a": 7}),
            doc!({"t": 1}),                // `a` missing
            doc!({"a": [1, 9]}),           // `a` unexpectedly multi-valued
            doc!({}),
        ];
        let exprs = [
            Expr::not(Expr::lt("a", 5)),
            Expr::not(Expr::not(Expr::ge("a", 5))),
            Expr::not(Expr::and([Expr::lt("a", 5), Expr::exists("t")])),
            Expr::not(Expr::or([Expr::eq("a", 3), Expr::gt("a", 6)])),
            Expr::not(Expr::contains("a", 9)),
            Expr::not(Expr::Cmp {
                op: CmpOp::Lt,
                path: Path::parse("a[*]"),
                value: Value::Int(5),
            }),
            Expr::and([Expr::or([]), Expr::ge("a", 1)]),
            Expr::or([Expr::and([]), Expr::ge("a", 1)]),
        ];
        for e in &exprs {
            let s = e.simplify();
            for rec in &records {
                assert_eq!(
                    e.matches(rec),
                    s.matches(rec),
                    "simplification changed `{e}` → `{s}` on {rec}"
                );
            }
        }
    }

    #[test]
    fn simplify_keeps_multi_valued_negations_opaque() {
        // ¬(some ts[*] < 5) is "every element ≥ 5" — not expressible, so the
        // NOT must stay (pushing it in would change answers).
        let e = Expr::not(Expr::Cmp {
            op: CmpOp::Lt,
            path: Path::parse("ts[*]"),
            value: Value::Int(5),
        });
        assert!(matches!(e.simplify(), Expr::Not(_)));
        // NOT (p = c) has no Ne to flip to.
        assert!(matches!(Expr::not(Expr::eq("a", 1)).simplify(), Expr::Not(_)));
    }

    #[test]
    fn display_renders_sql_like_text() {
        let e = Expr::and([Expr::ge("score", 50), Expr::exists("tags")]);
        assert_eq!(e.to_string(), "(score >= 50 AND EXISTS(tags))");
        assert_eq!(Expr::not(Expr::eq("a", 1)).to_string(), "NOT a = 1");
        assert_eq!(
            Expr::length("text", CmpOp::Gt, 3).to_string(),
            "LENGTH(text) > 3"
        );
    }
}

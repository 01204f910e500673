//! Incremental recalculation across query modifications (§6).
//!
//! "Our idea is to retrieve more data than necessary in the beginning and
//! to retrieve only the additional portion of the data that is needed for
//! a slightly modified query later on."
//!
//! At the pipeline level the expensive artefact is the per-window *raw
//! distance vector* (one O(n) pass per predicate — or O(n·m) for
//! subqueries). A slider modification changes exactly one window; the
//! other windows' distances are bit-identical and can be reused. The
//! [`PipelineCache`] stores `(condition subtree, window)` pairs keyed by
//! structural equality of the subtree, fingerprinted by the base relation
//! and the display budget (nested combining normalizes with the budget,
//! so a budget change invalidates too). The window's *weight* is not part
//! of its identity: raw distances do not depend on it, so a re-weighted
//! window is refitted from its cached stats (and raw frame, when the fit
//! selects) instead of re-evaluated.

use std::fmt::Write as _;

use visdb_query::ast::{
    AttrRef, CompareOp, ConditionNode, Predicate, PredicateTarget, Query, SubqueryLink, Weighted,
};
use visdb_query::connection::{ConnectionKind, ConnectionUse};
use visdb_storage::Table;
use visdb_types::Value;

use crate::extend::WindowRecipe;
use crate::pipeline::PredicateWindow;

/// A cache of evaluated predicate windows shared *across* sessions (and
/// threads) — the cross-session sibling of the per-session
/// [`PipelineCache`]. The serving layer implements this over a bounded
/// LRU map (`visdb_service::WindowCache`), so one user's slider drag
/// leaves every *unchanged* window pre-evaluated for everyone else.
///
/// Implementations must be safe to call concurrently; entries are handed
/// out as cheap [`PredicateWindow`] clones (the heavy vectors are
/// `Arc`-shared).
///
/// Correctness rests on the key ([`window_key`]) covering every input of
/// a window evaluation **except** the distance resolver and the base
/// relation's row *content* — the scope string must therefore uniquely
/// identify the dataset generation, and sessions with a non-default
/// resolver (or sampled cross products) must not share a cache.
pub trait WindowSource: Send + Sync {
    /// Return a previously stored window for this exact key, if any and
    /// if it is `usable` by the caller — an entry the caller cannot use
    /// (a window kept as its exact bits where the run needs its raw
    /// frame) counts as a miss.
    fn lookup(
        &self,
        key: &str,
        usable: &dyn Fn(&PredicateWindow) -> bool,
    ) -> Option<PredicateWindow>;
    /// Store a freshly evaluated window under its key. `recipe` is
    /// present when the window can be *extended* across data appends
    /// (see [`crate::extend`]); implementations that support the append
    /// path keep it alongside the window, others may ignore it.
    fn store(&self, key: String, window: PredicateWindow, recipe: Option<WindowRecipe>);
}

/// The exact cache key of one predicate-window evaluation: dataset scope
/// (name + generation), base relation identity, row count, display
/// budget (inner nodes normalize with it), and the condition subtree
/// (structural identity — two sessions building the same subtree through
/// different paths share an entry). The window's own weight is **not**
/// part of the key — only the §5.2 fit and the normalization depend on
/// it, not the raw distances — so a cache holds one entry per subtree
/// whose latest stored weight wins; a lookup under another weight refits
/// the entry.
///
/// The subtree is rendered by [`encode_node`], an explicit canonical
/// visitor with **length-prefixed strings**: every user-controlled
/// string (column names, string literals, connection names) is written
/// as `len:bytes`, every list with a count prefix, and every float as
/// its exact bit pattern. The **scope and table name are length-prefixed
/// too** — both are user-controllable now that datasets can be
/// registered from CSV text, so a crafted dataset or table name must not
/// be able to shift bytes across field boundaries any more than a
/// crafted literal can. Injectivity therefore never depends on escaping
/// or on any formatting a crafted input could imitate — the failure
/// mode of naive `Display`/join encodings, where a literal like
/// `"a = b"` inside one tree can render identically to two separate
/// fields of another (regression-tested below). Neither the
/// human-oriented query printer (elides unit weights, no escaping) nor
/// derived `Debug` (stable only by accident of the derive) is used.
/// All NaN literals share a bit-pattern class per NaN, which is
/// harmless: a NaN predicate yields identical (all-undefined) distances
/// regardless of payload.
pub fn window_key(
    scope: &str,
    table: &Table,
    display_budget: usize,
    node: &ConditionNode,
) -> String {
    let mut key = String::new();
    encode_str(&mut key, scope);
    encode_str(&mut key, table.name());
    let _ = write!(key, "{};{display_budget};", table.len());
    encode_node(&mut key, node);
    key
}

/// The scope string a [`window_key`] (or any key starting with an
/// [`encode_str`]-framed scope) was built under, or `None` for a
/// malformed key. Cache implementations use this to invalidate every
/// entry of one dataset without relying on raw prefix matching — which
/// a scope containing the match bytes could defeat.
pub fn key_scope(key: &str) -> Option<&str> {
    let (len, rest) = key.split_once(':')?;
    let len: usize = len.parse().ok()?;
    rest.get(..len)
}

/// Append `s` as `len:bytes` — the length prefix is what makes every
/// downstream composite encoding injective regardless of the bytes a
/// user-controlled string contains.
fn encode_str(out: &mut String, s: &str) {
    let _ = write!(out, "{}:", s.len());
    out.push_str(s);
}

fn encode_f64(out: &mut String, v: f64) {
    let _ = write!(out, "{:016x}", v.to_bits());
}

fn encode_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push('N'),
        Value::Bool(b) => out.push_str(if *b { "B1" } else { "B0" }),
        Value::Int(i) => {
            let _ = write!(out, "I{i};");
        }
        Value::Float(f) => {
            out.push('F');
            encode_f64(out, *f);
        }
        Value::Str(s) => {
            out.push('S');
            encode_str(out, s);
        }
        Value::Timestamp(t) => {
            let _ = write!(out, "T{t};");
        }
        Value::Location(l) => {
            out.push('L');
            encode_f64(out, l.lat);
            encode_f64(out, l.lon);
        }
    }
}

fn encode_attr(out: &mut String, attr: &AttrRef) {
    out.push('a');
    match &attr.table {
        Some(t) => {
            out.push('1');
            encode_str(out, t);
        }
        None => out.push('0'),
    }
    encode_str(out, &attr.column);
}

fn encode_op(out: &mut String, op: CompareOp) {
    out.push(match op {
        CompareOp::Eq => '=',
        CompareOp::Ne => '≠',
        CompareOp::Lt => '<',
        CompareOp::Le => '≤',
        CompareOp::Gt => '>',
        CompareOp::Ge => '≥',
    });
}

fn encode_predicate(out: &mut String, p: &Predicate) {
    out.push('p');
    encode_attr(out, &p.attr);
    match &p.target {
        PredicateTarget::Compare { op, value } => {
            out.push('C');
            encode_op(out, *op);
            encode_value(out, value);
        }
        PredicateTarget::Range { low, high } => {
            out.push('R');
            encode_value(out, low);
            encode_value(out, high);
        }
        PredicateTarget::Around { center, deviation } => {
            out.push('A');
            encode_value(out, center);
            encode_f64(out, *deviation);
        }
    }
}

fn encode_weighted_list(out: &mut String, children: &[Weighted]) {
    let _ = write!(out, "{}(", children.len());
    for w in children {
        encode_f64(out, w.weight);
        encode_node(out, &w.node);
    }
    out.push(')');
}

fn encode_connection(out: &mut String, c: &ConnectionUse) {
    out.push('c');
    encode_str(out, &c.def.name);
    encode_str(out, &c.def.left_table);
    encode_str(out, &c.def.right_table);
    match &c.def.kind {
        ConnectionKind::Equi { left, right } => {
            out.push('E');
            encode_attr(out, left);
            encode_attr(out, right);
        }
        ConnectionKind::NonEqui { left, op, right } => {
            out.push('O');
            encode_attr(out, left);
            encode_op(out, *op);
            encode_attr(out, right);
        }
        ConnectionKind::TimeDiff { left, right } => {
            out.push('T');
            encode_attr(out, left);
            encode_attr(out, right);
        }
        ConnectionKind::SpatialWithin { left, right } => {
            out.push('S');
            encode_attr(out, left);
            encode_attr(out, right);
        }
        ConnectionKind::ForeignKey { left, right } => {
            out.push('F');
            encode_attr(out, left);
            encode_attr(out, right);
        }
    }
    let _ = write!(out, "{}(", c.params.len());
    for p in &c.params {
        encode_f64(out, *p);
    }
    out.push(')');
}

fn encode_query(out: &mut String, q: &Query) {
    out.push('Q');
    let _ = write!(out, "{}(", q.tables.len());
    for t in &q.tables {
        encode_str(out, t);
    }
    out.push(')');
    let _ = write!(out, "{}(", q.projection.len());
    for a in &q.projection {
        encode_attr(out, a);
    }
    out.push(')');
    match &q.condition {
        Some(w) => {
            out.push('1');
            encode_f64(out, w.weight);
            encode_node(out, &w.node);
        }
        None => out.push('0'),
    }
}

/// The canonical condition-subtree encoder behind [`window_key`]: an
/// explicit visitor over the full AST with length-prefixed strings and
/// count-prefixed lists, so structurally distinct trees can never share
/// an encoding no matter what bytes their literals contain.
pub fn encode_node(out: &mut String, node: &ConditionNode) {
    match node {
        ConditionNode::Predicate(p) => encode_predicate(out, p),
        ConditionNode::And(children) => {
            out.push('&');
            encode_weighted_list(out, children);
        }
        ConditionNode::Or(children) => {
            out.push('|');
            encode_weighted_list(out, children);
        }
        ConditionNode::Not(inner) => {
            out.push('!');
            encode_node(out, inner);
        }
        ConditionNode::Connection(c) => encode_connection(out, c),
        ConditionNode::Subquery { link, query } => {
            out.push('q');
            match link {
                SubqueryLink::Exists => out.push('E'),
                SubqueryLink::In { outer, inner } => {
                    out.push('I');
                    encode_attr(out, outer);
                    encode_attr(out, inner);
                }
            }
            encode_query(out, query);
        }
    }
}

/// Cache of evaluated top-level windows.
#[derive(Debug, Clone, Default)]
pub struct PipelineCache {
    /// (table name, row count, display budget).
    fingerprint: Option<(String, usize, usize)>,
    entries: Vec<(ConditionNode, PredicateWindow)>,
    /// Windows served from the cache.
    pub hits: usize,
    /// Windows that had to be evaluated.
    pub misses: usize,
}

impl PipelineCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check the cache against the current base relation / budget; clears
    /// stored entries when anything changed. The fingerprint cannot see
    /// every base change (e.g. different join sampling options can yield
    /// same-size tables) — callers must [`PipelineCache::invalidate`]
    /// explicitly in those cases.
    pub fn validate(&mut self, table: &Table, display_budget: usize) {
        let fp = (table.name().to_string(), table.len(), display_budget);
        if self.fingerprint.as_ref() != Some(&fp) {
            self.entries.clear();
            self.fingerprint = Some(fp);
        }
    }

    /// Drop everything (base relation changed in a way the fingerprint
    /// cannot detect).
    pub fn invalidate(&mut self) {
        self.entries.clear();
        self.fingerprint = None;
    }

    /// Look up a window by its condition subtree. The stored weight may
    /// differ from the caller's: raw distances do not depend on it, so
    /// the caller compares weights and refits (§5.2) the cached window
    /// when they differ — a found entry is a hit either way, unless the
    /// caller cannot use it (`usable`), which is a miss.
    pub fn lookup(
        &mut self,
        node: &ConditionNode,
        usable: impl Fn(&PredicateWindow) -> bool,
    ) -> Option<PredicateWindow> {
        let found = (self.entries.iter())
            .find(|(n, _)| n == node)
            .map(|(_, e)| e)
            .filter(|e| usable(e))
            .cloned();
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// The stored windows with their condition subtrees — the previous
    /// round's, which a slid window is re-derived from. Counts as no
    /// lookup.
    pub fn windows(&self) -> impl Iterator<Item = (&ConditionNode, &PredicateWindow)> {
        self.entries.iter().map(|(node, win)| (node, win))
    }

    /// Replace the stored windows with this evaluation round's results.
    pub fn store(&mut self, windows: Vec<(ConditionNode, PredicateWindow)>) {
        self.entries = windows;
    }

    /// Number of cached windows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit rate over the cache's lifetime.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::normalize::NormParams;
    use visdb_query::ast::{AttrRef, CompareOp, Predicate};
    use visdb_storage::TableBuilder;
    use visdb_types::{Column, DataType, Value};

    fn node(threshold: f64) -> ConditionNode {
        ConditionNode::Predicate(Predicate::compare(
            AttrRef::new("x"),
            CompareOp::Ge,
            threshold,
        ))
    }

    fn eval(n: usize) -> PredicateWindow {
        use visdb_distance::frame::DistanceFrame;
        let (raw, stats) = DistanceFrame::constant(n, 0.0);
        PredicateWindow::full(
            "t".into(),
            true,
            1.0,
            (Arc::new(raw), stats),
            NormParams {
                dmin: 0.0,
                dmax: 0.0,
            },
        )
    }

    fn table(n: usize) -> Table {
        let mut b = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
        for i in 0..n {
            b = b.row(vec![Value::Float(i as f64)]).unwrap();
        }
        b.build()
    }

    #[test]
    fn window_keys_cannot_be_forged_by_string_literals() {
        use visdb_query::ast::Weighted;
        let t = table(3);
        let pred = |col: &str, lit: &str| {
            ConditionNode::Predicate(Predicate::compare(AttrRef::new(col), CompareOp::Eq, lit))
        };
        // a single predicate whose literal mimics the *rendered* form of
        // a two-predicate AND must not share a key with the real AND
        let forged = ConditionNode::And(vec![Weighted::unit(pred("s", "a']\n  [t = 'b"))]);
        let genuine = ConditionNode::And(vec![
            Weighted::unit(pred("s", "a")),
            Weighted::unit(pred("t", "b")),
        ]);
        let key = |n: &ConditionNode| window_key("d#1", &t, 10, n);
        assert_ne!(key(&forged), key(&genuine));
        // nested weights within epsilon of 1.0 (which the human-oriented
        // printer elides) are part of the key too
        let almost_one = f64::from_bits(1.0f64.to_bits() - 1);
        let w1 = ConditionNode::And(vec![Weighted::new(pred("s", "a"), 1.0)]);
        let w2 = ConditionNode::And(vec![Weighted::new(pred("s", "a"), almost_one)]);
        assert_ne!(key(&w1), key(&w2));
        // identical trees built through different paths share a key
        assert_eq!(key(&genuine), key(&genuine.clone()));
    }

    #[test]
    fn crafted_literals_that_collide_under_naive_formatting_get_distinct_keys() {
        use visdb_query::ast::Weighted;
        let t = table(3);
        let key = |n: &ConditionNode| window_key("d#1", &t, 10, n);
        let pred = |col: &str, lit: &str| {
            ConditionNode::Predicate(Predicate::compare(AttrRef::new(col), CompareOp::Eq, lit))
        };

        // Naive `Display` formatting joins fields with separators the
        // fields themselves may contain: a column named "a = 'b'"
        // compared to "c" renders exactly like column "a" compared to
        // the crafted literal "b' = 'c" (no escaping in the printer).
        let shifted_left = pred("a = 'b'", "c");
        let shifted_right = pred("a", "b' = 'c");
        if let (ConditionNode::Predicate(l), ConditionNode::Predicate(r)) =
            (&shifted_left, &shifted_right)
        {
            assert_eq!(l.label(), r.label(), "the naive rendering collides");
        }
        assert_ne!(key(&shifted_left), key(&shifted_right));

        // A literal that embeds the canonical encoder's own length
        // prefixes and tags cannot splice extra structure into the key:
        // `S5:helloS3:abc` as *one* literal differs from two fields.
        let spliced = pred("s", "hello3:abc");
        let two = ConditionNode::And(vec![
            Weighted::unit(pred("s", "hello")),
            Weighted::unit(pred("s", "abc")),
        ]);
        assert_ne!(key(&spliced), key(&two));

        // Unit-separator bytes in a literal do not leak into the key
        // framing of the scope/table/budget prefix.
        let sep = pred("s", "x\u{1f}y");
        let plain = pred("s", "x");
        assert_ne!(key(&sep), key(&plain));

        // Range vs Compare with identical operands stay distinct, as do
        // empty-vs-missing table qualifiers.
        let range = ConditionNode::Predicate(Predicate::range(AttrRef::new("x"), 1.0, 2.0));
        let cmp =
            ConditionNode::Predicate(Predicate::compare(AttrRef::new("x"), CompareOp::Eq, 1.0));
        assert_ne!(key(&range), key(&cmp));
        let qualified = ConditionNode::Predicate(Predicate::compare(
            AttrRef::qualified("", "x"),
            CompareOp::Eq,
            1.0,
        ));
        assert_ne!(key(&qualified), key(&cmp));
    }

    #[test]
    fn scope_and_table_name_are_framed_not_joined() {
        // identical concatenations split differently must not collide:
        // (scope "ab", table "T") vs (scope "a", table "bT")
        let mk_table = |name: &str| {
            TableBuilder::new(name, vec![Column::new("x", DataType::Float)])
                .row(vec![Value::Float(0.0)])
                .unwrap()
                .build()
        };
        let n = node(1.0);
        let k1 = window_key("ab", &mk_table("T"), 10, &n);
        let k2 = window_key("a", &mk_table("bT"), 10, &n);
        assert_ne!(k1, k2);
        // scopes carrying separators, '#' or digit-colon patterns parse
        // back exactly — this is what dataset invalidation matches on
        for scope in ["ramp#1", "a\u{1f}b#2", "7:x#3", ""] {
            let key = window_key(scope, &mk_table("T"), 10, &n);
            assert_eq!(key_scope(&key), Some(scope));
        }
        assert_eq!(key_scope("garbage"), None);
        assert_eq!(key_scope("99:short"), None);
    }

    #[test]
    fn lookup_by_structural_equality() {
        let mut c = PipelineCache::new();
        let t = table(3);
        c.validate(&t, 100);
        c.store(vec![(node(5.0), eval(3))]);
        // the stored weight is the caller's to compare, not the cache's
        assert_eq!(c.lookup(&node(5.0), |_| true).map(|w| w.weight), Some(1.0));
        assert!(c.lookup(&node(6.0), |_| true).is_none());
        // an entry the caller cannot use is a miss
        assert!(c.lookup(&node(5.0), |_| false).is_none());
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 2);
        assert_eq!(c.hit_rate(), 1.0 / 3.0);
    }

    #[test]
    fn fingerprint_changes_clear_entries() {
        let mut c = PipelineCache::new();
        let t = table(3);
        c.validate(&t, 100);
        c.store(vec![(node(5.0), eval(3))]);
        // same everything: entries survive
        c.validate(&t, 100);
        assert_eq!(c.len(), 1);
        // explicit invalidation: cleared
        c.invalidate();
        assert!(c.is_empty());
        // different budget: cleared
        c.validate(&t, 100);
        c.store(vec![(node(5.0), eval(3))]);
        c.validate(&t, 200);
        assert!(c.is_empty());
        // different table size: cleared
        c.store(vec![(node(5.0), eval(3))]);
        c.validate(&table(4), 200);
        assert!(c.is_empty());
    }
}

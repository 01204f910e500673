//! The seeded script generator: what each session sends, line by line.
//!
//! A session's script is an endless sequence of *rounds*; a round holds
//! exactly the workload's tabled class counts, grouped into *episodes*
//! that each open with a `cold_query` of the next query form and
//! continue with interactions that form admits. Everything is a pure
//! function of `(workload, seed, session index)`, so a session's lines do
//! not depend on how client threads interleave.

use std::collections::VecDeque;

use visdb_storage::{Database, Row};
use visdb_types::{DataType, Value};

use crate::workload::{Class, Form, Spec, APPEND_ROWS};

/// Dataset name every workload registers its data under.
pub const DATASET: &str = "env";

/// SplitMix64: small, seedable and owned by the harness, so "same seed,
/// same inputs" cannot drift with the workspace's `rand` stand-in.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Sorted values of the columns thresholds are drawn from. The slider
/// fast path engages only inside `k ≤ exact ≤ max(16k, 4096)`, so drag
/// thresholds must be placed by quantile, not by value.
#[derive(Debug)]
pub struct Quantiles {
    columns: Vec<(String, String, Vec<f64>)>,
}

impl Quantiles {
    /// Sort every column the workload's forms (and its appends) mention.
    pub fn of(db: &Database, spec: &Spec) -> Quantiles {
        let mut wanted: Vec<(String, String)> = Vec::new();
        for form in spec.forms {
            let outer = form.preds.iter().map(|(col, _)| (spec.outer, *col));
            let inner = form.subquery.iter().map(|(t, (col, _))| (*t, *col));
            wanted.extend(
                outer
                    .chain(inner)
                    .map(|(t, c)| (t.to_string(), c.to_string())),
            );
        }
        let outer = db.table(spec.outer).expect("outer table exists");
        for column in outer.schema().columns() {
            if column.data_type == DataType::Float {
                // appended rows draw every float cell from its column
                wanted.push((spec.outer.to_string(), column.name.clone()));
            }
        }
        wanted.sort_unstable();
        wanted.dedup();
        let columns = wanted
            .into_iter()
            .map(|(table, column)| {
                let t = db.table(&table).expect("form table exists");
                let data = t.column_by_name(&column).expect("form column exists");
                let mut values: Vec<f64> = (0..t.len()).filter_map(|i| data.get_f64(i)).collect();
                values.sort_by(f64::total_cmp);
                (table, column, values)
            })
            .collect();
        Quantiles { columns }
    }

    fn sorted(&self, table: &str, column: &str) -> &[f64] {
        self.columns
            .iter()
            .find(|(t, c, _)| t == table && c == column)
            .map(|(_, _, v)| v.as_slice())
            .expect("quantiles were built for every form column")
    }

    /// The value at quantile `q` of a column.
    pub fn at(&self, table: &str, column: &str, q: f64) -> f64 {
        let v = self.sorted(table, column);
        v[((v.len() - 1) as f64 * q) as usize]
    }

    /// Rows a comparison against `value` selects — what `exact` will be.
    #[cfg(test)]
    pub fn exact(&self, table: &str, (column, op): (&str, &str), value: f64) -> usize {
        let v = self.sorted(table, column);
        match op {
            ">" => v.len() - v.partition_point(|x| *x <= value),
            ">=" => v.len() - v.partition_point(|x| *x < value),
            "<" => v.partition_point(|x| *x < value),
            "<=" => v.partition_point(|x| *x <= value),
            other => panic!("forms only use ordering comparisons, not {other}"),
        }
    }
}

/// One interaction: the modify line(s) plus the fetch that shows the
/// result, all addressed to one session.
#[derive(Debug, Clone, PartialEq)]
pub struct Interaction {
    /// The class, by input.
    pub class: Class,
    /// Session index (the wire id is `index + 1`: a service numbers its
    /// sessions from 1 in creation order).
    pub session: usize,
    /// Complete protocol lines, each carrying an `"id"`.
    pub lines: Vec<String>,
    /// The threshold of a drag (for the class-purity check).
    pub drag_value: Option<f64>,
}

/// The quantile a threshold must sit at for the comparison `op` to keep
/// the share `keep` of the rows (mirrored for `<`).
pub fn quantile_keeping(op: &str, keep: f64) -> f64 {
    if op.starts_with('>') {
        1.0 - keep
    } else {
        keep
    }
}

/// An endless per-session script.
pub struct SessionScript<'a> {
    spec: &'a Spec,
    quantiles: &'a Quantiles,
    session: usize,
    rng: Rng,
    next_id: u64,
    /// Cold queries issued so far (cycles the forms).
    episodes: usize,
    /// Windows of the query currently installed.
    form: &'static Form,
    queue: VecDeque<(Class, &'static Form)>,
    /// Ask `summary` for its pipeline trace (the traced pass).
    pub traced: bool,
}

impl<'a> SessionScript<'a> {
    /// The script of session `session` under `seed`.
    pub fn new(spec: &'a Spec, quantiles: &'a Quantiles, seed: u64, session: usize) -> Self {
        SessionScript {
            spec,
            quantiles,
            session,
            rng: Rng::new(seed, session as u64),
            next_id: 1,
            episodes: 0,
            form: spec.forms[0],
            queue: VecDeque::new(),
            traced: false,
        }
    }

    /// Wrap a request body into a complete line for this session.
    pub fn line(&mut self, body: &str) -> String {
        let id = self.next_id;
        self.next_id += 1;
        let deadline = self
            .spec
            .deadline_ms
            .map(|ms| format!(",\"deadline_ms\":{ms}"))
            .unwrap_or_default();
        format!(
            "{{\"id\":{id},\"session\":{},{body}{deadline}}}",
            self.session + 1
        )
    }

    /// The set-up line every session starts with: display 1 % of the data.
    pub fn policy_line(&mut self) -> String {
        self.line("\"op\":\"set_policy\",\"percentage\":1")
    }

    fn render(&mut self, format: &str) -> String {
        self.line(&format!("\"op\":\"render\",\"format\":\"{format}\""))
    }

    /// Plan one round: episodes in order, each `cold_query` followed by
    /// its share of the round's other classes.
    fn plan_round(&mut self) {
        let spec = self.spec;
        let count = |class: Class| -> usize {
            spec.round
                .iter()
                .find(|(c, _)| *c == class)
                .map_or(0, |(_, n)| *n)
        };
        let cold = count(Class::ColdQuery);
        let forms: Vec<&'static Form> = (0..cold)
            .map(|e| spec.forms[(self.episodes + e) % spec.forms.len()])
            .collect();
        // the episode of each instance of `class`: dealt evenly over the
        // episodes whose form admits it, from a random first episode
        let deal = |rng: &mut Rng, class: Class| -> Vec<usize> {
            let eligible: Vec<usize> = (0..cold)
                .filter(|&e| forms[e].admits.contains(&class))
                .collect();
            if eligible.is_empty() {
                return Vec::new();
            }
            let start = rng.below(eligible.len());
            (0..count(class))
                .map(|i| eligible[(start + i) % eligible.len()])
                .collect()
        };
        let mut episodes: Vec<Vec<Class>> = vec![Vec::new(); cold];
        let free = |c: &Class| !c.needs_settled() && !matches!(c, Class::ColdQuery | Class::Append);
        for class in Class::ALL.into_iter().filter(free) {
            for e in deal(&mut self.rng, class) {
                episodes[e].push(class);
            }
        }
        for items in &mut episodes {
            self.rng.shuffle(items);
        }
        // reask / frame_ppm go in last, each into a random slot that
        // keeps it on a settled session: slot i sits after item i-1
        // (slot 0: right after the cold query's render)
        for class in Class::ALL.into_iter().filter(|c| c.needs_settled()) {
            for e in deal(&mut self.rng, class) {
                let items = &mut episodes[e];
                let slots: Vec<usize> = (0..=items.len())
                    .filter(|&i| i == 0 || !items[i - 1].unsettles())
                    .collect();
                items.insert(slots[self.rng.below(slots.len())], class);
            }
        }
        for (form, items) in forms.iter().zip(episodes) {
            self.queue.push_back((Class::ColdQuery, *form));
            self.queue.extend(items.into_iter().map(|c| (c, *form)));
        }
    }

    fn cold_text(&mut self, form: &Form) -> String {
        // a dashboard cold query uses one of a few fixed thresholds,
        // identical across sessions; any other text is never seen twice
        let single = form.preds.len() == 1 && form.subquery.is_none();
        let dashboards = self.spec.dashboards;
        let dashboard = (single && dashboards > 0)
            .then(|| self.rng.below(dashboards) as f64 / dashboards as f64);
        let mut threshold = |table: &str, (column, op): (&str, &str)| {
            let u = dashboard.unwrap_or_else(|| self.rng.unit());
            self.quantiles
                .at(table, column, quantile_keeping(op, 0.1 + 0.4 * u))
        };
        let mut windows: Vec<String> = form
            .preds
            .iter()
            .map(|&(column, op)| {
                format!("{column} {op} {}", threshold(self.spec.outer, (column, op)))
            })
            .collect();
        if let Some((inner, (column, op))) = form.subquery {
            windows.push(format!(
                "DateTime IN (SELECT DateTime FROM {inner} WHERE {column} {op} {})",
                threshold(inner, (column, op))
            ));
        }
        format!(
            "SELECT * FROM {} WHERE {}",
            self.spec.outer,
            windows.join(" AND ")
        )
    }

    fn slider(&mut self, op_name: &str, keep_lo: f64, keep_hi: f64) -> (String, f64) {
        let (column, op) = self.form.preds[0];
        let q = quantile_keeping(op, self.rng.range(keep_lo, keep_hi));
        let value = self.quantiles.at(self.spec.outer, column, q);
        let line = self.line(&format!(
            "\"op\":\"{op_name}\",\"window\":0,\"cmp\":\"{op}\",\"value\":{value}"
        ));
        (line, value)
    }
}

impl Iterator for SessionScript<'_> {
    type Item = Interaction;

    fn next(&mut self) -> Option<Interaction> {
        if self.queue.is_empty() {
            self.plan_round();
        }
        let (class, form) = self.queue.pop_front().expect("a round is never empty");
        let mut drag_value = None;
        let lines = match class {
            Class::ColdQuery => {
                self.form = form;
                self.episodes += 1;
                let text = self.cold_text(form);
                vec![
                    self.line(&format!("\"op\":\"set_query\",\"text\":\"{text}\"")),
                    self.render("ascii"),
                ]
            }
            Class::Slide => vec![self.slider("move_slider", 0.1, 0.5).0, self.render("ascii")],
            Class::Reweight => {
                // the last window: on the join form that is the subquery,
                // whose re-evaluation is the join itself (a random window
                // there would make the class two equally likely costs)
                let window = form.preds.len() + usize::from(form.subquery.is_some()) - 1;
                let weight = self.rng.range(0.2, 1.0);
                vec![
                    self.line(&format!(
                        "\"op\":\"set_weight\",\"window\":{window},\"weight\":{weight}"
                    )),
                    self.render("ascii"),
                ]
            }
            // display count k is 1 % of the rows: dense keeps 3–12 %
            // (inside k ≤ exact ≤ 16k), sparse 0.1–0.8 % (below k)
            Class::DragDense | Class::DragSparse => {
                let (lo, hi) = if class == Class::DragDense {
                    (0.03, 0.12)
                } else {
                    (0.001, 0.008)
                };
                let (line, value) = self.slider("drag_slider", lo, hi);
                drag_value = Some(value);
                vec![line]
            }
            Class::Reask => {
                let trace = if self.traced { ",\"trace\":true" } else { "" };
                vec![
                    self.line(&format!("\"op\":\"summary\"{trace}")),
                    self.render("ascii"),
                ]
            }
            Class::FramePpm => vec![self.render("ppm")],
            Class::Append => unreachable!("appends come from AppendScript"),
        };
        Some(Interaction {
            class,
            session: self.session,
            lines,
            drag_value,
        })
    }
}

/// The append stream: `append_rows` batches continuing the outer table's
/// time series, each followed by a `summary` on the monitor session.
pub struct AppendScript<'a> {
    spec: &'a Spec,
    quantiles: &'a Quantiles,
    monitor: SessionScript<'a>,
    rng: Rng,
    /// `(name, type)` of the outer table's columns.
    columns: Vec<(String, DataType)>,
    /// A row to copy non-numeric cells (the station's location) from.
    template: Row,
    next_time: i64,
    next_id: u64,
    /// Every row appended so far, for the append ≡ reload check.
    pub appended: Vec<Row>,
}

impl<'a> AppendScript<'a> {
    /// Appends for `spec` over `db`; `monitor` is the session index the
    /// follow-up `summary` goes to.
    pub fn new(
        spec: &'a Spec,
        quantiles: &'a Quantiles,
        db: &Database,
        seed: u64,
        monitor: usize,
    ) -> Self {
        let table = db.table(spec.outer).expect("outer table exists");
        let last = table
            .row(table.len() - 1)
            .expect("outer table is not empty");
        let columns = table
            .schema()
            .columns()
            .iter()
            .map(|c| (c.name.clone(), c.data_type))
            .collect();
        let next_time = last
            .iter()
            .find_map(|v| match v {
                Value::Timestamp(t) => Some(*t + 3_600),
                _ => None,
            })
            .expect("outer table has a DateTime column");
        AppendScript {
            spec,
            quantiles,
            monitor: SessionScript::new(spec, quantiles, seed, monitor),
            rng: Rng::new(seed, u64::MAX),
            columns,
            template: last,
            next_time,
            next_id: 1,
            appended: Vec::new(),
        }
    }

    /// The monitor session's set-up lines: its policy and the fixed query
    /// whose `summary` follows every append.
    pub fn setup_lines(&mut self) -> Vec<String> {
        let (column, op) = self.spec.forms[0].preds[0];
        let value = self.quantiles.at(self.spec.outer, column, 0.9);
        let text = format!(
            "SELECT * FROM {} WHERE {column} {op} {value}",
            self.spec.outer
        );
        vec![
            self.monitor.policy_line(),
            self.monitor
                .line(&format!("\"op\":\"set_query\",\"text\":\"{text}\"")),
        ]
    }

    /// Ask the monitor `summary` for its pipeline trace.
    pub fn set_traced(&mut self, traced: bool) {
        self.monitor.traced = traced;
    }
}

impl Iterator for AppendScript<'_> {
    type Item = Interaction;

    fn next(&mut self) -> Option<Interaction> {
        let mut cells = Vec::with_capacity(APPEND_ROWS);
        for _ in 0..APPEND_ROWS {
            let mut row = self.template.clone();
            let mut json = Vec::with_capacity(row.len());
            for (cell, (name, data_type)) in row.iter_mut().zip(&self.columns) {
                match data_type {
                    DataType::Timestamp => {
                        *cell = Value::Timestamp(self.next_time);
                        self.next_time += 3_600;
                    }
                    DataType::Float => {
                        // in-distribution values: a live feed rarely
                        // moves a column's range
                        let q = self.rng.unit();
                        *cell = Value::Float(self.quantiles.at(self.spec.outer, name, q));
                    }
                    _ => {}
                }
                json.push(match cell {
                    Value::Timestamp(t) => t.to_string(),
                    Value::Float(x) => x.to_string(),
                    Value::Location(l) => format!("\"{};{}\"", l.lat, l.lon),
                    other => panic!("environmental tables hold no {other:?} cells"),
                });
            }
            cells.push(format!("[{}]", json.join(",")));
            self.appended.push(row);
        }
        let id = self.next_id;
        self.next_id += 1;
        let trace = if self.monitor.traced {
            ",\"trace\":true"
        } else {
            ""
        };
        Some(Interaction {
            class: Class::Append,
            session: self.monitor.session,
            lines: vec![
                format!(
                    "{{\"id\":{id},\"op\":\"append_rows\",\"dataset\":\"{DATASET}\",\
                     \"table\":\"{}\",\"rows\":[{}]}}",
                    self.spec.outer,
                    cells.join(",")
                ),
                self.monitor.line(&format!("\"op\":\"summary\"{trace}")),
            ],
            drag_value: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use visdb_data::generate_environmental;

    fn fixture(name: &str) -> (Spec, Database) {
        let spec = workload::by_name(name).unwrap().smoke();
        let db = generate_environmental(&spec.env).db;
        (spec, db)
    }

    fn take(spec: &Spec, q: &Quantiles, seed: u64, session: usize, n: usize) -> Vec<Interaction> {
        SessionScript::new(spec, q, seed, session).take(n).collect()
    }

    #[test]
    fn same_seed_same_lines_and_other_seed_other_lines() {
        let (spec, db) = fixture("crowd_50k");
        let q = Quantiles::of(&db, &spec);
        let a = take(&spec, &q, 7, 3, 250);
        assert_eq!(a, take(&spec, &q, 7, 3, 250));
        assert_ne!(a, take(&spec, &q, 8, 3, 250));
        // sessions of one seed are independent streams too
        assert_ne!(
            a.iter().map(|i| &i.lines).collect::<Vec<_>>(),
            take(&spec, &q, 7, 4, 250)
                .iter()
                .map(|i| &i.lines)
                .collect::<Vec<_>>()
        );
        let appends = |seed| -> Vec<Interaction> {
            AppendScript::new(&spec, &q, &db, seed, 9).take(3).collect()
        };
        assert_eq!(appends(7), appends(7));
        assert_ne!(appends(7), appends(8));
    }

    #[test]
    fn every_round_holds_exactly_the_tabled_class_counts() {
        for spec in workload::all() {
            let (spec, db) = fixture(spec.name);
            let q = Quantiles::of(&db, &spec);
            let round = spec.round_len();
            let script = take(&spec, &q, 11, 0, 3 * round);
            for r in script.chunks(round) {
                for (class, n) in spec.round {
                    let got = r.iter().filter(|i| i.class == *class).count();
                    assert_eq!(got, *n, "{}: {}", spec.name, class.name());
                }
            }
        }
    }

    #[test]
    fn classes_are_pure() {
        for spec in workload::all() {
            let (spec, db) = fixture(spec.name);
            let q = Quantiles::of(&db, &spec);
            let n = db.table(spec.outer).unwrap().len();
            let k = n.div_ceil(100); // Percentage(1)
            let mut settled = false;
            let mut windows = 0;
            for i in take(&spec, &q, 5, 1, 4 * spec.round_len()) {
                let pred = spec.forms[0].preds[0];
                match i.class {
                    Class::ColdQuery => windows = i.lines[0].matches(" AND ").count() + 1,
                    Class::Slide => assert!(windows > 1, "slide needs a multi-window query"),
                    Class::Reask | Class::FramePpm => {
                        assert!(settled, "{} on an unsettled session", i.class.name())
                    }
                    Class::DragDense => {
                        let e = q.exact(spec.outer, pred, i.drag_value.unwrap());
                        assert!(k <= e && e <= (16 * k).max(4096), "dense exact {e}, k {k}");
                    }
                    Class::DragSparse => {
                        let e = q.exact(spec.outer, pred, i.drag_value.unwrap());
                        assert!(e < k, "sparse exact {e}, k {k}");
                    }
                    _ => {}
                }
                settled = !i.class.unsettles();
                // every line is addressed and carries an id
                for line in &i.lines {
                    assert!(line.starts_with("{\"id\":"), "{line}");
                    assert!(line.contains("\"session\":2,"), "{line}");
                }
            }
        }
    }
}

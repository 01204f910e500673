//! Typed column vectors.
//!
//! Each column is stored natively (`Vec<f64>`, `Vec<i64>`, ...) with a
//! parallel validity mask for NULLs. Distance evaluation iterates columns
//! directly — the O(n) distance pass and the O(n log n) sort dominate the
//! pipeline (§3: "query processing time is dominated by the time needed
//! for sorting"), so per-value enum boxing on the hot path is avoided.

use std::collections::HashMap;
use std::sync::OnceLock;
use visdb_types::{DataType, Error, Location, Result, Timestamp, Value};

/// Validity mask: `None` means "all valid" (the common case, saving a
/// Vec<bool> per fully-populated column).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Validity {
    mask: Option<Vec<bool>>,
}

impl Validity {
    /// All-valid mask.
    pub fn all_valid() -> Self {
        Validity { mask: None }
    }

    /// Is row `i` valid? Out-of-range rows report invalid.
    pub fn is_valid(&self, i: usize) -> bool {
        match &self.mask {
            None => true,
            Some(m) => m.get(i).copied().unwrap_or(false),
        }
    }

    /// Record validity for the next pushed row.
    fn push(&mut self, valid: bool, len_before: usize) {
        match (&mut self.mask, valid) {
            (None, true) => {}
            (None, false) => {
                let mut m = vec![true; len_before];
                m.push(false);
                self.mask = Some(m);
            }
            (Some(m), v) => m.push(v),
        }
    }

    /// Number of invalid rows.
    pub fn null_count(&self) -> usize {
        self.mask
            .as_ref()
            .map_or(0, |m| m.iter().filter(|v| !**v).count())
    }

    /// The raw validity bitmap: `None` means every row is valid. Borrowed
    /// by the vectorized distance kernels so NULL handling stays a slice
    /// lookup instead of a per-row method call.
    pub fn mask(&self) -> Option<&[bool]> {
        self.mask.as_deref()
    }
}

/// A borrowed view of a numeric column's native buffer, handed to the
/// vectorized distance kernels (`visdb_distance::batch`). Keeping the
/// native element type visible lets the kernels monomorphize per type
/// instead of dispatching on [`Value`] per tuple.
#[derive(Debug, Clone, Copy)]
pub enum NumericSlice<'a> {
    /// A float column's buffer.
    F64(&'a [f64]),
    /// An integer or timestamp column's buffer.
    I64(&'a [i64]),
}

/// A packed string column: one concatenated UTF-8 buffer plus an
/// `n + 1`-entry offset vector, so row `i` is `bytes[offsets[i]..offsets[i+1]]`.
/// This replaces the former `Vec<String>` layout — no per-row heap
/// allocation, no pointer chase per access, and the batch string kernels
/// (`visdb_distance::string`) can walk `bytes`/`offsets` directly.
///
/// A dictionary encoding ([`StrDict`]) is built lazily on first use and
/// cached. A push *extends* a small cached dictionary in place (the
/// append path re-derives the one new code instead of recomputing every
/// first-occurrence id); pushes onto a large cached dictionary drop the
/// cache for a lazy O(total bytes) rebuild.
#[derive(Debug)]
pub struct StrColumn {
    bytes: Vec<u8>,
    offsets: Vec<u32>,
    dict: OnceLock<StrDict>,
}

/// Largest cached dictionary a push will extend in place. The in-place
/// extension scans `values` linearly per push (the cached dict keeps no
/// hash map), so past this cardinality dropping the cache and lazily
/// rebuilding is cheaper than O(unique) per appended row.
const MAX_INLINE_DICT: usize = 1024;

/// Dictionary encoding of a [`StrColumn`]: `codes[i]` indexes into
/// `values`, the distinct strings in first-occurrence order. NULL rows
/// carry the code of their empty-string placeholder — callers must mask
/// by the column's validity, exactly as they do for numeric buffers.
#[derive(Debug, Clone)]
pub struct StrDict {
    codes: Vec<u32>,
    values: Vec<String>,
}

impl StrDict {
    /// Per-row dictionary codes (length = column length).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Distinct values in first-occurrence order; `codes()` indexes here.
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// Number of distinct values.
    pub fn unique_len(&self) -> usize {
        self.values.len()
    }
}

impl StrColumn {
    /// Empty column.
    pub fn new() -> Self {
        StrColumn {
            bytes: Vec::new(),
            offsets: vec![0],
            dict: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pre-reserve for `cap` additional rows (offsets only; byte totals
    /// are unknowable up front).
    pub fn reserve(&mut self, cap: usize) {
        self.offsets.reserve(cap);
    }

    /// Append a row. A small cached dictionary is extended in place —
    /// an existing value reuses its code, a new value mints the next one
    /// (first-occurrence order is preserved because a genuinely new
    /// value is, by construction, first seen at the appended row). A
    /// large cached dictionary is dropped for a lazy rebuild instead.
    /// Either way the state is identical to rebuilding from scratch.
    pub fn push(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        let end = u32::try_from(self.bytes.len()).expect("string column exceeds u32 byte offsets");
        self.offsets.push(end);
        if let Some(mut dict) = self.dict.take() {
            if dict.values.len() <= MAX_INLINE_DICT {
                let code = dict.values.iter().position(|v| v == s).unwrap_or_else(|| {
                    dict.values.push(s.to_owned());
                    dict.values.len() - 1
                });
                dict.codes.push(code as u32);
                let _ = self.dict.set(dict);
            }
        }
    }

    /// Row `i` as a `&str`; `None` out of range. NULL rows read as their
    /// empty-string placeholder — callers consult the validity mask.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&str> {
        if i >= self.len() {
            return None;
        }
        let (a, b) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        // Safety of the expect: bytes only ever come from `&str` pushes.
        Some(std::str::from_utf8(&self.bytes[a..b]).expect("column bytes are valid UTF-8"))
    }

    /// The concatenated UTF-8 buffer.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The `n + 1` row byte offsets into [`StrColumn::bytes`].
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The dictionary encoding, built on first call and cached until the
    /// next push. O(total bytes) to build, then free.
    pub fn dict(&self) -> &StrDict {
        self.dict.get_or_init(|| {
            let n = self.len();
            let mut map: HashMap<&[u8], u32> = HashMap::new();
            let mut codes = Vec::with_capacity(n);
            let mut values: Vec<String> = Vec::new();
            for i in 0..n {
                let (a, b) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
                let raw = &self.bytes[a..b];
                let code = *map.entry(raw).or_insert_with(|| {
                    let c = values.len() as u32;
                    values.push(String::from_utf8_lossy(raw).into_owned());
                    c
                });
                codes.push(code);
            }
            StrDict { codes, values }
        })
    }
}

impl Default for StrColumn {
    fn default() -> Self {
        StrColumn::new()
    }
}

impl Clone for StrColumn {
    fn clone(&self) -> Self {
        // The dict cache is pure derived data; drop it rather than clone.
        StrColumn {
            bytes: self.bytes.clone(),
            offsets: self.offsets.clone(),
            dict: OnceLock::new(),
        }
    }
}

impl PartialEq for StrColumn {
    fn eq(&self, other: &Self) -> bool {
        // The lazily built dict is derived data — identity is the layout.
        self.bytes == other.bytes && self.offsets == other.offsets
    }
}

/// A typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>, Validity),
    /// 64-bit floats.
    Float(Vec<f64>, Validity),
    /// Booleans.
    Bool(Vec<bool>, Validity),
    /// UTF-8 strings in a packed offset+bytes layout.
    Str(StrColumn, Validity),
    /// Epoch timestamps.
    Timestamp(Vec<Timestamp>, Validity),
    /// Geographic coordinates.
    Location(Vec<Location>, Validity),
}

impl ColumnData {
    /// Empty column of the given type. `Unknown` maps to a float column
    /// (it can only ever hold NULLs, which any representation can).
    pub fn new(dt: DataType) -> Self {
        match dt {
            DataType::Int => ColumnData::Int(Vec::new(), Validity::all_valid()),
            DataType::Float | DataType::Unknown => {
                ColumnData::Float(Vec::new(), Validity::all_valid())
            }
            DataType::Bool => ColumnData::Bool(Vec::new(), Validity::all_valid()),
            DataType::Str => ColumnData::Str(StrColumn::new(), Validity::all_valid()),
            DataType::Timestamp => ColumnData::Timestamp(Vec::new(), Validity::all_valid()),
            DataType::Location => ColumnData::Location(Vec::new(), Validity::all_valid()),
        }
    }

    /// Empty column with pre-reserved capacity.
    pub fn with_capacity(dt: DataType, cap: usize) -> Self {
        let mut c = ColumnData::new(dt);
        match &mut c {
            ColumnData::Int(v, _) => v.reserve(cap),
            ColumnData::Float(v, _) => v.reserve(cap),
            ColumnData::Bool(v, _) => v.reserve(cap),
            ColumnData::Str(v, _) => v.reserve(cap),
            ColumnData::Timestamp(v, _) => v.reserve(cap),
            ColumnData::Location(v, _) => v.reserve(cap),
        }
        c
    }

    /// The column's physical type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int(..) => DataType::Int,
            ColumnData::Float(..) => DataType::Float,
            ColumnData::Bool(..) => DataType::Bool,
            ColumnData::Str(..) => DataType::Str,
            ColumnData::Timestamp(..) => DataType::Timestamp,
            ColumnData::Location(..) => DataType::Location,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v, _) => v.len(),
            ColumnData::Float(v, _) => v.len(),
            ColumnData::Bool(v, _) => v.len(),
            ColumnData::Str(v, _) => v.len(),
            ColumnData::Timestamp(v, _) => v.len(),
            ColumnData::Location(v, _) => v.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.validity().null_count()
    }

    fn validity(&self) -> &Validity {
        match self {
            ColumnData::Int(_, v)
            | ColumnData::Bool(_, v)
            | ColumnData::Str(_, v)
            | ColumnData::Timestamp(_, v)
            | ColumnData::Location(_, v)
            | ColumnData::Float(_, v) => v,
        }
    }

    /// Append a [`Value`]. `Null` is accepted by every column; otherwise
    /// the value's type must be compatible with the column's type
    /// (numeric widening `Int -> Float` and `Int <-> Timestamp` allowed).
    pub fn push(&mut self, value: Value) -> Result<()> {
        let len = self.len();
        macro_rules! push_typed {
            ($vec:expr, $val:expr, $validity:expr, $default:expr) => {{
                match $val {
                    Some(x) => {
                        $vec.push(x);
                        $validity.push(true, len);
                    }
                    None => {
                        $vec.push($default);
                        $validity.push(false, len);
                    }
                }
                Ok(())
            }};
        }
        let mismatch = |found: &Value, expected: DataType| Error::TypeMismatch {
            expected: expected.to_string(),
            found: found.data_type().to_string(),
        };
        match self {
            ColumnData::Int(vec, validity) => match value {
                Value::Null => push_typed!(vec, None::<i64>, validity, 0),
                Value::Int(x) => push_typed!(vec, Some(x), validity, 0),
                v => Err(mismatch(&v, DataType::Int)),
            },
            ColumnData::Float(vec, validity) => match value {
                Value::Null => push_typed!(vec, None::<f64>, validity, 0.0),
                Value::Float(x) => push_typed!(vec, Some(x), validity, 0.0),
                Value::Int(x) => push_typed!(vec, Some(x as f64), validity, 0.0),
                v => Err(mismatch(&v, DataType::Float)),
            },
            ColumnData::Bool(vec, validity) => match value {
                Value::Null => push_typed!(vec, None::<bool>, validity, false),
                Value::Bool(x) => push_typed!(vec, Some(x), validity, false),
                v => Err(mismatch(&v, DataType::Bool)),
            },
            ColumnData::Str(vec, validity) => match value {
                Value::Null => {
                    vec.push("");
                    validity.push(false, len);
                    Ok(())
                }
                Value::Str(x) => {
                    vec.push(&x);
                    validity.push(true, len);
                    Ok(())
                }
                v => Err(mismatch(&v, DataType::Str)),
            },
            ColumnData::Timestamp(vec, validity) => match value {
                Value::Null => push_typed!(vec, None::<Timestamp>, validity, 0),
                Value::Timestamp(x) => push_typed!(vec, Some(x), validity, 0),
                Value::Int(x) => push_typed!(vec, Some(x), validity, 0),
                v => Err(mismatch(&v, DataType::Timestamp)),
            },
            ColumnData::Location(vec, validity) => match value {
                Value::Null => {
                    push_typed!(vec, None::<Location>, validity, Location::new(0.0, 0.0))
                }
                Value::Location(x) => push_typed!(vec, Some(x), validity, Location::new(0.0, 0.0)),
                v => Err(mismatch(&v, DataType::Location)),
            },
        }
    }

    /// Read row `i` as a [`Value`] (`Null` where the validity mask says so).
    pub fn get(&self, i: usize) -> Value {
        if !self.validity().is_valid(i) {
            return Value::Null;
        }
        match self {
            ColumnData::Int(v, _) => v.get(i).map_or(Value::Null, |x| Value::Int(*x)),
            ColumnData::Float(v, _) => v.get(i).map_or(Value::Null, |x| Value::Float(*x)),
            ColumnData::Bool(v, _) => v.get(i).map_or(Value::Null, |x| Value::Bool(*x)),
            ColumnData::Str(v, _) => v.get(i).map_or(Value::Null, |x| Value::Str(x.to_owned())),
            ColumnData::Timestamp(v, _) => v.get(i).map_or(Value::Null, |x| Value::Timestamp(*x)),
            ColumnData::Location(v, _) => v.get(i).map_or(Value::Null, |x| Value::Location(*x)),
        }
    }

    /// Numeric projection of row `i`: `None` for NULLs and non-numeric
    /// types. Hot-path accessor used by metric distance functions.
    #[inline]
    pub fn get_f64(&self, i: usize) -> Option<f64> {
        if !self.validity().is_valid(i) {
            return None;
        }
        match self {
            ColumnData::Int(v, _) => v.get(i).map(|x| *x as f64),
            ColumnData::Float(v, _) => v.get(i).copied(),
            ColumnData::Bool(v, _) => v.get(i).map(|x| f64::from(u8::from(*x))),
            ColumnData::Timestamp(v, _) => v.get(i).map(|x| *x as f64),
            _ => None,
        }
    }

    /// String projection of row `i`.
    #[inline]
    pub fn get_str(&self, i: usize) -> Option<&str> {
        if !self.validity().is_valid(i) {
            return None;
        }
        match self {
            ColumnData::Str(v, _) => v.get(i),
            _ => None,
        }
    }

    /// Location projection of row `i`.
    #[inline]
    pub fn get_location(&self, i: usize) -> Option<Location> {
        if !self.validity().is_valid(i) {
            return None;
        }
        match self {
            ColumnData::Location(v, _) => v.get(i).copied(),
            _ => None,
        }
    }

    /// Borrow the native numeric buffer and validity bitmap, when this
    /// column has one. This is the entry point of the columnar fast path:
    /// distance kernels iterate the returned slice directly, with no
    /// per-tuple [`Value`] materialisation. Bool columns are excluded
    /// (they take the generic per-tuple path, preserving the
    /// `false -> 0.0` / `true -> 1.0` projection of [`ColumnData::get_f64`]).
    pub fn numeric_slice(&self) -> Option<(NumericSlice<'_>, Option<&[bool]>)> {
        match self {
            ColumnData::Float(v, m) => Some((NumericSlice::F64(v), m.mask())),
            ColumnData::Int(v, m) | ColumnData::Timestamp(v, m) => {
                Some((NumericSlice::I64(v), m.mask()))
            }
            _ => None,
        }
    }

    /// [`ColumnData::numeric_slice`] restricted to one row range: the
    /// native buffer and validity mask of rows `offset..offset + len`.
    /// This is how a chunk walk hands each task its kernel inputs
    /// without copying anything.
    pub fn numeric_slice_at(
        &self,
        offset: usize,
        len: usize,
    ) -> Option<(NumericSlice<'_>, Option<&[bool]>)> {
        let (slice, mask) = self.numeric_slice()?;
        let end = offset + len;
        let slice = match slice {
            NumericSlice::F64(xs) => NumericSlice::F64(&xs[offset..end]),
            NumericSlice::I64(xs) => NumericSlice::I64(&xs[offset..end]),
        };
        Some((slice, mask.map(|m| &m[offset..end])))
    }

    /// Borrow the packed string layout and validity bitmap, when this is
    /// a string column. The string counterpart of
    /// [`ColumnData::numeric_slice`]: batch string kernels and the
    /// dictionary-gather path read `bytes`/`offsets`/`dict` directly, with
    /// no per-tuple [`Value`] materialisation.
    pub fn str_column(&self) -> Option<(&StrColumn, Option<&[bool]>)> {
        match self {
            ColumnData::Str(v, m) => Some((v, m.mask())),
            _ => None,
        }
    }

    /// Gather rows by index into a new column (used to materialise query
    /// results and cross-product slices).
    pub fn gather(&self, indices: &[usize]) -> ColumnData {
        let mut out = ColumnData::with_capacity(self.data_type(), indices.len());
        for &i in indices {
            // gather of an out-of-range index yields NULL rather than a
            // panic: callers construct indices from row counts they own.
            let v = if i < self.len() {
                self.get(i)
            } else {
                Value::Null
            };
            out.push(v).expect("gather preserves column type");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let mut c = ColumnData::new(DataType::Float);
        c.push(Value::Float(1.5)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(2)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Float(1.5));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Float(2.0));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut c = ColumnData::new(DataType::Int);
        assert!(c.push(Value::from("x")).is_err());
        // Float into Int is NOT allowed (lossy); Int into Float is.
        assert!(c.push(Value::Float(1.0)).is_err());
        let mut f = ColumnData::new(DataType::Float);
        assert!(f.push(Value::Int(1)).is_ok());
    }

    #[test]
    fn get_f64_respects_nulls() {
        let mut c = ColumnData::new(DataType::Int);
        c.push(Value::Int(7)).unwrap();
        c.push(Value::Null).unwrap();
        assert_eq!(c.get_f64(0), Some(7.0));
        assert_eq!(c.get_f64(1), None);
        assert_eq!(c.get_f64(99), None);
    }

    #[test]
    fn validity_lazy_materialisation() {
        let mut c = ColumnData::new(DataType::Int);
        for i in 0..10 {
            c.push(Value::Int(i)).unwrap();
        }
        assert_eq!(c.null_count(), 0);
        c.push(Value::Null).unwrap();
        assert_eq!(c.null_count(), 1);
        // earlier rows still valid after mask materialisation
        assert!(c.get_f64(5).is_some());
    }

    #[test]
    fn gather_reorders_and_nullifies_out_of_range() {
        let mut c = ColumnData::new(DataType::Str);
        c.push(Value::from("a")).unwrap();
        c.push(Value::from("b")).unwrap();
        let g = c.gather(&[1, 0, 5]);
        assert_eq!(g.get(0), Value::from("b"));
        assert_eq!(g.get(1), Value::from("a"));
        assert_eq!(g.get(2), Value::Null);
    }

    #[test]
    fn numeric_slice_exposes_native_buffers() {
        let mut f = ColumnData::new(DataType::Float);
        f.push(Value::Float(1.5)).unwrap();
        f.push(Value::Null).unwrap();
        match f.numeric_slice() {
            Some((NumericSlice::F64(xs), Some(mask))) => {
                assert_eq!(xs, &[1.5, 0.0]);
                assert_eq!(mask, &[true, false]);
            }
            other => panic!("unexpected view {other:?}"),
        }
        let mut i = ColumnData::new(DataType::Int);
        i.push(Value::Int(7)).unwrap();
        match i.numeric_slice() {
            Some((NumericSlice::I64(xs), None)) => assert_eq!(xs, &[7]),
            other => panic!("unexpected view {other:?}"),
        }
        let mut t = ColumnData::new(DataType::Timestamp);
        t.push(Value::Timestamp(3600)).unwrap();
        assert!(matches!(
            t.numeric_slice(),
            Some((NumericSlice::I64(_), None))
        ));
        // strings, bools and locations take the per-tuple path
        assert!(ColumnData::new(DataType::Str).numeric_slice().is_none());
        assert!(ColumnData::new(DataType::Bool).numeric_slice().is_none());
        assert!(ColumnData::new(DataType::Location)
            .numeric_slice()
            .is_none());
    }

    #[test]
    fn str_column_packed_layout_and_dict() {
        let mut c = ColumnData::new(DataType::Str);
        for s in ["abc", "", "abc", "日本", "x"] {
            c.push(Value::from(s)).unwrap();
        }
        c.push(Value::Null).unwrap();
        let (sc, mask) = c.str_column().expect("string view");
        assert_eq!(sc.len(), 6);
        assert_eq!(sc.get(0), Some("abc"));
        assert_eq!(sc.get(1), Some(""));
        assert_eq!(sc.get(3), Some("日本"));
        assert_eq!(sc.get(5), Some("")); // NULL placeholder; mask says invalid
        assert_eq!(sc.get(6), None);
        assert_eq!(mask.unwrap(), &[true, true, true, true, true, false]);
        assert_eq!(sc.offsets().len(), 7);
        assert_eq!(sc.bytes().len(), "abc".len() * 2 + "日本".len() + 1);

        let d = sc.dict();
        assert_eq!(d.unique_len(), 4); // abc, "", 日本, x ("" shared with NULL row)
        assert_eq!(d.values(), &["abc", "", "日本", "x"]);
        assert_eq!(d.codes(), &[0, 1, 0, 2, 3, 1]);

        // equality ignores the (cached) dict; clone drops the cache
        let c2 = c.clone();
        assert_eq!(c, c2);
    }

    #[test]
    fn str_column_push_invalidates_dict() {
        let mut sc = StrColumn::new();
        sc.push("a");
        assert_eq!(sc.dict().unique_len(), 1);
        sc.push("b");
        assert_eq!(sc.dict().unique_len(), 2);
        assert_eq!(sc.dict().codes(), &[0, 1]);
    }

    #[test]
    fn str_column_push_extends_cached_dict_identically() {
        let mut sc = StrColumn::new();
        for s in ["a", "b", "a", ""] {
            sc.push(s);
        }
        let _ = sc.dict(); // warm the cache so pushes take the extension path
        for s in ["b", "c", "a", "", "c"] {
            sc.push(s);
        }
        let mut rebuilt = StrColumn::new();
        for i in 0..sc.len() {
            rebuilt.push(sc.get(i).unwrap());
        }
        // `rebuilt` never cached a dict mid-push, so its dict() is the
        // from-scratch first-occurrence scan — the extension must match it.
        assert_eq!(sc.dict().values(), rebuilt.dict().values());
        assert_eq!(sc.dict().codes(), rebuilt.dict().codes());
    }

    #[test]
    fn timestamp_column_accepts_ints() {
        let mut c = ColumnData::new(DataType::Timestamp);
        c.push(Value::Int(3600)).unwrap();
        c.push(Value::Timestamp(7200)).unwrap();
        assert_eq!(c.get(0), Value::Timestamp(3600));
        assert_eq!(c.get_f64(1), Some(7200.0));
    }

    #[test]
    fn location_column() {
        let mut c = ColumnData::new(DataType::Location);
        c.push(Value::Location(Location::new(48.0, 11.0))).unwrap();
        assert_eq!(c.get_location(0), Some(Location::new(48.0, 11.0)));
        assert_eq!(c.get_f64(0), None);
    }

    /// A row range of a native numeric column borrows its buffer and its
    /// validity mask, and an all-valid column has no mask to slice.
    #[test]
    fn numeric_slice_at_slices_native_buffers_and_masks() {
        let mut c = ColumnData::new(DataType::Float);
        for i in 0..10 {
            let v = if i == 4 {
                Value::Null
            } else {
                Value::Float(i as f64)
            };
            c.push(v).unwrap();
        }
        match c.numeric_slice_at(4, 3) {
            Some((NumericSlice::F64(xs), Some(mask))) => {
                assert_eq!(xs, &[0.0, 5.0, 6.0]); // NULL slot holds the default
                assert_eq!(mask, &[false, true, true]);
            }
            other => panic!("unexpected view {other:?}"),
        }
        let mut c = ColumnData::new(DataType::Int);
        for i in 0..6 {
            c.push(Value::Int(i)).unwrap();
        }
        match c.numeric_slice_at(2, 2) {
            Some((NumericSlice::I64(xs), None)) => assert_eq!(xs, &[2, 3]),
            other => panic!("unexpected view {other:?}"),
        }
    }
}

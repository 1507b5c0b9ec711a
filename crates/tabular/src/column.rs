//! Typed, nullable column storage.
//!
//! A [`Column`] is one of four typed vectors with per-cell nullability.
//! Nulls are represented with `Option` rather than a validity bitmap: the
//! frames produced by the culinary analyses are small (thousands of rows),
//! so clarity wins over bit-packing.

use crate::error::{Result, TabularError};
use crate::value::Value;

/// The type tag of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integers.
    Int,
    /// 64-bit floats.
    Float,
    /// UTF-8 strings.
    Str,
    /// Booleans.
    Bool,
}

impl ColumnType {
    /// Human-readable name used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            ColumnType::Int => "int",
            ColumnType::Float => "float",
            ColumnType::Str => "str",
            ColumnType::Bool => "bool",
        }
    }
}

/// A typed, nullable column of cells.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column.
    Int(Vec<Option<i64>>),
    /// Float column. NaN cells are normalized to null on insertion.
    Float(Vec<Option<f64>>),
    /// String column.
    Str(Vec<Option<String>>),
    /// Boolean column.
    Bool(Vec<Option<bool>>),
}

impl Column {
    /// Build a non-null integer column.
    pub fn from_i64s(vals: &[i64]) -> Self {
        Column::Int(vals.iter().copied().map(Some).collect())
    }

    /// Build a non-null float column. NaNs become null.
    pub fn from_f64s(vals: &[f64]) -> Self {
        Column::Float(
            vals.iter()
                .map(|&v| if v.is_nan() { None } else { Some(v) })
                .collect(),
        )
    }

    /// Build a non-null string column.
    pub fn from_strs(vals: &[&str]) -> Self {
        Column::Str(vals.iter().map(|s| Some((*s).to_owned())).collect())
    }

    /// Build a non-null string column from owned strings.
    pub fn from_strings(vals: Vec<String>) -> Self {
        Column::Str(vals.into_iter().map(Some).collect())
    }

    /// Build a non-null boolean column.
    pub fn from_bools(vals: &[bool]) -> Self {
        Column::Bool(vals.iter().copied().map(Some).collect())
    }

    /// An empty column of the given type.
    pub fn empty(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Int => Column::Int(Vec::new()),
            ColumnType::Float => Column::Float(Vec::new()),
            ColumnType::Str => Column::Str(Vec::new()),
            ColumnType::Bool => Column::Bool(Vec::new()),
        }
    }

    /// Number of cells (including nulls).
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// True if the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's type tag.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Column::Int(_) => ColumnType::Int,
            Column::Float(_) => ColumnType::Float,
            Column::Str(_) => ColumnType::Str,
            Column::Bool(_) => ColumnType::Bool,
        }
    }

    /// Number of null cells.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Int(v) => v.iter().filter(|c| c.is_none()).count(),
            Column::Float(v) => v.iter().filter(|c| c.is_none()).count(),
            Column::Str(v) => v.iter().filter(|c| c.is_none()).count(),
            Column::Bool(v) => v.iter().filter(|c| c.is_none()).count(),
        }
    }

    /// The cell at `row` as a dynamic [`Value`], or `None` if out of bounds.
    pub fn get(&self, row: usize) -> Option<Value> {
        if row >= self.len() {
            return None;
        }
        Some(match self {
            Column::Int(v) => v[row].map(Value::Int).unwrap_or(Value::Null),
            Column::Float(v) => v[row].map(Value::Float).unwrap_or(Value::Null),
            Column::Str(v) => v[row]
                .as_ref()
                .map(|s| Value::Str(s.clone()))
                .unwrap_or(Value::Null),
            Column::Bool(v) => v[row].map(Value::Bool).unwrap_or(Value::Null),
        })
    }

    /// Append a dynamic value, coercing `Int` into `Float` columns.
    ///
    /// Returns a [`TabularError::TypeMismatch`] when the value's type does
    /// not fit the column (the column name is unknown at this level, so the
    /// caller is expected to remap the error with the real name).
    pub fn push(&mut self, value: Value) -> Result<()> {
        let mismatch = |col: &Column, v: &Value| TabularError::TypeMismatch {
            column: String::new(),
            expected: col.column_type().name(),
            actual: match v {
                Value::Null => "null",
                Value::Int(_) => "int",
                Value::Float(_) => "float",
                Value::Str(_) => "str",
                Value::Bool(_) => "bool",
            },
        };
        match (&mut *self, value) {
            (Column::Int(v), Value::Int(x)) => v.push(Some(x)),
            (Column::Int(v), Value::Null) => v.push(None),
            (Column::Float(v), Value::Float(x)) => v.push(if x.is_nan() { None } else { Some(x) }),
            (Column::Float(v), Value::Int(x)) => v.push(Some(x as f64)),
            (Column::Float(v), Value::Null) => v.push(None),
            (Column::Str(v), Value::Str(x)) => v.push(Some(x)),
            (Column::Str(v), Value::Null) => v.push(None),
            (Column::Bool(v), Value::Bool(x)) => v.push(Some(x)),
            (Column::Bool(v), Value::Null) => v.push(None),
            (col, v) => return Err(mismatch(col, &v)),
        }
        Ok(())
    }

    /// Borrow as `&[Option<f64>]`, if this is a float column.
    pub fn as_float_slice(&self) -> Option<&[Option<f64>]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[Option<i64>]`, if this is an int column.
    pub fn as_int_slice(&self) -> Option<&[Option<i64>]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[Option<String>]`, if this is a string column.
    pub fn as_str_slice(&self) -> Option<&[Option<String>]> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Iterate over all cells as dynamic [`Value`]s.
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i).expect("index in range"))
    }

    /// Numeric view: each cell as `f64` (ints widened, nulls and
    /// non-numerics skipped). Useful for aggregations.
    pub fn iter_numeric(&self) -> impl Iterator<Item = f64> + '_ {
        self.iter_values().filter_map(|v| v.as_float())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_len() {
        assert_eq!(Column::from_i64s(&[1, 2, 3]).len(), 3);
        assert_eq!(Column::from_f64s(&[1.0]).len(), 1);
        assert_eq!(Column::from_strs(&["a", "b"]).len(), 2);
        assert_eq!(Column::from_bools(&[true]).len(), 1);
        assert!(Column::empty(ColumnType::Int).is_empty());
    }

    #[test]
    fn nan_normalized_to_null() {
        let c = Column::from_f64s(&[1.0, f64::NAN, 2.0]);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(1), Some(Value::Null));
    }

    #[test]
    fn get_and_out_of_bounds() {
        let c = Column::from_i64s(&[10, 20]);
        assert_eq!(c.get(0), Some(Value::Int(10)));
        assert_eq!(c.get(2), None);
    }

    #[test]
    fn push_matching_and_coercion() {
        let mut c = Column::empty(ColumnType::Float);
        c.push(Value::Float(1.5)).unwrap();
        c.push(Value::Int(2)).unwrap(); // int widens into float column
        c.push(Value::Null).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(1), Some(Value::Float(2.0)));
        assert_eq!(c.get(2), Some(Value::Null));
    }

    #[test]
    fn push_type_mismatch() {
        let mut c = Column::empty(ColumnType::Int);
        let err = c.push(Value::str("nope")).unwrap_err();
        assert!(matches!(err, TabularError::TypeMismatch { .. }));
    }

    #[test]
    fn numeric_iter_skips_nulls() {
        let c = Column::Float(vec![Some(1.0), None, Some(3.0)]);
        let vals: Vec<f64> = c.iter_numeric().collect();
        assert_eq!(vals, vec![1.0, 3.0]);
    }

    #[test]
    fn numeric_iter_widens_ints() {
        let c = Column::from_i64s(&[2, 4]);
        let vals: Vec<f64> = c.iter_numeric().collect();
        assert_eq!(vals, vec![2.0, 4.0]);
    }

    #[test]
    fn slice_accessors() {
        let f = Column::from_f64s(&[1.0]);
        assert!(f.as_float_slice().is_some());
        assert!(f.as_int_slice().is_none());
        let i = Column::from_i64s(&[1]);
        assert!(i.as_int_slice().is_some());
        let s = Column::from_strs(&["x"]);
        assert!(s.as_str_slice().is_some());
    }

    #[test]
    fn column_type_names() {
        assert_eq!(ColumnType::Int.name(), "int");
        assert_eq!(ColumnType::Float.name(), "float");
        assert_eq!(ColumnType::Str.name(), "str");
        assert_eq!(ColumnType::Bool.name(), "bool");
    }
}

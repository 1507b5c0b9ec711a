#![warn(missing_docs)]

//! # culinaria-tabular
//!
//! A lightweight, dependency-free columnar data-frame used throughout the
//! `culinaria` workspace as the tabular-output substrate for analyses
//! (category compositions, z-score tables, rank-frequency series, …).
//!
//! The design follows a classic column store:
//!
//! * a [`Frame`] is an ordered collection of named, equal-length
//!   [`Column`]s;
//! * each column is a typed vector (`i64`, `f64`, `String`, `bool`) with
//!   per-cell nullability;
//! * cell-level access goes through [`Value`], a small dynamically-typed
//!   cell;
//! * frames print as aligned text tables ([`Frame::to_table_string`])
//!   and round-trip through RFC-4180-style CSV ([`csv::read_csv`],
//!   [`csv::write_csv`]).
//!
//! The crate is intentionally small: analyses build frames column by
//! column and hand them to a printer or a CSV writer; there are no
//! query operators.
//!
//! ## Example
//!
//! ```
//! use culinaria_tabular::{Column, Frame, Value};
//!
//! let mut f = Frame::new();
//! f.add_column("region", Column::from_strs(&["ITA", "JPN"])).unwrap();
//! f.add_column("z", Column::from_f64s(&[31.0, -5.2])).unwrap();
//!
//! assert_eq!(f.get(1, "region").unwrap(), Value::str("JPN"));
//! assert!(f.to_table_string(22).starts_with("region  z"));
//! assert_eq!(f.to_csv(), "region,z\nITA,31\nJPN,-5.2\n");
//! ```

pub mod column;
pub mod csv;
pub mod display;
pub mod error;
pub mod frame;
pub mod value;

pub use column::{Column, ColumnType};
pub use error::{Result, TabularError};
pub use frame::Frame;
pub use value::Value;

//! # rt-relation
//!
//! Relational substrate for the relative-trust repair system.
//!
//! This crate provides the data model used by every other crate in the
//! workspace:
//!
//! * [`Value`] — cell values, including the *variables* used by V-instances
//!   (Definition 1 of the paper): a variable `v_i^A` stands for "any fresh
//!   constant of attribute `A` that does not collide with existing constants
//!   or other variables".
//! * [`Schema`] / [`AttrId`] — relation schemas with up to 64 attributes
//!   (the paper's Census-Income experiments use 34).
//! * [`Instance`] — a columnar store with cell addressing, instance diffing
//!   (`Δ_d(I, I')`, the set of changed cells) and V-instance-aware
//!   equality; [`Tuple`] is the owned row it decodes on request. Its
//!   [`Column`]s are shared copy-on-write: a clone costs O(arity), and a
//!   write copies only the shared columns it touches.
//! * [`dict`] — per-attribute dictionary encoding, the one place a cell's
//!   value is stored: [`AttrDict`] interns column values to dense `u32`
//!   [`Code`]s (variables in a reserved range, so code equality coincides
//!   with [`Value::matches`]), the instance keeps one code column per
//!   attribute under every mutation, [`CodeKey`] packs multi-attribute
//!   equality keys for the maps updated in place, [`distinct_rows`] counts
//!   distinct projections without hashing, and [`sort_rows_by_codes`]
//!   groups rows by code tuple without hashing (a radix sort whose runs
//!   are the classes, [`code_runs`], and whose order is searchable,
//!   [`code_range`]).
//! * [`work`] — deterministic work counters (`key_bytes_hashed`,
//!   `key_allocs`, `value_compares`, `cells_copied`) consumed by the
//!   offline benchmark gate.
//! * [`load`] — typed bulk ingestion: [`ColumnType`], the
//!   [`EncodedLoader`] and its [`EncodedBlock`]s, which encode raw text
//!   fields **directly into dictionary codes**, hashing each cell once,
//!   and merge in order, inferring column types from the distinct texts as
//!   they go, so bulk loads never build per-cell `Value` probe keys (the
//!   `rt-io` CSV reader drives it, one block per worker).
//! * [`csv`] — CSV writing for repaired instances (reading is `rt-io`'s).
//!
//! The crate is deliberately free of any constraint logic; functional
//! dependencies, violation detection and conflict graphs live in
//! `rt-constraints`.
//!
//! ```
//! use rt_relation::{EncodedLoader, Schema, Value, AttrId, CellRef, ColumnType};
//!
//! let schema = Schema::new("readings", vec!["sensor", "value"]).unwrap();
//! let mut loader = EncodedLoader::new(schema, None).unwrap();
//! let mut block = loader.block();
//! block.push_row([Some("s1"), Some("20.5")]).unwrap();
//! block.push_row([Some("s1"), None]).unwrap();
//! loader.merge(&mut block);
//! let (instance, types) = loader.finish();
//! assert_eq!(types, vec![ColumnType::Str, ColumnType::Float]);
//! assert_eq!(instance.len(), 2);
//! assert_eq!(*instance.cell(CellRef::new(0, AttrId(1))).unwrap(), Value::float(20.5));
//! assert_eq!(*instance.cell(CellRef::new(1, AttrId(1))).unwrap(), Value::Null);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod dict;
pub mod error;
pub mod instance;
pub mod load;
pub mod schema;
pub mod tuple;
pub mod value;
pub mod work;

pub use dict::{
    code_range, code_runs, distinct_rows, row_u32, sort_rows_by_codes, AttrDict, Code, CodeKey,
    CodeSpace, CODE_KEY_INLINE, OVERLAY_CODE_BASE, VAR_CODE_BASE,
};
pub use error::RelationError;
pub use instance::{CellRef, Column, Instance, InstanceDiff};
pub use load::{ColumnType, EncodedBlock, EncodedLoader};
pub use schema::{AttrId, Schema};
pub use tuple::Tuple;
pub use value::{FloatBits, Value, VarId};

/// Convenience result alias used throughout the relational substrate.
pub type Result<T> = std::result::Result<T, RelationError>;

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
//!   equality; [`Tuple`] is the owned row it decodes on request.
//! * [`dict`] — per-attribute dictionary encoding, the one place a cell's
//!   value is stored: [`AttrDict`] interns column values to dense `u32`
//!   [`Code`]s (variables in a reserved range, so code equality coincides
//!   with [`Value::matches`]), the instance keeps one code column per
//!   attribute under every mutation, [`CodeKey`] packs multi-attribute
//!   equality keys, and [`distinct_rows`] counts distinct projections
//!   without hashing.
//! * [`work`] — deterministic equality-work counters
//!   (`key_bytes_hashed`, `key_allocs`, `value_compares`) consumed by the
//!   offline benchmark gate.
//! * [`load`] — typed bulk ingestion: [`ColumnType`] and the
//!   [`EncodedLoader`] behind `Instance::encoded_loader`, which parses raw
//!   text fields **directly into dictionary codes** so bulk loads never
//!   build per-cell `Value` probe keys (the `rt-io` CSV reader drives it).
//! * [`csv`] — CSV writing for repaired instances (reading is `rt-io`'s).
//!
//! The crate is deliberately free of any constraint logic; functional
//! dependencies, violation detection and conflict graphs live in
//! `rt-constraints`.
//!
//! ```
//! use rt_relation::{ColumnType, Instance, Schema, Value, AttrId, CellRef};
//!
//! let schema = Schema::new("readings", vec!["sensor", "value"]).unwrap();
//! let mut instance = Instance::new(schema);
//! let mut loader = instance
//!     .encoded_loader(vec![ColumnType::Str, ColumnType::Float])
//!     .unwrap();
//! loader.push_row(&[Some("s1"), Some("20.5")]).unwrap();
//! loader.push_row(&[Some("s1"), None]).unwrap();
//! drop(loader);
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
    distinct_rows, AttrDict, Code, CodeKey, CodeSpace, CODE_KEY_INLINE, OVERLAY_CODE_BASE,
    VAR_CODE_BASE,
};
pub use error::RelationError;
pub use instance::{CellRef, Instance, InstanceDiff};
pub use load::{ChunkBuffer, ColumnType, EncodedLoader};
pub use schema::{AttrId, Schema};
pub use tuple::Tuple;
pub use value::{FloatBits, Value, VarId};

/// Convenience result alias used throughout the relational substrate.
pub type Result<T> = std::result::Result<T, RelationError>;

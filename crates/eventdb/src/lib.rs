//! Embedded typed event store.
//!
//! sgx-perf serialises all recorded events to a database so the analysis
//! phase (and external tooling) can query them without bespoke parsers
//! (§4 — the original uses SQLite). This crate is the reproduction's
//! stand-in: append-only typed [`Table`]s of [`Record`]s, grouped into a
//! [`Store`] that persists to a compact binary container format.
//!
//! The store is deliberately simple — the analyzer's access patterns are
//! full scans in insertion (= time) order plus point lookups by row id —
//! but it is a real, self-contained format with versioning and corruption
//! detection, so traces can be written by one process and analysed by
//! another, mirroring the decoupled logger/analyser design of the paper.
//!
//! # Examples
//!
//! ```
//! use eventdb::{record, Store, Table};
//!
//! record! {
//!     /// One sample; stored in the table tagged "samples".
//!     #[derive(Debug, Clone, PartialEq)]
//!     struct Sample: "samples" {
//!         t: u64,
//!         label: String,
//!         tags: Vec<Option<u32>>,
//!     }
//! }
//!
//! let mut table = Table::new();
//! table.insert(Sample { t: 42, label: "hello".into(), tags: vec![Some(7), None] });
//!
//! let mut store = Store::new();
//! store.put(&table);
//! let bytes = store.to_bytes();
//!
//! let loaded = Store::from_bytes(&bytes)?;
//! let table2: Table<Sample> = loaded.get()?;
//! assert_eq!(table2.iter().next().unwrap().label, "hello");
//! # Ok::<(), eventdb::DbError>(())
//! ```

pub mod codec;
pub mod store;
pub mod table;

pub use codec::{Decoder, Encoder, Field};
pub use store::{SectionInfo, SegmentedWriter, Store};
pub use table::{Record, RowId, Table};

use std::fmt;

/// Errors returned by the event store.
#[derive(Debug)]
pub enum DbError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The data is malformed (bad magic, truncated section, trailing
    /// bytes, unsupported version).
    Corrupt(String),
    /// The requested table tag is not present in the store.
    MissingTable(&'static str),
    /// A segmented trace ends in a torn frame — the writer was killed
    /// mid-append. Unlike [`DbError::Corrupt`] this is recoverable:
    /// [`Store::salvage_segmented`] drops the tail back to the last valid
    /// frame boundary.
    TruncatedFrame {
        /// Tag of the torn frame ("?" when the kill landed inside the tag
        /// itself).
        table: String,
        /// Byte offset of the torn frame's start within the file.
        offset: usize,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "i/o error: {e}"),
            DbError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            DbError::MissingTable(tag) => write!(f, "missing table `{tag}`"),
            DbError::TruncatedFrame { table, offset } => write!(
                f,
                "truncated frame for table `{table}` at byte {offset} (torn tail)"
            ),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e)
    }
}

//! Append-only typed tables.

use std::fmt;

use crate::codec::{Decoder, Encoder};
use crate::DbError;

/// A row type storable in a [`Table`].
pub trait Record: Sized {
    /// Unique table tag — doubles as the table's name inside a
    /// [`Store`](crate::Store).
    const TAG: &'static str;

    /// Serialises the record.
    fn encode(&self, out: &mut Encoder);

    /// Deserialises one record.
    ///
    /// # Errors
    ///
    /// Implementations must return [`DbError::Corrupt`] (usually by
    /// propagating decoder errors) rather than panicking on bad input.
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DbError>;
}

/// Declares a row struct with named fields and derives its [`Record`]
/// impl: fields are written and read in declaration order, each through
/// its [`Field`](crate::Field) impl. The string after the struct name is
/// the table tag. The [crate-level example](crate) declares one.
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident: $tag:literal {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty,)*
        }

        impl $crate::Record for $name {
            const TAG: &'static str = $tag;
            fn encode(&self, out: &mut $crate::Encoder) {
                $($crate::Field::write(&self.$field, out);)*
            }
            fn decode(
                r: &mut $crate::Decoder<'_>,
            ) -> ::core::result::Result<Self, $crate::DbError> {
                ::core::result::Result::Ok($name {
                    $($field: $crate::Field::read(r)?,)*
                })
            }
        }
    };
}

/// Identifier of a row within its table (dense, insertion order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub usize);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row{}", self.0)
    }
}

/// An append-only table of `R` rows in insertion order.
///
/// Insertion order is timestamp order for sgx-perf traces, so full scans
/// iterate events chronologically per producing thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Table<R> {
    rows: Vec<R>,
}

impl<R> Default for Table<R> {
    fn default() -> Self {
        Table { rows: Vec::new() }
    }
}

impl<R> Table<R> {
    /// Creates an empty table.
    pub fn new() -> Table<R> {
        Table::default()
    }

    /// Appends a row, returning its id.
    pub fn insert(&mut self, row: R) -> RowId {
        self.rows.push(row);
        RowId(self.rows.len() - 1)
    }

    /// Fetches a row by id.
    pub fn get(&self, id: RowId) -> Option<&R> {
        self.rows.get(id.0)
    }

    /// Mutable access to a row (used by the logger to patch end timestamps
    /// when a call completes).
    pub fn get_mut(&mut self, id: RowId) -> Option<&mut R> {
        self.rows.get_mut(id.0)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates rows in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, R> {
        self.rows.iter()
    }

    /// Iterates `(RowId, &R)` pairs in insertion order.
    pub fn iter_with_ids(&self) -> impl Iterator<Item = (RowId, &R)> {
        self.rows.iter().enumerate().map(|(i, r)| (RowId(i), r))
    }
}

impl<'a, R> IntoIterator for &'a Table<R> {
    type Item = &'a R;
    type IntoIter = std::slice::Iter<'a, R>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

impl<R> FromIterator<R> for Table<R> {
    fn from_iter<T: IntoIterator<Item = R>>(iter: T) -> Self {
        Table {
            rows: iter.into_iter().collect(),
        }
    }
}

impl<R> Extend<R> for Table<R> {
    fn extend<T: IntoIterator<Item = R>>(&mut self, iter: T) {
        self.rows.extend(iter);
    }
}

impl<R: Record> Table<R> {
    /// Serialises the whole table (row count + rows).
    pub fn encode(&self, out: &mut Encoder) {
        out.usize(self.rows.len());
        for row in &self.rows {
            row.encode(out);
        }
    }

    /// Deserialises a table written by [`Table::encode`].
    pub fn decode(r: &mut Decoder<'_>) -> Result<Table<R>, DbError> {
        let count = r.usize()?;
        // Guard against absurd counts from corrupt headers: each row needs
        // at least one byte.
        if count > r.remaining() {
            return Err(DbError::Corrupt(format!(
                "row count {count} exceeds remaining bytes {}",
                r.remaining()
            )));
        }
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            rows.push(R::decode(r)?);
        }
        Ok(Table { rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::record! {
        #[derive(Debug, Clone, PartialEq)]
        struct Row: "rows" {
            k: u64,
            s: String,
        }
    }

    fn sample() -> Table<Row> {
        let mut t = Table::new();
        t.insert(Row {
            k: 3,
            s: "c".into(),
        });
        t.insert(Row {
            k: 1,
            s: "a".into(),
        });
        t.insert(Row {
            k: 2,
            s: "b".into(),
        });
        t
    }

    #[test]
    fn insert_returns_dense_ids() {
        let mut t = Table::new();
        assert_eq!(
            t.insert(Row {
                k: 0,
                s: String::new()
            }),
            RowId(0)
        );
        assert_eq!(
            t.insert(Row {
                k: 1,
                s: String::new()
            }),
            RowId(1)
        );
        assert_eq!(t.get(RowId(1)).unwrap().k, 1);
        assert_eq!(t.get(RowId(9)), None);
    }

    #[test]
    fn get_mut_allows_patching() {
        let mut t = sample();
        t.get_mut(RowId(0)).unwrap().k = 99;
        assert_eq!(t.get(RowId(0)).unwrap().k, 99);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample();
        let mut e = Encoder::new();
        t.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let t2 = Table::<Row>::decode(&mut d).unwrap();
        assert_eq!(t, t2);
        assert!(d.is_exhausted());
    }

    #[test]
    fn absurd_row_count_is_corrupt() {
        let mut e = Encoder::new();
        e.usize(u32::MAX as usize);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            Table::<Row>::decode(&mut d).unwrap_err(),
            DbError::Corrupt(_)
        ));
    }

    #[test]
    fn collect_and_extend() {
        let mut t: Table<Row> = vec![Row {
            k: 1,
            s: "x".into(),
        }]
        .into_iter()
        .collect();
        t.extend(vec![Row {
            k: 2,
            s: "y".into(),
        }]);
        assert_eq!(t.len(), 2);
    }
}

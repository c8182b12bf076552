//! Binary encoding primitives.
//!
//! Little-endian fixed-width integers, IEEE-754 doubles, and
//! length-prefixed UTF-8 strings/byte blobs, plus the [`Field`] forms of
//! row values built on them. All decode paths are bounds-checked and
//! return [`DbError::Corrupt`] rather than panicking.

use crate::DbError;

/// Append-only binary encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an IEEE-754 double.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a usize as u64 (portable row counts / indexes).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("blob larger than 4 GiB"));
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked binary decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder at position 0.
    pub fn new(data: &'a [u8]) -> Decoder<'a> {
        Decoder { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the input was fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DbError> {
        if self.remaining() < n {
            return Err(DbError::Corrupt(format!(
                "truncated input: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DbError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, DbError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, DbError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, DbError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an IEEE-754 double.
    pub fn f64(&mut self) -> Result<f64, DbError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a boolean; any byte other than 0/1 is corruption.
    pub fn bool(&mut self) -> Result<bool, DbError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DbError::Corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a usize stored as u64, rejecting values beyond the platform.
    pub fn usize(&mut self) -> Result<usize, DbError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DbError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], DbError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DbError> {
        let raw = self.bytes()?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|e| DbError::Corrupt(format!("invalid utf-8 string: {e}")))
    }
}

/// A value with one binary form inside a row. [`record!`](crate::record)
/// derives a row's codec from its fields' `Field` impls, in declaration
/// order.
pub trait Field: Sized {
    /// Appends the value.
    fn write(&self, out: &mut Encoder);

    /// Reads one value written by [`Field::write`].
    ///
    /// # Errors
    ///
    /// [`DbError::Corrupt`] on truncated or malformed input.
    fn read(r: &mut Decoder<'_>) -> Result<Self, DbError>;
}

macro_rules! scalar_fields {
    ($($ty:ident),*) => {$(
        impl Field for $ty {
            fn write(&self, out: &mut Encoder) {
                out.$ty(*self);
            }
            fn read(r: &mut Decoder<'_>) -> Result<Self, DbError> {
                r.$ty()
            }
        }
    )*};
}

scalar_fields!(u8, u32, u64, i64, f64, bool);

impl Field for String {
    fn write(&self, out: &mut Encoder) {
        out.str(self);
    }
    fn read(r: &mut Decoder<'_>) -> Result<Self, DbError> {
        r.str()
    }
}

/// A presence byte, then the value when present.
impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut Encoder) {
        out.bool(self.is_some());
        if let Some(value) = self {
            value.write(out);
        }
    }
    fn read(r: &mut Decoder<'_>) -> Result<Self, DbError> {
        if r.bool()? {
            T::read(r).map(Some)
        } else {
            Ok(None)
        }
    }
}

/// Most items a decoded list reserves room for before reading them: a
/// corrupt length fails when the bytes run out, not in the allocator.
const LIST_PREALLOC: usize = 1024;

/// A u64 item count, then the items.
impl<T: Field> Field for Vec<T> {
    fn write(&self, out: &mut Encoder) {
        out.usize(self.len());
        for item in self {
            item.write(out);
        }
    }
    fn read(r: &mut Decoder<'_>) -> Result<Self, DbError> {
        let n = r.usize()?;
        let mut items = Vec::with_capacity(n.min(LIST_PREALLOC));
        for _ in 0..n {
            items.push(T::read(r)?);
        }
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u32(0xdeadbeef);
        e.u64(u64::MAX);
        e.i64(-42);
        e.f64(3.5);
        e.bool(true);
        e.usize(12345);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xdeadbeef);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), 3.5);
        assert!(d.bool().unwrap());
        assert_eq!(d.usize().unwrap(), 12345);
        assert!(d.is_exhausted());
    }

    #[test]
    fn string_and_bytes_roundtrip() {
        let mut e = Encoder::new();
        e.str("héllo wörld");
        e.bytes(&[1, 2, 3]);
        e.str("");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.str().unwrap(), "héllo wörld");
        assert_eq!(d.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(d.str().unwrap(), "");
    }

    fn field_roundtrip<T: Field + PartialEq + std::fmt::Debug>(value: T, len: usize) {
        let mut e = Encoder::new();
        value.write(&mut e);
        let bytes = e.into_bytes();
        assert_eq!(bytes.len(), len, "{value:?}");
        let mut d = Decoder::new(&bytes);
        assert_eq!(T::read(&mut d).unwrap(), value);
        assert!(d.is_exhausted());
    }

    #[test]
    fn fields_roundtrip() {
        field_roundtrip(7u8, 1);
        field_roundtrip(0xdead_beef_u32, 4);
        field_roundtrip(u64::MAX, 8);
        field_roundtrip(-42i64, 8);
        field_roundtrip(3.5f64, 8);
        field_roundtrip(true, 1);
        field_roundtrip("héllo".to_string(), 4 + 6);
        field_roundtrip(vec![1u32, 2, 3], 8 + 3 * 4);
        field_roundtrip(Vec::<String>::new(), 8);
        field_roundtrip(vec![vec!["a".to_string()], vec![]], 8 + (8 + 4 + 1) + 8);
    }

    #[test]
    fn option_roundtrip() {
        field_roundtrip(Some(9u64), 1 + 8);
        field_roundtrip(None::<u64>, 1);
        field_roundtrip(Some(Some(false)), 1 + 1 + 1);
    }

    #[test]
    fn huge_vec_length_is_corrupt_without_reserving_it() {
        // Claims u64::MAX items with 3 bytes left. Reserving the claimed
        // length up front would panic with a capacity overflow.
        let mut e = Encoder::new();
        e.u64(u64::MAX);
        e.u8(1);
        e.u8(2);
        e.u8(3);
        let bytes = e.into_bytes();
        let got = Vec::<u64>::read(&mut Decoder::new(&bytes));
        assert!(matches!(got, Err(DbError::Corrupt(_))), "{got:?}");
        // Items that do fit still decode until the bytes run out.
        let got = Vec::<u8>::read(&mut Decoder::new(&bytes));
        assert!(matches!(got, Err(DbError::Corrupt(_))), "{got:?}");
    }

    #[test]
    fn truncated_input_is_corrupt_not_panic() {
        let mut d = Decoder::new(&[1, 2]);
        let err = d.u64().unwrap_err();
        assert!(matches!(err, DbError::Corrupt(_)));
    }

    #[test]
    fn invalid_bool_is_corrupt() {
        let mut d = Decoder::new(&[2]);
        assert!(matches!(d.bool().unwrap_err(), DbError::Corrupt(_)));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut e = Encoder::new();
        e.bytes(&[0xff, 0xfe]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.str().unwrap_err(), DbError::Corrupt(_)));
    }
}

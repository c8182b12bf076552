//! Binary encoding primitives.
//!
//! Little-endian fixed-width integers, IEEE-754 doubles, and
//! length-prefixed UTF-8 strings/byte blobs, plus the [`Field`] forms of
//! row values built on them. All decode paths are bounds-checked and
//! none panics: a checked read returns [`DbError::Corrupt`], a fast read
//! ([`Field::read_fast`]) returns `None`.

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

    /// Creates an empty encoder with room for `bytes` bytes, so that
    /// writing that many allocates once.
    pub fn with_capacity(bytes: usize) -> Encoder {
        Encoder {
            buf: Vec::with_capacity(bytes),
        }
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
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u32.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian i64.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an IEEE-754 double.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a boolean as one byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a usize as u64 (portable row counts / indexes).
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a length-prefixed byte blob.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(blob_len(v.len()));
        self.raw(v);
    }

    /// Writes bytes as they are, with no length prefix.
    #[inline]
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes what `body` writes as a length-prefixed blob, in place: the
    /// prefix is the number of bytes `body` actually wrote.
    #[inline]
    pub fn len_prefixed(&mut self, body: impl FnOnce(&mut Encoder)) {
        let at = self.buf.len();
        self.u32(0);
        body(self);
        let len = blob_len(self.buf.len() - at - 4);
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Writes a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// A blob's length as its u32 prefix.
#[inline]
fn blob_len(len: usize) -> u32 {
    u32::try_from(len).expect("blob larger than 4 GiB")
}

/// Bounds-checked binary decoder over a byte slice.
///
/// Each read comes in two forms: the checked one returns a located
/// [`DbError`], and the fast one (the `read_fast` path of [`Field`])
/// only says whether the bytes hold a value. A clone is a saved position
/// to re-read from.
#[derive(Debug, Clone)]
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

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], DbError> {
        if self.remaining() < n {
            return Err(self.truncated(n));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads exactly `N` bytes.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DbError> {
        let bytes = self.take(N)?;
        Ok(bytes.try_into().expect("take returns exactly N bytes"))
    }

    /// Reads `n` bytes, or `None` when fewer remain.
    #[inline]
    fn take_fast(&mut self, n: usize) -> Option<&'a [u8]> {
        let rest = &self.data[self.pos..];
        let bytes = rest.get(..n)?;
        self.pos += n;
        Some(bytes)
    }

    /// Reads exactly `N` bytes, or `None` when fewer remain.
    #[inline]
    fn array_fast<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (bytes, _) = self.data[self.pos..].split_first_chunk::<N>()?;
        self.pos += N;
        Some(*bytes)
    }

    /// The error of a read past the end, built out of line so that the
    /// bounds-checked reads stay small enough to inline into each row's
    /// decode.
    #[cold]
    #[inline(never)]
    fn truncated(&self, n: usize) -> DbError {
        DbError::Corrupt(format!(
            "truncated input: wanted {n} bytes at offset {}, {} remain",
            self.pos,
            self.remaining()
        ))
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DbError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DbError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian u64.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DbError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian i64.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, DbError> {
        self.array().map(i64::from_le_bytes)
    }

    /// Reads an IEEE-754 double.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DbError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads a boolean; any byte other than 0/1 is corruption.
    #[inline]
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
        self.borrowed_str().map(str::to_string)
    }

    /// Reads a length-prefixed UTF-8 string in place, borrowing the input.
    pub(crate) fn borrowed_str(&mut self) -> Result<&'a str, DbError> {
        let raw = self.bytes()?;
        std::str::from_utf8(raw).map_err(|e| DbError::Corrupt(format!("invalid utf-8 string: {e}")))
    }
}

/// A value with one binary form inside a row. [`record!`](crate::record)
/// derives a row's codec from its fields' `Field` impls, in declaration
/// order.
pub trait Field: Sized {
    /// Fewest bytes an encoded value takes. [`record!`](crate::record)
    /// sums a row's fields into [`Record::MIN_BYTES`](crate::Record::MIN_BYTES).
    const MIN_BYTES: usize;

    /// Bytes [`Field::write`] appends for this value: [`Field::MIN_BYTES`]
    /// unless the value carries a payload. [`record!`](crate::record)
    /// sums a row's fields into
    /// [`Record::encoded_len`](crate::Record::encoded_len).
    #[inline]
    fn encoded_len(&self) -> usize {
        Self::MIN_BYTES
    }

    /// Appends the value.
    fn write(&self, out: &mut Encoder);

    /// Reads one value written by [`Field::write`].
    ///
    /// # Errors
    ///
    /// [`DbError::Corrupt`] on truncated or malformed input.
    fn read(r: &mut Decoder<'_>) -> Result<Self, DbError>;

    /// Reads one value as [`Field::read`] does, but builds no error:
    /// `None` wherever `read` fails, and otherwise `read`'s value and
    /// position. A row is decoded through this fast path and re-read
    /// with `read` only when it declines, so that the error keeps its
    /// text and offset. `Option<Self>` returns in registers where a
    /// `Result` with a [`DbError`] goes through memory.
    #[inline]
    fn read_fast(r: &mut Decoder<'_>) -> Option<Self> {
        Self::read(r).ok()
    }
}

macro_rules! scalar_fields {
    ($($ty:ident: $bytes:literal),*) => {$(
        impl Field for $ty {
            const MIN_BYTES: usize = $bytes;
            #[inline]
            fn write(&self, out: &mut Encoder) {
                out.$ty(*self);
            }
            #[inline]
            fn read(r: &mut Decoder<'_>) -> Result<Self, DbError> {
                r.$ty()
            }
            #[inline]
            fn read_fast(r: &mut Decoder<'_>) -> Option<Self> {
                r.array_fast().map($ty::from_le_bytes)
            }
        }
    )*};
}

scalar_fields!(u8: 1, u32: 4, u64: 8, i64: 8, f64: 8);

/// One byte, 0 or 1.
impl Field for bool {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn write(&self, out: &mut Encoder) {
        out.bool(*self);
    }
    #[inline]
    fn read(r: &mut Decoder<'_>) -> Result<Self, DbError> {
        r.bool()
    }
    #[inline]
    fn read_fast(r: &mut Decoder<'_>) -> Option<Self> {
        match r.array_fast()? {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }
}

/// A u32 byte length, then the UTF-8 bytes.
impl Field for String {
    const MIN_BYTES: usize = 4;
    #[inline]
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
    #[inline]
    fn write(&self, out: &mut Encoder) {
        out.str(self);
    }
    fn read(r: &mut Decoder<'_>) -> Result<Self, DbError> {
        r.str()
    }
    #[inline]
    fn read_fast(r: &mut Decoder<'_>) -> Option<Self> {
        let len = u32::read_fast(r)?;
        let raw = r.take_fast(len as usize)?;
        std::str::from_utf8(raw).ok().map(str::to_string)
    }
}

/// A presence byte, then the value when present.
impl<T: Field> Field for Option<T> {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Field::encoded_len)
    }
    #[inline]
    fn write(&self, out: &mut Encoder) {
        out.bool(self.is_some());
        if let Some(value) = self {
            value.write(out);
        }
    }
    #[inline]
    fn read(r: &mut Decoder<'_>) -> Result<Self, DbError> {
        if r.bool()? {
            T::read(r).map(Some)
        } else {
            Ok(None)
        }
    }
    #[inline]
    fn read_fast(r: &mut Decoder<'_>) -> Option<Self> {
        if bool::read_fast(r)? {
            T::read_fast(r).map(Some)
        } else {
            Some(None)
        }
    }
}

/// Most items a decoded list reserves room for before reading them: a
/// corrupt length fails when the bytes run out, not in the allocator.
const LIST_PREALLOC: usize = 1024;

/// A u64 item count, then the items.
impl<T: Field> Field for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn encoded_len(&self) -> usize {
        8 + self.iter().map(Field::encoded_len).sum::<usize>()
    }
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
    fn read_fast(r: &mut Decoder<'_>) -> Option<Self> {
        let n = usize::try_from(u64::read_fast(r)?).ok()?;
        let mut items = Vec::with_capacity(n.min(LIST_PREALLOC));
        for _ in 0..n {
            items.push(T::read_fast(r)?);
        }
        Some(items)
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
        assert_eq!(value.encoded_len(), len, "{value:?}");
        let mut d = Decoder::new(&bytes);
        assert_eq!(T::read(&mut d).unwrap(), value);
        assert!(d.is_exhausted());
        let mut d = Decoder::new(&bytes);
        assert_eq!(T::read_fast(&mut d), Some(value));
        assert!(d.is_exhausted());
    }

    /// Reads `bytes` both ways: the fast read declines exactly where the
    /// checked read fails, and otherwise reads the same value to the same
    /// position.
    fn reads_agree<T: Field + PartialEq + std::fmt::Debug>(bytes: &[u8]) {
        let (mut checked, mut fast) = (Decoder::new(bytes), Decoder::new(bytes));
        match (T::read(&mut checked), T::read_fast(&mut fast)) {
            (Ok(a), Some(b)) => {
                assert_eq!(a, b, "{bytes:?}");
                assert_eq!(checked.remaining(), fast.remaining(), "{bytes:?}");
            }
            (Err(_), None) => {}
            (a, b) => panic!("{bytes:?}: checked {a:?}, fast {b:?}"),
        }
    }

    #[test]
    fn fast_reads_decline_exactly_where_checked_reads_fail() {
        fn each_cut_and_byte<T: Field + PartialEq + std::fmt::Debug>(value: T) {
            let mut e = Encoder::new();
            value.write(&mut e);
            let bytes = e.into_bytes();
            for len in 0..=bytes.len() {
                reads_agree::<T>(&bytes[..len]);
            }
            for at in 0..bytes.len() {
                for byte in [0, 1, 2, 0x80, 0xff] {
                    let mut bad = bytes.clone();
                    bad[at] = byte;
                    reads_agree::<T>(&bad);
                }
            }
        }
        each_cut_and_byte(true);
        each_cut_and_byte(0xdead_beef_u32);
        each_cut_and_byte(-42i64);
        each_cut_and_byte(3.5f64);
        each_cut_and_byte("hé".to_string());
        each_cut_and_byte(Some(Some(7u8)));
        each_cut_and_byte(vec![Some("a".to_string()), None]);
        each_cut_and_byte(vec![vec![true, false]]);
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
    fn len_prefixed_writes_the_length_of_what_its_body_wrote() {
        let mut e = Encoder::with_capacity(3);
        e.u8(9);
        e.len_prefixed(|e| {
            e.str("ab");
            e.u64(1);
        });
        e.len_prefixed(|_| {});
        let mut want = Encoder::new();
        want.u8(9);
        want.bytes(&[2, 0, 0, 0, b'a', b'b', 1, 0, 0, 0, 0, 0, 0, 0]);
        want.bytes(&[]);
        assert_eq!(e.into_bytes(), want.into_bytes());
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

//! Strongly-typed virtual time quantities.
//!
//! [`Nanos`] is the universal currency of the simulation: every cost model,
//! event timestamp and statistic is expressed in virtual nanoseconds.
//! [`Cycles`] exists because the paper reports transition costs both in
//! cycles and nanoseconds; conversions go through an explicit CPU frequency.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A quantity of virtual time, in nanoseconds.
///
/// `Nanos` is an absolute timestamp when returned by
/// [`Clock::now`](crate::Clock::now) and a duration everywhere else; both
/// views share the same arithmetic.
///
/// # Examples
///
/// ```
/// use sim_core::Nanos;
///
/// let t = Nanos::from_micros(5) + Nanos::from_nanos(120);
/// assert_eq!(t.as_nanos(), 5_120);
/// assert_eq!(t.to_string(), "5.120us");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero duration / epoch timestamp.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a quantity from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a quantity from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a quantity from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a quantity from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Raw value in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in (truncated) microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Value in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Value in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Subtraction clamped at zero rather than panicking on underflow.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction; `None` on underflow.
    pub fn checked_sub(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_sub(rhs.0).map(Nanos)
    }

    /// Scales the quantity by a floating-point factor, rounding to the
    /// nearest nanosecond. Factors must be non-negative. The computation
    /// goes through `f64`, so results are exact only up to 2⁵³ ns
    /// (≈104 days) — far beyond any simulated duration.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> Nanos {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        Nanos((self.0 as f64 * factor).round() as u64)
    }

    /// Converts to CPU cycles at the given core frequency in GHz.
    pub fn to_cycles(self, ghz: f64) -> Cycles {
        Cycles((self.0 as f64 * ghz).round() as u64)
    }

    /// Whether this is the zero quantity.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two quantities.
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }

    /// The smaller of two quantities.
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(
            self.0
                .checked_sub(rhs.0)
                .expect("Nanos subtraction underflow"),
        )
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    /// Auto-scaling display: `742ns`, `5.120us`, `3.940ms`, `31.000s`,
    /// each unit shown to three decimals. Width, fill, alignment and
    /// precision apply as they do to a string: `{:>12}` right-aligns the
    /// text in twelve columns.
    ///
    /// The digits are those of `f64` division printed with `{:.3}`. Integer
    /// arithmetic gives them exactly, except where the binary rounding of
    /// the quotient decides: a value exactly half-way between two
    /// thousandths of a millisecond or second, and values from 2⁵³ ns on,
    /// which `f64` cannot hold. Those few still go through `f64`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        // Nanoseconds in a thousandth of the unit; whole ns have none.
        let (thousandth, unit) = match ns {
            0..1_000 => (0, "ns"),
            1_000..1_000_000 => (1, "us"),
            1_000_000..1_000_000_000 => (1_000, "ms"),
            _ => (1_000_000, "s"),
        };
        let mut text = Text::default();
        if thousandth == 0 {
            text.push_digits(ns, 1);
            text.push(unit);
        } else if ns % thousandth * 2 == thousandth || ns >= 1 << 53 {
            let unit_ns = (thousandth * 1_000) as f64;
            fmt::Write::write_fmt(&mut text, format_args!("{:.3}{unit}", ns as f64 / unit_ns))?;
        } else {
            // Rounded to the nearest thousandth; no ties reach here.
            let thousandths = ns / thousandth + u64::from(ns % thousandth * 2 > thousandth);
            text.push_digits(thousandths / 1_000, 1);
            text.push(".");
            text.push_digits(thousandths % 1_000, 3);
            text.push(unit);
        }
        f.pad(text.as_str())
    }
}

/// The text of one [`Nanos`] display, built on the stack. The longest,
/// that of `u64::MAX`, is `18446744073.710s`.
#[derive(Default)]
struct Text {
    buf: [u8; 24],
    len: usize,
}

impl Text {
    fn push(&mut self, s: &str) {
        self.buf[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
        self.len += s.len();
    }

    /// `n` in decimal, zero-padded to at least `width` digits.
    fn push_digits(&mut self, mut n: u64, width: usize) {
        let count = n.checked_ilog10().map_or(1, |d| d as usize + 1).max(width);
        self.len += count;
        for slot in self.buf[self.len - count..self.len].iter_mut().rev() {
            *slot = b'0' + (n % 10) as u8;
            n /= 10;
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("digits and units are ASCII")
    }
}

impl fmt::Write for Text {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.len + s.len() > self.buf.len() {
            return Err(fmt::Error);
        }
        self.push(s);
        Ok(())
    }
}

/// A quantity of CPU cycles.
///
/// # Examples
///
/// ```
/// use sim_core::Cycles;
///
/// let c = Cycles::new(5_850);
/// // At 2.746 GHz (effective TSC rate of the paper's testbed measurements)
/// // this is roughly 2,130 ns.
/// assert_eq!(c.to_nanos(2.746).as_nanos(), 2_130);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub(crate) u64);

impl Cycles {
    /// Creates a cycle count.
    pub const fn new(cycles: u64) -> Self {
        Cycles(cycles)
    }

    /// Raw cycle count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Converts to nanoseconds at the given frequency in GHz.
    pub fn to_nanos(self, ghz: f64) -> Nanos {
        Nanos((self.0 as f64 / ghz).round() as u64)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(
            self.0
                .checked_sub(rhs.0)
                .expect("Cycles subtraction underflow"),
        )
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1_000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_nanos(1_000_000));
        assert_eq!(Nanos::from_secs(1), Nanos::from_nanos(1_000_000_000));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let a = Nanos::from_nanos(1_500);
        let b = Nanos::from_nanos(500);
        assert_eq!((a + b).as_nanos(), 2_000);
        assert_eq!((a - b).as_nanos(), 1_000);
        assert_eq!((a * 3).as_nanos(), 4_500);
        assert_eq!((a / 3).as_nanos(), 500);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = Nanos::from_nanos(5);
        let b = Nanos::from_nanos(10);
        assert_eq!(a.saturating_sub(b), Nanos::ZERO);
        assert_eq!(b.saturating_sub(a).as_nanos(), 5);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = Nanos::from_nanos(1) - Nanos::from_nanos(2);
    }

    #[test]
    fn display_autoscales() {
        assert_eq!(Nanos::from_nanos(742).to_string(), "742ns");
        assert_eq!(Nanos::from_nanos(5_120).to_string(), "5.120us");
        assert_eq!(Nanos::from_millis(3940).to_string(), "3.940s");
        assert_eq!(Nanos::from_micros(3940).to_string(), "3.940ms");
    }

    /// The display as it was before the integer paths: `f64` division
    /// printed with `{:.3}`, ignoring width and alignment.
    struct FloatDisplay(u64);

    impl fmt::Display for FloatDisplay {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let ns = self.0;
            if ns < 1_000 {
                write!(f, "{ns}ns")
            } else if ns < 1_000_000 {
                write!(f, "{:.3}us", ns as f64 / 1_000.0)
            } else if ns < 1_000_000_000 {
                write!(f, "{:.3}ms", ns as f64 / 1_000_000.0)
            } else {
                write!(f, "{:.3}s", ns as f64 / 1_000_000_000.0)
            }
        }
    }

    /// Asserts that every value displays as [`FloatDisplay`] does, reusing
    /// two buffers so that millions of values stay cheap.
    fn assert_matches_reference(values: impl IntoIterator<Item = u64>) {
        use std::fmt::Write;
        let (mut new, mut old) = (String::new(), String::new());
        for ns in values {
            new.clear();
            old.clear();
            write!(new, "{}", Nanos(ns)).unwrap();
            write!(old, "{}", FloatDisplay(ns)).unwrap();
            assert_eq!(new, old, "{ns} ns");
        }
    }

    #[test]
    fn display_matches_the_float_reference_below_3ms() {
        assert_matches_reference(0..3_000_000);
    }

    #[test]
    fn display_matches_the_float_reference_on_ties_and_extremes() {
        let mut rng = crate::rng::seeded(31);
        // Exactly half-way between two thousandths of a millisecond or a
        // second: binary rounding decides these digits.
        assert_matches_reference(
            (0..50_000).map(|_| rng.gen_range(1_000..1_000_000u64) * 1_000 + 500),
        );
        assert_matches_reference(
            (0..50_000).map(|_| rng.gen_range(1_000..20_000_000_000u64) * 1_000_000 + 500_000),
        );
        let edges = (0..64)
            .map(|b| 1u64 << b)
            .chain((0..20).map(|e| 10u64.pow(e)))
            .flat_map(|p| p.saturating_sub(2_000)..=p.saturating_add(2_000));
        assert_matches_reference(edges);
        assert_matches_reference((1u64 << 53) - 2..=(1 << 53) + 2);
        assert_matches_reference([u64::MAX]);
        // Random magnitudes: a uniform u64 is nearly always past 2^53.
        assert_matches_reference((0..200_000).map(|_| {
            let shift = rng.gen_range(0..64u32);
            rng.gen::<u64>() >> shift
        }));
    }

    #[test]
    fn display_pads_like_the_reference_string() {
        let mut rng = crate::rng::seeded(32);
        let ties = [1_000_500, 1_001_500, 2_500_000_000];
        let values = (0..20_000)
            .map(|_| rng.gen::<u64>() >> rng.gen_range(0..64u32))
            .chain(ties)
            .chain([0, 999, u64::MAX]);
        for ns in values {
            let old = FloatDisplay(ns).to_string();
            let new = Nanos(ns);
            assert_eq!(format!("{new:>12}"), format!("{old:>12}"), "{ns} ns");
            assert_eq!(format!("{new:<12}"), format!("{old:<12}"), "{ns} ns");
            assert_eq!(format!("{new:*^20}"), format!("{old:*^20}"), "{ns} ns");
        }
        assert_eq!(format!("[{:>10}]", Nanos(5_120)), "[   5.120us]");
        assert_eq!(format!("[{:<8}]", Nanos(742)), "[742ns   ]");
        // The f64 path pads too: 1,000,500 ns is a tie.
        assert_eq!(format!("[{:>9}]", Nanos(1_000_500)), "[  1.000ms]");
    }

    #[test]
    fn cycles_nanos_conversion() {
        let ns = Nanos::from_nanos(1_000);
        assert_eq!(ns.to_cycles(3.4).get(), 3_400);
        assert_eq!(Cycles::new(3_400).to_nanos(3.4), ns);
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(Nanos::from_nanos(100).scale(1.5).as_nanos(), 150);
        assert_eq!(Nanos::from_nanos(3).scale(0.5).as_nanos(), 2); // rounds .5 up
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scale_rejects_negative() {
        let _ = Nanos::from_nanos(1).scale(-1.0);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Nanos = (1..=4).map(Nanos::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }

    #[test]
    fn min_max() {
        let a = Nanos::from_nanos(3);
        let b = Nanos::from_nanos(7);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}

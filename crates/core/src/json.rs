//! Hand-rolled JSON emission, shared by every `--json` surface (`report`,
//! `diff`, `hist`, `scatter`) and the chrome-trace exporter. The repo
//! deliberately carries no serialisation dependency, so the encoder is a
//! few escape helpers, plus two `Display` wrappers ([`Quoted`], [`Num`])
//! that let a `write!` put strings and floats into the output in place.

use std::fmt::{self, Write};

/// Escapes and quotes a string for JSON output.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped and quoted for JSON output. Runs of
/// characters that need no escape are copied whole.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    // Writing into a `String` cannot fail.
    let _ = escape(out, s);
    out.push('"');
}

/// Writes `s` to `out` escaped for a JSON string, copying runs of
/// characters that need no escape whole.
fn escape(out: &mut impl Write, s: &str) -> fmt::Result {
    let mut plain = 0;
    for (at, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.write_str(&s[plain..at])?;
        match b {
            b'"' => out.write_str("\\\""),
            b'\\' => out.write_str("\\\\"),
            b'\n' => out.write_str("\\n"),
            b'\r' => out.write_str("\\r"),
            b'\t' => out.write_str("\\t"),
            _ => write!(out, "\\u{b:04x}"),
        }?;
        plain = at + 1;
    }
    out.write_str(&s[plain..])
}

/// Formats a float as a JSON number (the JSON grammar has no NaN or
/// infinity, so those degrade to 0 — they cannot occur for real traces).
pub fn f64(v: f64) -> String {
    Num(v).to_string()
}

/// Displays a value's text as a quoted, escaped JSON string, so that a
/// `write!` puts it into the output without building it first.
pub struct Quoted<T>(pub T);

impl<T: fmt::Display> fmt::Display for Quoted<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// Escapes whatever is written through it.
        struct Escaper<'a, 'b>(&'a mut fmt::Formatter<'b>);

        impl Write for Escaper<'_, '_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                escape(self.0, s)
            }
        }

        f.write_char('"')?;
        write!(Escaper(f), "{}", self.0)?;
        f.write_char('"')
    }
}

/// Displays a float as a JSON number, as [`f64()`] formats it.
pub struct Num(pub f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_char('0')
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn strings_are_escaped() {
        assert_eq!(super::string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(super::string("\u{1}"), "\"\\u0001\"");
        assert_eq!(
            super::string("é\t\"ü\u{1f}\u{7f}x\r"),
            "\"é\\t\\\"ü\\u001f\u{7f}x\\r\""
        );
    }

    #[test]
    fn push_string_appends() {
        let mut out = String::from("[");
        super::push_string(&mut out, "a\\b");
        super::push_string(&mut out, "");
        assert_eq!(out, "[\"a\\\\b\"\"\"");
    }

    #[test]
    fn quoted_escapes_display_output_like_string() {
        for s in ["", "plain", "a\"b\\c\n", "é\t\"ü\u{1f}\u{7f}x\r"] {
            assert_eq!(super::Quoted(s).to_string(), super::string(s));
        }
        assert_eq!(
            super::Quoted(format_args!("{}\"{}", 1, 'x')).to_string(),
            "\"1\\\"x\""
        );
        assert_eq!(super::Num(0.1 + 0.2).to_string(), format!("{}", 0.1 + 0.2));
    }

    #[test]
    fn numbers_are_finite() {
        assert_eq!(super::f64(0.5), "0.5");
        assert_eq!(super::f64(f64::NAN), "0");
        assert_eq!(super::f64(f64::INFINITY), "0");
    }
}

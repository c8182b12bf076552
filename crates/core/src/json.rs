//! Hand-rolled JSON emission, shared by every `--json` surface (`report`,
//! `diff`, `hist`, `scatter`) and the chrome-trace exporter. The repo
//! deliberately carries no serialisation dependency, so the encoder is a
//! pair of escape helpers plus a tiny array/object builder.

use std::fmt::Write;

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
    let mut plain = 0;
    for (at, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[plain..at]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        plain = at + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Formats a float as a JSON number (the JSON grammar has no NaN or
/// infinity, so those degrade to 0 — they cannot occur for real traces).
pub fn f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
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
    fn numbers_are_finite() {
        assert_eq!(super::f64(0.5), "0.5");
        assert_eq!(super::f64(f64::NAN), "0");
        assert_eq!(super::f64(f64::INFINITY), "0");
    }
}

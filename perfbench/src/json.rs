//! A minimal JSON value and writer for the result lines.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    /// A measured number, written with all its digits.
    Num(f64),
    /// An exact count.
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from key/value pairs, in order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Self::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Self {
        Self::Str(s.into())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Self::Int(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Self::Num(x)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Null => f.write_str("null"),
            Self::Bool(b) => write!(f, "{b}"),
            // Rust prints finite f64s without exponents, shortest
            // round-trip digits; non-finite numbers have no JSON form.
            Self::Num(x) if x.is_finite() => write!(f, "{x}"),
            Self::Num(_) => f.write_str("null"),
            Self::Int(n) => write!(f, "{n}"),
            Self::Str(s) => write_str(f, s),
            Self::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Self::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, key)?;
                    write!(f, ": {value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_values() {
        let value = Json::obj([
            ("a", Json::Num(1.25)),
            (
                "b",
                Json::Arr(vec![Json::Int(3), Json::Null, Json::Bool(true)]),
            ),
            ("c", Json::str("q\"\n")),
            ("d", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            value.to_string(),
            r#"{"a": 1.25, "b": [3, null, true], "c": "q\"\u000a", "d": null}"#
        );
    }
}

//! A minimal JSON writer for the benchmark's own output, kept apart from
//! the engine's `docmodel` printer so that a change to the engine cannot
//! change the format the result line is read in.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

fn write_str(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            // JSON has no NaN or infinity; a metric that is either is a bug
            // the reader should see as a missing number.
            Json::Num(x) if !x.is_finite() => f.write_str("null"),
            Json::Num(x) => write!(f, "{x}"),
            Json::Str(s) => write_str(s, f),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(k, f)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_and_escapes() {
        let j = Json::obj([
            (
                "a",
                Json::Arr(vec![Json::Int(1), Json::Num(2.5), Json::Null]),
            ),
            ("s", Json::str("q\"\\\n")),
            ("ok", Json::Bool(true)),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a": [1, 2.5, null], "s": "q\"\\\n", "ok": true}"#
        );
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn output_parses_as_json() {
        let j = Json::obj([("x", Json::Num(0.1 + 0.2)), ("n", Json::Int(u64::MAX))]);
        let parsed = docmodel::parse_json(&j.to_string()).expect("valid JSON");
        assert_eq!(
            parsed.get_field("x").and_then(|v| v.as_f64()),
            Some(0.1 + 0.2)
        );
    }
}

//! The workspace's one JSON writer: a minimal value type, its compact
//! rendering and the sorted-key canonical form.
//!
//! The workspace vendors a marker-only `serde` stand-in (`DESIGN.md` §5), so
//! every deterministic artifact — `RunReport::to_json`, query response
//! payloads and canonical identities, the `experiments --json` document and
//! the bench result store — is built as a [`Json`] value and rendered here.
//! There is exactly one string escaper and one number format. Objects
//! preserve insertion order, so artifacts keep a fixed, diffable field
//! order. Reading JSON back is the bench harness's concern (`bench::json`).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, rendered exactly over the full `u64` range
    /// (counts, rounds, seeds, budgets).
    UInt(u64),
    /// Any other number. Integral values below `1e15` render without a
    /// trailing `.0`; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicated keys keep the last value).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs (convenience for literals).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks a key up in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Inserts (or replaces) a key in an object; no-op on other variants.
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(pairs) = self {
            if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                pairs.push((key.to_string(), value));
            }
        }
    }

    /// Renders the value as compact JSON, preserving object insertion order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, false);
        out
    }

    /// Renders the value with every object's keys sorted (recursively):
    /// the canonical form the bench result store hashes, so two configs that
    /// differ only in field order hash identically.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, true);
        out
    }

    fn write(&self, out: &mut String, canonical: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if !v.is_finite() {
                    out.push_str("null");
                } else if v.fract() == 0.0 && v.abs() < 1e15 {
                    let _ = write!(out, "{}", *v as i64);
                } else {
                    let _ = write!(out, "{v}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out, canonical);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                let mut order: Vec<usize> = (0..pairs.len()).collect();
                if canonical {
                    order.sort_by(|&a, &b| pairs[a].0.cmp(&pairs[b].0));
                }
                for (i, &idx) in order.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, &pairs[idx].0);
                    out.push(':');
                    pairs[idx].1.write(out, canonical);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::UInt(v as u64)
            }
        }
    )*};
}

from_unsigned!(u32, u64, usize);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_sorts_keys_recursively() {
        let a = Json::obj(vec![
            ("z", Json::obj(vec![("b", 1u64.into()), ("a", 2u64.into())])),
            ("a", Some(3usize).into()),
            ("n", None::<&str>.into()),
        ]);
        assert_eq!(a.render(), r#"{"z":{"b":1,"a":2},"a":3,"n":null}"#);
        assert_eq!(a.canonical(), r#"{"a":3,"n":null,"z":{"a":2,"b":1}}"#);
    }

    #[test]
    fn numbers_render_like_the_hand_written_emitters() {
        assert_eq!(Json::Num(5.0).render(), "5");
        assert_eq!(Json::Num(2.5).render(), "2.5");
        assert_eq!(Json::Num(1.0 / 3.0).render(), "0.3333333333333333");
        assert_eq!(Json::Num(1e20).render(), "100000000000000000000");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        // Integers are exact over the full u64 range (f64 would round these).
        assert_eq!(Json::UInt(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::UInt((1 << 53) + 1).render(), "9007199254740993");
        assert_eq!(Json::UInt(7).as_f64(), Some(7.0));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::from("a\"b\\c").render(), r#""a\"b\\c""#);
        assert_eq!(Json::from("x\ny\r\tz").render(), r#""x\ny\r\tz""#);
        assert_eq!(Json::from("\u{1}ünï").render(), r#""\u0001ünï""#);
    }

    #[test]
    fn set_and_get_on_objects() {
        let mut v = Json::obj(vec![("a", Json::Num(1.0))]);
        v.set("b", Json::Str("x".into()));
        v.set("a", Json::Num(2.0));
        assert_eq!(v.get("a").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.render(), r#"{"a":2,"b":"x"}"#);
    }
}

//! Small helpers for building and printing JSON values with the
//! repository's serde stand-in.

use serde::Value;

/// Wraps a [`Value`] so `serde_json` can render it.
struct Raw<'a>(&'a Value);

impl serde::Serialize for Raw<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Render `value` as one line of JSON.
pub fn render(value: &Value) -> String {
    serde_json::to_string(&Raw(value)).expect("a JSON value always renders")
}

pub fn obj<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn float(v: f64) -> Value {
    Value::Float(v)
}

pub fn uint(v: u64) -> Value {
    Value::UInt(v)
}

pub fn string(v: &str) -> Value {
    Value::Str(v.to_string())
}

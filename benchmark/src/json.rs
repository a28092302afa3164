//! A small JSON tree over the vendored serde stand-in, for the result
//! files the suite writes and the child output it reads back.

use serde::{Deserialize, Serialize, Value};

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    pub fn render(&self) -> String {
        serde_json::to_string(self).expect("finite numbers and strings always encode")
    }
}

impl Serialize for Json {
    fn to_value(&self) -> Value {
        match self {
            Json::Null => Value::Null,
            Json::Bool(b) => Value::Bool(*b),
            // The encoder refuses non-finite floats; a metric that has no
            // value reads 0.
            Json::Num(n) => Value::F64(if n.is_finite() { *n } else { 0.0 }),
            Json::Str(s) => Value::Str(s.clone()),
            Json::Arr(items) => Value::Seq(items.iter().map(Json::to_value).collect()),
            Json::Obj(fields) => Value::Map(
                fields
                    .iter()
                    .map(|(k, v)| (Value::Str(k.clone()), v.to_value()))
                    .collect(),
            ),
        }
    }
}

impl Deserialize for Json {
    fn from_value(v: Value) -> Result<Json, serde::Error> {
        Ok(match v {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(b),
            Value::U64(n) => Json::Num(n as f64),
            Value::I64(n) => Json::Num(n as f64),
            Value::U128(n) => Json::Num(n as f64),
            Value::F64(f) => Json::Num(f),
            Value::Str(s) => Json::Str(s),
            Value::Bytes(b) => Json::Str(String::from_utf8_lossy(&b).into_owned()),
            Value::Seq(items) => Json::Arr(
                items
                    .into_iter()
                    .map(Json::from_value)
                    .collect::<Result<_, _>>()?,
            ),
            Value::Map(fields) => Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| {
                        let key = match k {
                            Value::Str(s) => s,
                            other => return Err(serde::Error::msg(format!("key {other:?}"))),
                        };
                        Ok((key, Json::from_value(v)?))
                    })
                    .collect::<Result<_, _>>()?,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_text() {
        let j = Json::obj([
            ("a", Json::Num(1.5)),
            (
                "b",
                Json::Arr(vec![Json::Bool(true), Json::Null, Json::str("x")]),
            ),
            ("c", Json::obj([("d", Json::Num(3.0))])),
        ]);
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
        assert_eq!(
            j.get("c").and_then(|c| c.get("d")).and_then(Json::num),
            Some(3.0)
        );
    }
}

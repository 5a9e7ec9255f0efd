//! Codec implementations for the primitive and container types the
//! workspace serializes.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Duration;

use crate::{Deserialize, Error, Map, Serialize, Value};

// ---------------------------------------------------------------------------
// Integers
// ---------------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = value
                    .as_u64()
                    .ok_or_else(|| type_error(stringify!($t), value))?;
                <$t>::try_from(raw)
                    .map_err(|_| Error::custom(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 {
                    Value::U64(v as u64)
                } else {
                    Value::I64(v)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = value
                    .as_i64()
                    .ok_or_else(|| type_error(stringify!($t), value))?;
                <$t>::try_from(raw)
                    .map_err(|_| Error::custom(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for u128 {
    fn to_value(&self) -> Value {
        match u64::try_from(*self) {
            Ok(v) => Value::U64(v),
            Err(_) => Value::U128(*self),
        }
    }
}

impl Deserialize for u128 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_u128().ok_or_else(|| type_error("u128", value))
    }
}

// ---------------------------------------------------------------------------
// Floats, bool, strings, unit
// ---------------------------------------------------------------------------

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_f64().ok_or_else(|| type_error("f64", value))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_f64()
            .map(|v| v as f32)
            .ok_or_else(|| type_error("f32", value))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_bool().ok_or_else(|| type_error("bool", value))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| type_error("String", value))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let s = value.as_str().ok_or_else(|| type_error("char", value))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-character string")),
        }
    }
}

/// Untyped documents: `serde_json::from_str::<Value>` hands back the tree.
impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn from_value(value: &Value) -> Result<Self, Error> {
        if value.is_null() {
            Ok(())
        } else {
            Err(type_error("()", value))
        }
    }
}

// ---------------------------------------------------------------------------
// References and smart pointers
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

// ---------------------------------------------------------------------------
// Option / containers
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        if value.is_null() {
            Ok(None)
        } else {
            T::from_value(value).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items = value.as_array().ok_or_else(|| type_error("Vec", value))?;
        items.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items = value
            .as_array()
            .ok_or_else(|| type_error("BTreeSet", value))?;
        items.iter().map(T::from_value).collect()
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| type_error("BTreeMap", value))?;
        obj.iter()
            .map(|(k, v)| V::from_value(v).map(|v| (k.clone(), v)))
            .collect()
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort keys for deterministic output.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        Value::Object(
            keys.into_iter()
                .map(|k| (k.clone(), self[k].to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| type_error("HashMap", value))?;
        obj.iter()
            .map(|(k, v)| V::from_value(v).map(|v| (k.clone(), v)))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------------

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let items = value.as_array().ok_or_else(|| type_error("tuple", value))?;
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(Error::custom(format!(
                        "expected tuple of {expected}, got array of {}",
                        items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

// ---------------------------------------------------------------------------
// Duration — serde's canonical `{secs, nanos}` encoding
// ---------------------------------------------------------------------------

impl Serialize for Duration {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("secs".to_string(), Value::U64(self.as_secs()));
        m.insert(
            "nanos".to_string(),
            Value::U64(u64::from(self.subsec_nanos())),
        );
        Value::Object(m)
    }
}

impl Deserialize for Duration {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| type_error("Duration", value))?;
        let secs = obj
            .get("secs")
            .and_then(Value::as_u64)
            .ok_or_else(|| Error::custom("Duration missing secs"))?;
        let nanos = obj
            .get("nanos")
            .and_then(Value::as_u64)
            .ok_or_else(|| Error::custom("Duration missing nanos"))?;
        let nanos =
            u32::try_from(nanos).map_err(|_| Error::custom("Duration nanos out of range"))?;
        Ok(Duration::new(secs, nanos))
    }
}

fn type_error(expected: &str, got: &Value) -> Error {
    Error::custom(format!("expected {expected}, got {}", got.kind()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(v: T) {
        let encoded = v.to_value();
        let decoded = T::from_value(&encoded).expect("decode");
        assert_eq!(decoded, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(u128::MAX);
        roundtrip(-42i64);
        roundtrip(3.5f64);
        roundtrip(true);
        roundtrip("hello".to_string());
        roundtrip(());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Some("x".to_string()));
        roundtrip(None::<String>);
        roundtrip((1u32, "a".to_string()));
        roundtrip(vec![("k".to_string(), "v".to_string())]);
        roundtrip(BTreeSet::from(["a".to_string(), "b".to_string()]));
        roundtrip(BTreeMap::from([("k".to_string(), 7u64)]));
        roundtrip(Duration::from_millis(1500));
    }

    #[test]
    fn option_tolerates_missing_field() {
        let m = Map::new();
        let got: Option<u64> = crate::from_field(&m, "T", "absent").unwrap();
        assert_eq!(got, None);
    }
}

//! Offline compatibility subset of `serde`.
//!
//! The build environment has no crates.io access, so this crate provides the
//! small serde surface the workspace uses — `#[derive(Serialize,
//! Deserialize)]` on plain structs with named fields and on fieldless enums,
//! consumed by the sibling `serde_json` compat crate. Instead of upstream
//! serde's visitor architecture, everything funnels through a concrete
//! [`Value`] tree: `Serialize` renders to a `Value`, `Deserialize` parses
//! from one. That is all the workspace's JSON users need — the engine
//! config that `SRVT` snapshots and `RPLY` headers embed, telemetry
//! snapshots, IXSRV01's JSON compat payloads and the simulator export
//! paths — and it keeps the derive macro (in `serde_derive`) tiny.

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer out of `i64` range.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

/// A deserialization error (missing field, type mismatch, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct DeError {
    msg: String,
}

impl DeError {
    /// An error with an explicit message.
    pub fn new(msg: impl Into<String>) -> Self {
        DeError { msg: msg.into() }
    }

    /// A "missing field" error.
    pub fn missing_field(name: &str) -> Self {
        DeError::new(format!("missing field `{name}`"))
    }

    /// An "unknown enum variant" error.
    pub fn unknown_variant(got: &str) -> Self {
        DeError::new(format!("unknown variant `{got}`"))
    }

    /// A type-mismatch error.
    pub fn expected(what: &str, got: &Value) -> Self {
        DeError::new(format!("expected {what}, got {}", got.kind()))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for DeError {}

impl Value {
    /// The value's JSON type name, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) | Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Looks up a field of an object.
    ///
    /// # Errors
    ///
    /// Not an object, or no such field.
    pub fn field(&self, name: &str) -> Result<&Value, DeError> {
        match self {
            Value::Object(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| DeError::missing_field(name)),
            other => Err(DeError::expected("object", other)),
        }
    }

    /// The string payload.
    ///
    /// # Errors
    ///
    /// Not a string.
    pub fn as_str(&self) -> Result<&str, DeError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(DeError::expected("string", other)),
        }
    }

    /// The value as an `f64` (any numeric variant).
    ///
    /// # Errors
    ///
    /// Not a number.
    pub fn as_f64(&self) -> Result<f64, DeError> {
        match *self {
            Value::Int(v) => Ok(v as f64),
            Value::UInt(v) => Ok(v as f64),
            Value::Float(v) => Ok(v),
            ref other => Err(DeError::expected("number", other)),
        }
    }

    /// The value as a `u64`.
    ///
    /// # Errors
    ///
    /// Not a non-negative integer.
    pub fn as_u64(&self) -> Result<u64, DeError> {
        match *self {
            Value::Int(v) if v >= 0 => Ok(v as u64),
            Value::UInt(v) => Ok(v),
            Value::Float(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Ok(v as u64),
            ref other => Err(DeError::expected("unsigned integer", other)),
        }
    }

    /// The value as an `i64`.
    ///
    /// # Errors
    ///
    /// Not an integer in `i64` range.
    pub fn as_i64(&self) -> Result<i64, DeError> {
        match *self {
            Value::Int(v) => Ok(v),
            Value::UInt(v) if v <= i64::MAX as u64 => Ok(v as i64),
            Value::Float(v) if v.fract() == 0.0 && v.abs() <= i64::MAX as f64 => Ok(v as i64),
            ref other => Err(DeError::expected("integer", other)),
        }
    }

    /// The boolean payload.
    ///
    /// # Errors
    ///
    /// Not a bool.
    pub fn as_bool(&self) -> Result<bool, DeError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }

    /// The array payload.
    ///
    /// # Errors
    ///
    /// Not an array.
    pub fn as_array(&self) -> Result<&[Value], DeError> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(DeError::expected("array", other)),
        }
    }

    /// The object payload.
    ///
    /// # Errors
    ///
    /// Not an object.
    pub fn as_object(&self) -> Result<&[(String, Value)], DeError> {
        match self {
            Value::Object(entries) => Ok(entries),
            other => Err(DeError::expected("object", other)),
        }
    }
}

/// Render `self` as a [`Value`] tree.
pub trait Serialize {
    /// The value-tree form.
    fn to_value(&self) -> Value;
}

/// Reconstruct `Self` from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parses the value tree.
    ///
    /// # Errors
    ///
    /// [`DeError`] on shape or type mismatches.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

// ------------------------------------------------------------- primitives --

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value.as_bool()
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.as_str()?.to_string())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                Ok(value.as_f64()? as $t)
            }
        }
    )*};
}

float_impls!(f64, f32);

macro_rules! uint_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let v = value.as_u64()?;
                <$t>::try_from(v).map_err(|_| DeError::new(format!(
                    "{v} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}

uint_impls!(usize, u64, u32, u16, u8);

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let v = value.as_i64()?;
                <$t>::try_from(v).map_err(|_| DeError::new(format!(
                    "{v} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}

int_impls!(isize, i64, i32, i16, i8);

// ------------------------------------------------------------- containers --

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value.as_array()?.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(usize::from_value(&7usize.to_value()).unwrap(), 7);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&String::from("x").to_value()).unwrap(),
            "x"
        );
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1.0f64, 2.0, 3.0];
        assert_eq!(Vec::<f64>::from_value(&v.to_value()).unwrap(), v);

        assert_eq!(Option::<f64>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Option::<f64>::from_value(&Value::Float(2.0)).unwrap(),
            Some(2.0)
        );
    }

    #[test]
    fn field_lookup_errors() {
        let obj = Value::Object(vec![("x".into(), Value::Int(1))]);
        assert!(obj.field("x").is_ok());
        assert!(obj.field("y").is_err());
        assert!(Value::Null.field("x").is_err());
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::Int(3).as_f64().unwrap(), 3.0);
        assert_eq!(Value::Float(3.0).as_u64().unwrap(), 3);
        assert!(Value::Float(3.5).as_u64().is_err());
        assert!(Value::Int(-1).as_u64().is_err());
    }
}

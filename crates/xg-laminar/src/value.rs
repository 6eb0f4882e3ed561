//! Laminar's strongly-typed value model and its log wire format.
//!
//! Laminar is strongly typed but lets developers define application-specific
//! types (§3.5). The built-in scalar and vector types below cover the
//! xGFabric telemetry pipeline; arbitrary payloads ride in [`Value::Bytes`].

use crate::error::{LaminarError, Result};

/// Type tag of a Laminar value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeTag {
    /// 64-bit float.
    F64,
    /// 64-bit signed integer.
    I64,
    /// Boolean.
    Bool,
    /// UTF-8 text.
    Text,
    /// Vector of 64-bit floats (telemetry windows).
    F64Vec,
    /// Opaque bytes (application-specific types).
    Bytes,
}

impl TypeTag {
    /// Static name for diagnostics.
    pub(crate) fn name(self) -> &'static str {
        match self {
            TypeTag::F64 => "F64",
            TypeTag::I64 => "I64",
            TypeTag::Bool => "Bool",
            TypeTag::Text => "Text",
            TypeTag::F64Vec => "F64Vec",
            TypeTag::Bytes => "Bytes",
        }
    }

    fn code(self) -> u8 {
        match self {
            TypeTag::F64 => 1,
            TypeTag::I64 => 2,
            TypeTag::Bool => 3,
            TypeTag::Text => 4,
            TypeTag::F64Vec => 5,
            TypeTag::Bytes => 6,
        }
    }

    fn from_code(c: u8) -> Option<TypeTag> {
        Some(match c {
            1 => TypeTag::F64,
            2 => TypeTag::I64,
            3 => TypeTag::Bool,
            4 => TypeTag::Text,
            5 => TypeTag::F64Vec,
            6 => TypeTag::Bytes,
            _ => return None,
        })
    }
}

/// A Laminar value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit float.
    F64(f64),
    /// 64-bit signed integer.
    I64(i64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 text.
    Text(String),
    /// Vector of floats.
    F64Vec(Vec<f64>),
    /// Opaque bytes.
    Bytes(Vec<u8>),
}

impl Value {
    /// The value's type tag.
    pub(crate) fn type_tag(&self) -> TypeTag {
        match self {
            Value::F64(_) => TypeTag::F64,
            Value::I64(_) => TypeTag::I64,
            Value::Bool(_) => TypeTag::Bool,
            Value::Text(_) => TypeTag::Text,
            Value::F64Vec(_) => TypeTag::F64Vec,
            Value::Bytes(_) => TypeTag::Bytes,
        }
    }

    /// Extract an `f64`, if this is one.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// Extract a bool, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extract a float vector, if this is one.
    pub(crate) fn as_f64_vec(&self) -> Option<&[f64]> {
        match self {
            Value::F64Vec(v) => Some(v),
            _ => None,
        }
    }

    /// Encode as `[tag u8][len u32][body]`.
    pub fn encode(&self) -> Vec<u8> {
        let body: Vec<u8> = match self {
            Value::F64(x) => x.to_le_bytes().to_vec(),
            Value::I64(x) => x.to_le_bytes().to_vec(),
            Value::Bool(b) => vec![*b as u8],
            Value::Text(s) => s.as_bytes().to_vec(),
            Value::F64Vec(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            Value::Bytes(b) => b.clone(),
        };
        let mut out = Vec::with_capacity(5 + body.len());
        out.push(self.type_tag().code());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decode from the wire format; ignores any trailing padding.
    pub fn decode(bytes: &[u8]) -> Result<Value> {
        if bytes.len() < 5 {
            return Err(LaminarError::Codec("truncated header".into()));
        }
        let tag = TypeTag::from_code(bytes[0])
            .ok_or_else(|| LaminarError::Codec(format!("unknown tag {}", bytes[0])))?;
        let len = u32::from_le_bytes(bytes[1..5].try_into().unwrap()) as usize;
        if bytes.len() < 5 + len {
            return Err(LaminarError::Codec("truncated body".into()));
        }
        let body = &bytes[5..5 + len];
        Ok(match tag {
            TypeTag::F64 => {
                if len != 8 {
                    return Err(LaminarError::Codec("bad F64 length".into()));
                }
                Value::F64(f64::from_le_bytes(body.try_into().unwrap()))
            }
            TypeTag::I64 => {
                if len != 8 {
                    return Err(LaminarError::Codec("bad I64 length".into()));
                }
                Value::I64(i64::from_le_bytes(body.try_into().unwrap()))
            }
            TypeTag::Bool => {
                if len != 1 {
                    return Err(LaminarError::Codec("bad Bool length".into()));
                }
                Value::Bool(body[0] != 0)
            }
            TypeTag::Text => Value::Text(
                String::from_utf8(body.to_vec()).map_err(|e| LaminarError::Codec(e.to_string()))?,
            ),
            TypeTag::F64Vec => {
                if !len.is_multiple_of(8) {
                    return Err(LaminarError::Codec("bad F64Vec length".into()));
                }
                Value::F64Vec(
                    body.chunks_exact(8)
                        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                        .collect(),
                )
            }
            TypeTag::Bytes => Value::Bytes(body.to_vec()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let values = [
            Value::F64(3.25),
            Value::I64(-42),
            Value::Bool(true),
            Value::Bool(false),
            Value::Text("hello λ".into()),
            Value::F64Vec(vec![1.0, -2.5, 1e300]),
            Value::Bytes(vec![0, 255, 7]),
        ];
        for v in values {
            let enc = v.encode();
            let dec = Value::decode(&enc).unwrap();
            assert_eq!(dec, v);
            // Padding must be tolerated (fixed-size log elements).
            let mut padded = enc.clone();
            padded.extend_from_slice(&[0u8; 32]);
            assert_eq!(Value::decode(&padded).unwrap(), v);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Value::decode(&[]).is_err());
        assert!(Value::decode(&[99, 0, 0, 0, 0]).is_err());
        assert!(Value::decode(&[1, 8, 0, 0, 0, 1, 2]).is_err()); // truncated F64
        assert!(Value::decode(&[1, 3, 0, 0, 0, 1, 2, 3]).is_err()); // bad F64 len
    }

    #[test]
    fn type_tags_consistent() {
        assert_eq!(Value::F64(0.0).type_tag(), TypeTag::F64);
        assert_eq!(Value::F64Vec(vec![]).type_tag(), TypeTag::F64Vec);
        assert_eq!(TypeTag::F64.name(), "F64");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::F64(2.0).as_f64(), Some(2.0));
        assert_eq!(Value::I64(2).as_f64(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(
            Value::F64Vec(vec![1.0, 2.0]).as_f64_vec(),
            Some([1.0, 2.0].as_slice())
        );
    }

    #[test]
    fn empty_vec_roundtrip() {
        let v = Value::F64Vec(vec![]);
        assert_eq!(Value::decode(&v.encode()).unwrap(), v);
    }
}

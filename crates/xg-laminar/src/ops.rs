//! Built-in Laminar operators.
//!
//! Any stateless computation can be embedded in a Laminar node (§3.5) —
//! these constructors cover the arithmetic and statistics used by the
//! xGFabric pipeline, plus a generic `closure` escape hatch (which is how
//! `xg-fabric` embeds the whole CFD run as a single node).

use crate::graph::OpFn;
use crate::stats;
use crate::value::Value;
use std::sync::Arc;

/// Wrap an arbitrary function as an operator.
pub(crate) fn closure<F>(f: F) -> OpFn
where
    F: Fn(&[Value]) -> Result<Value, String> + Send + Sync + 'static,
{
    Arc::new(f)
}

fn f64_arg(inputs: &[Value], i: usize) -> Result<f64, String> {
    inputs
        .get(i)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("input {i} is not F64"))
}

fn vec_arg(inputs: &[Value], i: usize) -> Result<&[f64], String> {
    inputs
        .get(i)
        .and_then(Value::as_f64_vec)
        .ok_or_else(|| format!("input {i} is not F64Vec"))
}

/// `F64 × F64 → F64` addition.
pub fn add2() -> OpFn {
    closure(|inp| Ok(Value::F64(f64_arg(inp, 0)? + f64_arg(inp, 1)?)))
}

/// `F64 × F64 → F64` multiplication.
pub fn mul2() -> OpFn {
    closure(|inp| Ok(Value::F64(f64_arg(inp, 0)? * f64_arg(inp, 1)?)))
}

/// `F64Vec × F64Vec → Bool` — the paper's three-test voting change
/// detector: input 0 is the previous window, input 1 the recent window.
pub(crate) fn change_detect(alpha: f64, votes_needed: u8) -> OpFn {
    closure(move |inp| {
        let prev = vec_arg(inp, 0)?;
        let recent = vec_arg(inp, 1)?;
        let vote = stats::vote_change(prev, recent, alpha, votes_needed);
        Ok(Value::Bool(vote.changed))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_ops() {
        assert_eq!(
            add2()(&[Value::F64(2.0), Value::F64(3.0)]).unwrap(),
            Value::F64(5.0)
        );
        assert_eq!(
            mul2()(&[Value::F64(2.0), Value::F64(3.0)]).unwrap(),
            Value::F64(6.0)
        );
    }

    #[test]
    fn type_errors_reported() {
        assert!(add2()(&[Value::Bool(true), Value::F64(1.0)]).is_err());
        assert!(add2()(&[Value::F64(1.0)]).is_err());
        assert!(change_detect(0.05, 2)(&[Value::F64(1.0), Value::F64(1.0)]).is_err());
    }

    #[test]
    fn change_detector_op() {
        let stable = Value::F64Vec(vec![3.0, 3.1, 2.9, 3.05, 2.95, 3.0]);
        let shifted = Value::F64Vec(vec![9.0, 9.1, 8.9, 9.05, 8.95, 9.0]);
        let op = change_detect(0.05, 2);
        assert_eq!(op(&[stable.clone(), shifted]).unwrap(), Value::Bool(true));
        assert_eq!(op(&[stable.clone(), stable]).unwrap(), Value::Bool(false));
    }
}

//! Built-in Laminar operators.
//!
//! Any stateless computation can be embedded in a Laminar node (§3.5) —
//! these constructors cover the arithmetic and statistics used by the
//! xGFabric pipeline, plus a generic [`closure`] escape hatch (which is how
//! `xg-fabric` embeds the whole CFD run as a single node).

use crate::graph::OpFn;
use crate::stats;
use crate::value::Value;
use std::sync::Arc;

/// Wrap an arbitrary function as an operator.
pub fn closure<F>(f: F) -> OpFn
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

fn vec_arg(inputs: &[Value], i: usize) -> Result<Vec<f64>, String> {
    inputs
        .get(i)
        .and_then(|v| v.as_f64_vec().map(|s| s.to_vec()))
        .ok_or_else(|| format!("input {i} is not F64Vec"))
}

/// `F64 × F64 → F64` addition.
pub fn add2() -> OpFn {
    closure(|inp| Ok(Value::F64(f64_arg(inp, 0)? + f64_arg(inp, 1)?)))
}

/// `F64 × F64 → F64` subtraction (`in0 - in1`).
pub fn sub2() -> OpFn {
    closure(|inp| Ok(Value::F64(f64_arg(inp, 0)? - f64_arg(inp, 1)?)))
}

/// `F64 × F64 → F64` multiplication.
pub fn mul2() -> OpFn {
    closure(|inp| Ok(Value::F64(f64_arg(inp, 0)? * f64_arg(inp, 1)?)))
}

/// `F64 → F64` negation.
pub fn neg() -> OpFn {
    closure(|inp| Ok(Value::F64(-f64_arg(inp, 0)?)))
}

/// `F64 → F64` scaling by a constant.
pub fn scale(k: f64) -> OpFn {
    closure(move |inp| Ok(Value::F64(k * f64_arg(inp, 0)?)))
}

/// `F64Vec → F64` arithmetic mean (errors on an empty vector).
pub fn vec_mean() -> OpFn {
    closure(|inp| {
        let v = vec_arg(inp, 0)?;
        if v.is_empty() {
            return Err("mean of empty vector".into());
        }
        Ok(Value::F64(v.iter().sum::<f64>() / v.len() as f64))
    })
}

/// `F64Vec → F64` sample standard deviation (0 for fewer than 2 samples).
pub fn vec_std() -> OpFn {
    closure(|inp| {
        let v = vec_arg(inp, 0)?;
        if v.len() < 2 {
            return Ok(Value::F64(0.0));
        }
        let m = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (v.len() - 1) as f64;
        Ok(Value::F64(var.sqrt()))
    })
}

/// `F64Vec × F64Vec → Bool` — the paper's three-test voting change
/// detector: input 0 is the previous window, input 1 the recent window.
pub fn change_detect(alpha: f64, votes_needed: u8) -> OpFn {
    closure(move |inp| {
        let prev = vec_arg(inp, 0)?;
        let recent = vec_arg(inp, 1)?;
        let vote = stats::vote_change(&prev, &recent, alpha, votes_needed);
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
            sub2()(&[Value::F64(2.0), Value::F64(3.0)]).unwrap(),
            Value::F64(-1.0)
        );
        assert_eq!(
            mul2()(&[Value::F64(2.0), Value::F64(3.0)]).unwrap(),
            Value::F64(6.0)
        );
        assert_eq!(neg()(&[Value::F64(2.0)]).unwrap(), Value::F64(-2.0));
        assert_eq!(scale(10.0)(&[Value::F64(2.5)]).unwrap(), Value::F64(25.0));
    }

    #[test]
    fn type_errors_reported() {
        assert!(add2()(&[Value::Bool(true), Value::F64(1.0)]).is_err());
        assert!(add2()(&[Value::F64(1.0)]).is_err());
        assert!(vec_mean()(&[Value::F64(1.0)]).is_err());
    }

    #[test]
    fn vector_stats() {
        let v = Value::F64Vec(vec![1.0, 2.0, 3.0]);
        assert_eq!(
            vec_mean()(std::slice::from_ref(&v)).unwrap(),
            Value::F64(2.0)
        );
        let sd = vec_std()(&[v]).unwrap().as_f64().unwrap();
        assert!((sd - 1.0).abs() < 1e-12);
        assert!(vec_mean()(&[Value::F64Vec(vec![])]).is_err());
        assert_eq!(
            vec_std()(&[Value::F64Vec(vec![5.0])]).unwrap(),
            Value::F64(0.0)
        );
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

//! Property-based invariants of the Laminar dataflow system.

use std::sync::Arc;
use xg_cspot::CspotNode;
use xg_laminar::prelude::*;
use xg_prop::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<f64>()
            .prop_filter("finite", |x| x.is_finite())
            .prop_map(Value::F64),
        any::<i64>().prop_map(Value::I64),
        any::<bool>().prop_map(Value::Bool),
        "[a-zA-Z0-9 λµ]{0,24}".prop_map(Value::Text),
        xg_prop::collection::vec(any::<f64>().prop_filter("finite", |x| x.is_finite()), 0..16)
            .prop_map(Value::F64Vec),
        xg_prop::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The value codec round-trips every value, with and without padding.
    #[test]
    fn value_codec_roundtrip(v in arb_value(), pad in 0usize..64) {
        let mut enc = v.encode();
        enc.extend(std::iter::repeat_n(0u8, pad));
        let dec = Value::decode(&enc).unwrap();
        prop_assert_eq!(dec, v);
    }

    /// Truncating an encoding anywhere inside the body fails cleanly
    /// rather than mis-decoding.
    #[test]
    fn truncated_encodings_rejected(v in arb_value(), cut_frac in 0.0f64..1.0) {
        let enc = v.encode();
        if enc.len() > 5 {
            let cut = 5 + ((enc.len() - 5) as f64 * cut_frac) as usize;
            if cut < enc.len() {
                prop_assert!(Value::decode(&enc[..cut]).is_err());
            }
        }
    }

    /// Dataflow execution is a pure function of the inputs: injecting the
    /// same values in any order yields the same outputs.
    #[test]
    fn firing_order_independent(
        pairs in xg_prop::collection::vec((any::<u16>(), -1e6f64..1e6, -1e6f64..1e6), 1..8),
        shuffle_seed in 0u64..1000,
    ) {
        let build = || {
            let mut g = GraphBuilder::new("prop");
            let a = g.source("a", TypeTag::F64).unwrap();
            let b = g.source("b", TypeTag::F64).unwrap();
            let sum = g.op("sum", vec![TypeTag::F64, TypeTag::F64], TypeTag::F64, ops::add2()).unwrap();
            g.connect(a, sum, 0);
            g.connect(b, sum, 1);
            g.build().unwrap()
        };
        // Dedup epochs (single-assignment would reject repeats).
        let mut seen = std::collections::BTreeSet::new();
        let pairs: Vec<_> = pairs
            .into_iter()
            .filter(|(e, _, _)| seen.insert(*e))
            .collect();

        // In-order run.
        let rt1 = LaminarRuntime::deploy(build(), Arc::new(CspotNode::in_memory("X"))).unwrap();
        for &(e, x, y) in &pairs {
            rt1.inject("a", e as u64, Value::F64(x)).unwrap();
            rt1.inject("b", e as u64, Value::F64(y)).unwrap();
        }
        // Shuffled run: all a's or b's first, interleaved by seed parity.
        let rt2 = LaminarRuntime::deploy(build(), Arc::new(CspotNode::in_memory("X"))).unwrap();
        if shuffle_seed % 2 == 0 {
            for &(e, x, _) in &pairs { rt2.inject("a", e as u64, Value::F64(x)).unwrap(); }
            for &(e, _, y) in &pairs { rt2.inject("b", e as u64, Value::F64(y)).unwrap(); }
        } else {
            for &(e, _, y) in pairs.iter().rev() { rt2.inject("b", e as u64, Value::F64(y)).unwrap(); }
            for &(e, x, _) in pairs.iter().rev() { rt2.inject("a", e as u64, Value::F64(x)).unwrap(); }
        }
        for &(e, x, y) in &pairs {
            let expect = Some(Value::F64(x + y));
            prop_assert_eq!(rt1.read("sum", e as u64).unwrap(), expect.clone());
            prop_assert_eq!(rt2.read("sum", e as u64).unwrap(), expect);
        }
    }

    /// The change detector never fires on two windows drawn from the same
    /// constant value (zero variance, zero shift).
    #[test]
    fn constant_series_never_alerts(level in -100.0f64..100.0, window in 2usize..10) {
        let d = ChangeDetector { window, alpha: 0.05, votes_needed: 1 };
        let history = vec![level; window * 2];
        let vote = d.evaluate(&history).unwrap();
        prop_assert!(!vote.changed, "{vote:?}");
    }

    /// A large enough shift is always detected at 2-of-3, regardless of
    /// the base level.
    #[test]
    fn large_shift_always_detected(level in -50.0f64..50.0) {
        let d = ChangeDetector::default();
        let prev: Vec<f64> = (0..6).map(|i| level + (i as f64) * 0.01).collect();
        let recent: Vec<f64> = prev.iter().map(|x| x + 25.0).collect();
        let vote = d.evaluate_windows(&prev, &recent);
        prop_assert!(vote.changed);
    }
}

//! Laminar execution on the CSPOT runtime.
//!
//! Every graph node's output stream is a CSPOT log; a value for epoch `e`
//! is one log element `[epoch u64][encoded value]` padded to the log's
//! fixed element size. Because CSPOT logs are append-only and sequence
//! numbered, each (node, epoch) is a **single-assignment variable** — which
//! is exactly what makes strict applicative dataflow implementable on CSPOT
//! (§3.5).
//!
//! Execution is handler-driven: appending to any producer log fires a
//! CSPOT handler that checks each consumer; a consumer fires when *all* its
//! input epochs are present and its own output for that epoch is absent.
//! The firing check is a scan of epoch headers where the elements lie
//! ([`xg_cspot::log::Log::scan_newest_first`]), newest first because the
//! epoch wanted is almost always the latest; only the element whose header
//! matches is decoded, and nothing is copied. It is not a blocking wait —
//! no handler ever blocks on another, preserving CSPOT's deadlock freedom.
//!
//! The logs are the only state: there is no epoch index beside them. A
//! variable therefore lives exactly as long as its element stays in the
//! log's circular history (`HISTORY` epochs). An evicted epoch reads as
//! absent — `read` returns `None`, a consumer waiting on it never fires,
//! and single assignment no longer guards it: the log has forgotten the
//! variable was ever bound.
//!
//! Each graph node's log is resolved once, at deploy: injection, firing
//! and reads reach the logs through those handles, never through the CSPOT
//! node's name map.
//!
//! Crash resilience: all state lives in the logs, so [`LaminarRuntime::recover`]
//! replays any firing whose inputs are present but whose output is missing.
//! Deploying the same graph over a durable [`CspotNode`] after a restart
//! and calling `recover` resumes the program exactly where it stopped.

use crate::error::{LaminarError, Result};
use crate::graph::{Graph, NodeId, NodeKind};
use crate::value::Value;
use std::sync::{Arc, Weak};
use xg_cspot::log::Log;
use xg_cspot::node::CspotNode;
use xg_cspot::CspotError;

/// Fixed element size of every Laminar log (bytes). Values that encode
/// larger than `ELEMENT_SIZE - 8` are rejected.
const ELEMENT_SIZE: usize = 512;
/// Circular history retained per log: how many epochs a variable outlives.
const HISTORY: usize = 4096;

/// A deployed Laminar program.
pub struct LaminarRuntime {
    program: Arc<Program>,
    node: Arc<CspotNode>,
}

/// A graph with each node's output log resolved, shared by the runtime
/// and the firing handlers.
struct Program {
    graph: Graph,
    /// `logs[id.0]` is node `id`'s log. Weak, because each log owns the
    /// handlers that hold this program: the CSPOT node keeps the logs
    /// alive, and a strong handle here would keep them alive forever.
    logs: Vec<Weak<Log>>,
}

impl Program {
    /// Node `id`'s log.
    fn log(&self, id: NodeId) -> Result<Arc<Log>> {
        self.logs[id.0]
            .upgrade()
            .ok_or_else(|| CspotError::UnknownLog(self.graph.log_name(id)).into())
    }
}

fn encode_entry(epoch: u64, value: &Value) -> Result<Vec<u8>> {
    let enc = value.encode();
    if 8 + enc.len() > ELEMENT_SIZE {
        return Err(LaminarError::Codec(format!(
            "value needs {} bytes; log element size is {ELEMENT_SIZE}",
            8 + enc.len()
        )));
    }
    let mut out = vec![0u8; ELEMENT_SIZE];
    out[..8].copy_from_slice(&epoch.to_le_bytes());
    out[8..8 + enc.len()].copy_from_slice(&enc);
    Ok(out)
}

/// The epoch header of a log element.
fn entry_epoch(entry: &[u8]) -> Result<u64> {
    let header = entry
        .first_chunk()
        .ok_or_else(|| LaminarError::Codec("entry too short".into()))?;
    Ok(u64::from_le_bytes(*header))
}

/// Find the value stored for `epoch` in a node's log, decoding only the
/// element whose header matches.
fn find_epoch(log: &Log, epoch: u64) -> Result<Option<Value>> {
    log.scan_newest_first(|_, entry| match entry_epoch(entry) {
        Ok(e) if e == epoch => Some(Value::decode(&entry[8..])),
        Ok(_) => None,
        Err(e) => Some(Err(e)),
    })
    .transpose()
}

/// All epochs present in a node's log, oldest first.
fn epochs_of(log: &Log) -> Result<Vec<u64>> {
    let mut epochs = Vec::new();
    let malformed =
        log.scan_newest_first(|_, entry| entry_epoch(entry).map(|e| epochs.push(e)).err());
    epochs.reverse();
    malformed.map_or(Ok(epochs), Err)
}

/// Attempt to fire `consumer` for `epoch`: if all inputs are present and the
/// output is absent, compute and append it. Returns true if it fired.
fn try_fire(program: &Program, cspot: &CspotNode, consumer: NodeId, epoch: u64) -> Result<bool> {
    let graph = &program.graph;
    let node = graph.node(consumer);
    let (f, out_ty) = match &node.kind {
        NodeKind::Source { .. } => return Ok(false),
        NodeKind::Op { f, output, .. } => (f.clone(), *output),
    };
    // Strict semantics: every input must be present.
    let mut inputs = Vec::with_capacity(graph.producers(consumer).len());
    for &p in graph.producers(consumer) {
        match find_epoch(&*program.log(p)?, epoch)? {
            Some(v) => inputs.push(v),
            None => return Ok(false),
        }
    }
    // Single assignment: skip if the output epoch already exists (e.g. a
    // recovery replay racing a handler).
    let out_log = program.log(consumer)?;
    if find_epoch(&out_log, epoch)?.is_some() {
        return Ok(false);
    }
    let value = f(&inputs).map_err(|message| LaminarError::OpFailed {
        node: node.name.clone(),
        message,
    })?;
    if value.type_tag() != out_ty {
        return Err(LaminarError::OpFailed {
            node: node.name.clone(),
            message: format!(
                "operator returned {} but node is typed {}",
                value.type_tag().name(),
                out_ty.name()
            ),
        });
    }
    let entry = encode_entry(epoch, &value)?;
    cspot.put_to(&out_log, &entry)?;
    Ok(true)
}

impl LaminarRuntime {
    /// Deploy a graph on a CSPOT node.
    ///
    /// Creates (or re-opens, after a restart) one log per graph node,
    /// keeps a handle to each, and registers the firing handlers.
    pub fn deploy(graph: Graph, node: Arc<CspotNode>) -> Result<Self> {
        // Create or re-open each node's log.
        let logs = (0..graph.nodes.len())
            .map(|i| {
                let log = node.open_log(&graph.log_name(NodeId(i)), ELEMENT_SIZE, HISTORY)?;
                Ok(Arc::downgrade(&log))
            })
            .collect::<Result<_>>()?;
        let program = Arc::new(Program { graph, logs });
        // Register a handler on every producer log that pokes its consumers.
        for &id in program.graph.topo_order() {
            let consumers = program.graph.consumers(id);
            if consumers.is_empty() {
                continue;
            }
            let p = Arc::clone(&program);
            node.register_handler(
                &program.graph.log_name(id),
                Arc::new(move |cspot, _log, _seq, payload| {
                    if let Ok(epoch) = entry_epoch(payload) {
                        for &c in &consumers {
                            // Firing errors inside handlers are swallowed;
                            // recover() can replay the missing firing.
                            let _ = try_fire(&p, cspot, c, epoch);
                        }
                    }
                }),
            );
        }
        Ok(LaminarRuntime { program, node })
    }

    /// The deployed graph.
    pub fn graph(&self) -> &Graph {
        &self.program.graph
    }

    /// Inject a value into a source for an epoch.
    ///
    /// Errors with [`LaminarError::SingleAssignmentViolation`] if the epoch
    /// was already written (logs are single-assignment variables).
    pub fn inject(&self, source: &str, epoch: u64, value: Value) -> Result<()> {
        let id = self.program.graph.node_id(source)?;
        let node = self.program.graph.node(id);
        match &node.kind {
            NodeKind::Source { ty } => {
                if value.type_tag() != *ty {
                    return Err(LaminarError::TypeMismatch {
                        edge: format!("inject -> {source}"),
                        expected: ty.name(),
                        got: value.type_tag().name(),
                    });
                }
            }
            NodeKind::Op { .. } => {
                return Err(LaminarError::UnknownNode(format!(
                    "{source} is an operator, not a source"
                )))
            }
        }
        let log = self.program.log(id)?;
        if find_epoch(&log, epoch)?.is_some() {
            return Err(LaminarError::SingleAssignmentViolation {
                name: source.to_string(),
                epoch,
            });
        }
        let entry = encode_entry(epoch, &value)?;
        self.node.put_to(&log, &entry)?;
        Ok(())
    }

    /// Read a node's output for an epoch, if produced.
    pub fn read(&self, name: &str, epoch: u64) -> Result<Option<Value>> {
        let id = self.program.graph.node_id(name)?;
        find_epoch(&*self.program.log(id)?, epoch)
    }

    /// Replay any firing whose inputs exist but whose output is missing
    /// (crash recovery). Returns the number of node-firings performed.
    pub fn recover(&self) -> Result<usize> {
        let mut fired = 0;
        // Topological order guarantees upstream recovery happens first.
        let graph = &self.program.graph;
        for &id in graph.topo_order() {
            if matches!(graph.node(id).kind, NodeKind::Source { .. }) {
                continue;
            }
            // Candidate epochs: those present in the first producer.
            let producers = graph.producers(id);
            if producers.is_empty() {
                continue;
            }
            let candidates = epochs_of(&*self.program.log(producers[0])?)?;
            for epoch in candidates {
                if try_fire(&self.program, &self.node, id, epoch)? {
                    fired += 1;
                }
            }
        }
        Ok(fired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ops;
    use crate::value::TypeTag;

    fn sum_graph() -> Graph {
        let mut g = GraphBuilder::new("sum_prog");
        let a = g.source("a", TypeTag::F64).unwrap();
        let b = g.source("b", TypeTag::F64).unwrap();
        let s = g
            .op(
                "sum",
                vec![TypeTag::F64, TypeTag::F64],
                TypeTag::F64,
                ops::add2(),
            )
            .unwrap();
        g.connect(a, s, 0);
        g.connect(b, s, 1);
        g.build().unwrap()
    }

    #[test]
    fn strict_firing_waits_for_all_inputs() {
        let node = Arc::new(CspotNode::in_memory("UCSB"));
        let rt = LaminarRuntime::deploy(sum_graph(), node).unwrap();
        rt.inject("a", 1, Value::F64(2.0)).unwrap();
        assert_eq!(rt.read("sum", 1).unwrap(), None, "must not fire early");
        rt.inject("b", 1, Value::F64(3.0)).unwrap();
        assert_eq!(rt.read("sum", 1).unwrap(), Some(Value::F64(5.0)));
    }

    #[test]
    fn epochs_are_independent() {
        let node = Arc::new(CspotNode::in_memory("UCSB"));
        let rt = LaminarRuntime::deploy(sum_graph(), node).unwrap();
        // Interleave two epochs out of order.
        rt.inject("a", 2, Value::F64(20.0)).unwrap();
        rt.inject("a", 1, Value::F64(1.0)).unwrap();
        rt.inject("b", 1, Value::F64(1.0)).unwrap();
        assert_eq!(rt.read("sum", 1).unwrap(), Some(Value::F64(2.0)));
        assert_eq!(rt.read("sum", 2).unwrap(), None);
        rt.inject("b", 2, Value::F64(22.0)).unwrap();
        assert_eq!(rt.read("sum", 2).unwrap(), Some(Value::F64(42.0)));
    }

    #[test]
    fn single_assignment_enforced_on_inject() {
        let node = Arc::new(CspotNode::in_memory("UCSB"));
        let rt = LaminarRuntime::deploy(sum_graph(), node).unwrap();
        rt.inject("a", 1, Value::F64(2.0)).unwrap();
        let err = rt.inject("a", 1, Value::F64(9.0)).unwrap_err();
        assert!(matches!(
            err,
            LaminarError::SingleAssignmentViolation { epoch: 1, .. }
        ));
    }

    #[test]
    fn inject_type_checked() {
        let node = Arc::new(CspotNode::in_memory("UCSB"));
        let rt = LaminarRuntime::deploy(sum_graph(), node).unwrap();
        assert!(matches!(
            rt.inject("a", 1, Value::Bool(true)),
            Err(LaminarError::TypeMismatch { .. })
        ));
        assert!(rt.inject("sum", 1, Value::F64(0.0)).is_err());
    }

    #[test]
    fn multi_stage_cascade() {
        // a, b -> sum -> scaled (x10): firing cascades through handlers.
        let mut g = GraphBuilder::new("cascade");
        let a = g.source("a", TypeTag::F64).unwrap();
        let b = g.source("b", TypeTag::F64).unwrap();
        let s = g
            .op(
                "sum",
                vec![TypeTag::F64, TypeTag::F64],
                TypeTag::F64,
                ops::add2(),
            )
            .unwrap();
        let times_ten = ops::closure(|i| match i {
            [Value::F64(x)] => Ok(Value::F64(10.0 * x)),
            _ => Err("expected one f64".into()),
        });
        let sc = g
            .op("scaled", vec![TypeTag::F64], TypeTag::F64, times_ten)
            .unwrap();
        g.connect(a, s, 0);
        g.connect(b, s, 1);
        g.connect(s, sc, 0);
        let node = Arc::new(CspotNode::in_memory("UCSB"));
        let rt = LaminarRuntime::deploy(g.build().unwrap(), node).unwrap();
        rt.inject("a", 7, Value::F64(1.5)).unwrap();
        rt.inject("b", 7, Value::F64(2.5)).unwrap();
        assert_eq!(rt.read("scaled", 7).unwrap(), Some(Value::F64(40.0)));
    }

    #[test]
    fn crash_recovery_resumes_program() {
        let dir = std::env::temp_dir().join(format!("xg-laminar-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let node = Arc::new(CspotNode::durable("UCSB", &dir));
            let rt = LaminarRuntime::deploy(sum_graph(), node).unwrap();
            rt.inject("a", 1, Value::F64(4.0)).unwrap();
            // Crash before b arrives: sum never fires in this life.
            assert_eq!(rt.read("sum", 1).unwrap(), None);
        }
        // Restart: redeploy over the recovered durable namespace.
        let node = Arc::new(CspotNode::durable("UCSB", &dir));
        let rt = LaminarRuntime::deploy(sum_graph(), node).unwrap();
        assert_eq!(rt.recover().unwrap(), 0, "nothing to replay yet");
        rt.inject("b", 1, Value::F64(5.0)).unwrap();
        assert_eq!(rt.read("sum", 1).unwrap(), Some(Value::F64(9.0)));
        // a's original injection survived the crash.
        assert!(matches!(
            rt.inject("a", 1, Value::F64(0.0)),
            Err(LaminarError::SingleAssignmentViolation { .. })
        ));
    }

    #[test]
    fn recover_replays_missing_firings() {
        // Simulate a crash *between* input arrival and firing by building
        // the input logs without handlers, then deploying and recovering.
        let node = Arc::new(CspotNode::in_memory("UCSB"));
        let g = sum_graph();
        for id in g.topo_order() {
            node.open_log(&g.log_name(*id), ELEMENT_SIZE, HISTORY)
                .unwrap();
        }
        // Write both inputs directly (no handlers registered yet).
        let a = g.node_id("a").unwrap();
        let b = g.node_id("b").unwrap();
        node.put(&g.log_name(a), &encode_entry(3, &Value::F64(1.0)).unwrap())
            .unwrap();
        node.put(&g.log_name(b), &encode_entry(3, &Value::F64(2.0)).unwrap())
            .unwrap();
        let rt = LaminarRuntime::deploy(sum_graph(), Arc::clone(&node)).unwrap();
        assert_eq!(rt.read("sum", 3).unwrap(), None);
        assert_eq!(rt.recover().unwrap(), 1);
        assert_eq!(rt.read("sum", 3).unwrap(), Some(Value::F64(3.0)));
        // Recovery is idempotent.
        assert_eq!(rt.recover().unwrap(), 0);
    }

    #[test]
    fn lookups_survive_ring_wrap() {
        use crate::change::{build_change_graph, ChangeDetector};
        let node = Arc::new(CspotNode::in_memory("UCSB"));
        let graph = build_change_graph("wrap", ChangeDetector::default()).unwrap();
        let rt = LaminarRuntime::deploy(graph, Arc::clone(&node)).unwrap();
        let window = |e: u64| Value::F64Vec((0..6).map(|i| (e + i) as f64).collect());
        let detect = |e: u64| {
            rt.inject("prev_window", e, window(e)).unwrap();
            rt.inject("recent_window", e, window(e + 1)).unwrap();
            rt.read("detect", e).unwrap()
        };
        let epochs = HISTORY as u64 + 104;
        // Each firing holds the battery's vote count.
        let votes = |v: Option<Value>| matches!(v, Some(Value::I64(0..=3)));
        for e in 1..=epochs {
            assert!(votes(detect(e)), "epoch {e} fired");
        }
        // A late epoch whose halves are both retained fires out of order.
        rt.inject("recent_window", 9_000, window(0)).unwrap();
        assert!(votes(detect(epochs + 1)));
        rt.inject("prev_window", 9_000, window(0)).unwrap();
        assert_eq!(rt.read("detect", 9_000).unwrap(), Some(Value::I64(0)));
        // Every log is a full ring, and what fell off it reads as absent:
        // epoch 1 can be bound again, and strict firing then waits on its
        // evicted other half.
        for id in rt.graph().topo_order() {
            let log = node.log(&rt.graph().log_name(*id)).unwrap();
            assert_eq!(log.len(), HISTORY);
        }
        assert_eq!(rt.read("detect", 1).unwrap(), None);
        rt.inject("prev_window", 1, window(1)).unwrap();
        assert_eq!(rt.read("detect", 1).unwrap(), None);
        assert_eq!(rt.recover().unwrap(), 0);
    }

    #[test]
    fn a_dropped_deployment_frees_its_logs() {
        // The logs own the handlers that hold the program, and the
        // program holds the logs only weakly: nothing outlives the node.
        let node = Arc::new(CspotNode::in_memory("UCSB"));
        let rt = LaminarRuntime::deploy(sum_graph(), Arc::clone(&node)).unwrap();
        rt.inject("a", 1, Value::F64(2.0)).unwrap();
        rt.inject("b", 1, Value::F64(3.0)).unwrap();
        let logs: Vec<_> = rt
            .graph()
            .topo_order()
            .iter()
            .map(|&id| Arc::downgrade(&node.log(&rt.graph().log_name(id)).unwrap()))
            .collect();
        drop((rt, node));
        assert!(logs.iter().all(|log| log.upgrade().is_none()));
    }

    #[test]
    fn oversized_value_rejected() {
        let node = Arc::new(CspotNode::in_memory("UCSB"));
        let mut g = GraphBuilder::new("big");
        g.source("blob", TypeTag::Bytes).unwrap();
        let rt = LaminarRuntime::deploy(g.build().unwrap(), node).unwrap();
        let too_big = Value::Bytes(vec![0u8; 4096]);
        assert!(matches!(
            rt.inject("blob", 1, too_big),
            Err(LaminarError::Codec(_))
        ));
    }
}

//! Dataflow graph construction and validation.
//!
//! Laminar implements "a strongly-typed applicative language with strict
//! semantics" (§3.5). The graph model here enforces that at build time:
//! every operator input is produced by exactly one upstream output of the
//! matching type, and the graph is acyclic — so execution is deterministic
//! and every (variable, epoch) pair is single-assignment.

use crate::error::{LaminarError, Result};
use crate::value::{TypeTag, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Operator function: maps one value per input port to the output value.
pub(crate) type OpFn = Arc<dyn Fn(&[Value]) -> std::result::Result<Value, String> + Send + Sync>;

/// Identifier of a graph node (source or operator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// What a node does.
pub(crate) enum NodeKind {
    /// External input injected by the application.
    Source {
        /// Type of injected values.
        ty: TypeTag,
    },
    /// Computation with typed input ports.
    Op {
        /// Input port types.
        inputs: Vec<TypeTag>,
        /// Output type.
        output: TypeTag,
        /// The stateless computation (any function of its inputs — the
        /// paper embeds entire CFD runs behind this interface).
        f: OpFn,
    },
}

/// A node in the dataflow graph.
pub(crate) struct Node {
    /// Unique name (doubles as the CSPOT log name suffix).
    pub name: String,
    /// Role and typing.
    pub kind: NodeKind,
}

impl Node {
    /// The node's output type.
    pub(crate) fn output_type(&self) -> TypeTag {
        match &self.kind {
            NodeKind::Source { ty } => *ty,
            NodeKind::Op { output, .. } => *output,
        }
    }

    /// The node's input port types (empty for sources).
    pub(crate) fn input_types(&self) -> &[TypeTag] {
        match &self.kind {
            NodeKind::Source { .. } => &[],
            NodeKind::Op { inputs, .. } => inputs,
        }
    }
}

/// A validated, immutable dataflow graph.
pub struct Graph {
    /// Program name (namespaces the CSPOT logs).
    pub program: String,
    pub(crate) nodes: Vec<Node>,
    /// `wiring[consumer][port] = producer`.
    pub(crate) wiring: Vec<Vec<NodeId>>,
    /// Nodes in a valid topological order.
    pub(crate) topo: Vec<NodeId>,
    pub(crate) by_name: HashMap<String, NodeId>,
}

impl Graph {
    /// Node lookup by name.
    pub fn node_id(&self, name: &str) -> Result<NodeId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| LaminarError::UnknownNode(name.to_string()))
    }

    /// The node structure.
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Nodes in topological order.
    pub(crate) fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Producers feeding `id`'s input ports, in port order.
    pub(crate) fn producers(&self, id: NodeId) -> &[NodeId] {
        &self.wiring[id.0]
    }

    /// Consumers downstream of `id` (any port).
    pub(crate) fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.wiring
            .iter()
            .enumerate()
            .filter(|(_, producers)| producers.contains(&id))
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// CSPOT log name for a node's output stream.
    pub fn log_name(&self, id: NodeId) -> String {
        format!("laminar.{}.{}", self.program, self.nodes[id.0].name)
    }
}

/// Incremental graph builder.
pub struct GraphBuilder {
    program: String,
    nodes: Vec<Node>,
    /// `(producer, consumer, port)` edges, as declared.
    edges: Vec<(NodeId, NodeId, usize)>,
    by_name: HashMap<String, NodeId>,
}

impl GraphBuilder {
    /// Start a program graph with the given name.
    pub fn new(program: &str) -> Self {
        GraphBuilder {
            program: program.to_string(),
            nodes: Vec::new(),
            edges: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    fn add(&mut self, node: Node) -> Result<NodeId> {
        if self.by_name.contains_key(&node.name) {
            return Err(LaminarError::DuplicateName(node.name));
        }
        let id = NodeId(self.nodes.len());
        self.by_name.insert(node.name.clone(), id);
        self.nodes.push(node);
        Ok(id)
    }

    /// Declare an external input.
    pub fn source(&mut self, name: &str, ty: TypeTag) -> Result<NodeId> {
        self.add(Node {
            name: name.to_string(),
            kind: NodeKind::Source { ty },
        })
    }

    /// Declare an operator node.
    pub fn op(
        &mut self,
        name: &str,
        inputs: Vec<TypeTag>,
        output: TypeTag,
        f: OpFn,
    ) -> Result<NodeId> {
        self.add(Node {
            name: name.to_string(),
            kind: NodeKind::Op { inputs, output, f },
        })
    }

    /// Wire `producer`'s output into `consumer`'s input `port`.
    pub fn connect(&mut self, producer: NodeId, consumer: NodeId, port: usize) {
        self.edges.push((producer, consumer, port));
    }

    /// Validate and freeze the graph.
    pub fn build(self) -> Result<Graph> {
        let n = self.nodes.len();
        let mut wiring: Vec<Vec<Option<NodeId>>> = self
            .nodes
            .iter()
            .map(|node| vec![None; node.input_types().len()])
            .collect();
        for &(producer, consumer, port) in &self.edges {
            let cname = &self.nodes[consumer.0].name;
            let ports = &mut wiring[consumer.0];
            if port >= ports.len() {
                return Err(LaminarError::UnknownNode(format!(
                    "{cname} has no input port {port}"
                )));
            }
            if ports[port].is_some() {
                return Err(LaminarError::DoublyConnectedInput {
                    node: cname.clone(),
                    port,
                });
            }
            // Type check.
            let produced = self.nodes[producer.0].output_type();
            let expected = self.nodes[consumer.0].input_types()[port];
            if produced != expected {
                return Err(LaminarError::TypeMismatch {
                    edge: format!("{} -> {}:{}", self.nodes[producer.0].name, cname, port),
                    expected: expected.name(),
                    got: produced.name(),
                });
            }
            ports[port] = Some(producer);
        }
        // All ports connected?
        let mut resolved: Vec<Vec<NodeId>> = Vec::with_capacity(n);
        for (i, ports) in wiring.into_iter().enumerate() {
            let mut out = Vec::with_capacity(ports.len());
            for (port, p) in ports.into_iter().enumerate() {
                match p {
                    Some(id) => out.push(id),
                    None => {
                        return Err(LaminarError::UnconnectedInput {
                            node: self.nodes[i].name.clone(),
                            port,
                        })
                    }
                }
            }
            resolved.push(out);
        }
        // Topological order (Kahn); cycle check.
        let mut indegree = vec![0usize; n];
        for producers in &resolved {
            let _ = producers;
        }
        for (consumer, producers) in resolved.iter().enumerate() {
            let _ = consumer;
            indegree[consumer] = producers.len();
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        let mut consumers_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (consumer, producers) in resolved.iter().enumerate() {
            for p in producers {
                consumers_of[p.0].push(consumer);
            }
        }
        while let Some(i) = ready.pop() {
            topo.push(NodeId(i));
            for &c in &consumers_of[i] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    ready.push(c);
                }
            }
        }
        if topo.len() != n {
            return Err(LaminarError::Cyclic);
        }
        Ok(Graph {
            program: self.program,
            nodes: self.nodes,
            wiring: resolved,
            topo,
            by_name: self.by_name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    /// A one-input operator for graphs that never fire.
    fn unary() -> OpFn {
        ops::closure(|i| Ok(i[0].clone()))
    }

    fn two_input_sum() -> GraphBuilder {
        let mut g = GraphBuilder::new("test");
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
        g
    }

    #[test]
    fn valid_graph_builds() {
        let g = two_input_sum().build().unwrap();
        assert_eq!(g.nodes.len(), 3);
        let sum = g.node_id("sum").unwrap();
        assert_eq!(g.producers(sum).len(), 2);
        assert_eq!(g.log_name(sum), "laminar.test.sum");
        // Topological order puts sources before the op.
        let pos = |id: NodeId| g.topo_order().iter().position(|&n| n == id).unwrap();
        assert!(pos(g.node_id("a").unwrap()) < pos(sum));
        assert!(pos(g.node_id("b").unwrap()) < pos(sum));
    }

    #[test]
    fn unconnected_input_rejected() {
        let mut g = GraphBuilder::new("t");
        let a = g.source("a", TypeTag::F64).unwrap();
        let s = g
            .op(
                "sum",
                vec![TypeTag::F64, TypeTag::F64],
                TypeTag::F64,
                ops::add2(),
            )
            .unwrap();
        g.connect(a, s, 0);
        assert!(matches!(
            g.build(),
            Err(LaminarError::UnconnectedInput { port: 1, .. })
        ));
    }

    #[test]
    fn double_connection_rejected() {
        let mut g = two_input_sum();
        let a = g.by_name["a"];
        let s = g.by_name["sum"];
        g.connect(a, s, 0);
        assert!(matches!(
            g.build(),
            Err(LaminarError::DoublyConnectedInput { port: 0, .. })
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut g = GraphBuilder::new("t");
        let a = g.source("a", TypeTag::Bool).unwrap();
        let neg = g
            .op("neg", vec![TypeTag::F64], TypeTag::F64, unary())
            .unwrap();
        g.connect(a, neg, 0);
        assert!(matches!(g.build(), Err(LaminarError::TypeMismatch { .. })));
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut g = GraphBuilder::new("t");
        g.source("a", TypeTag::F64).unwrap();
        assert!(matches!(
            g.source("a", TypeTag::F64),
            Err(LaminarError::DuplicateName(_))
        ));
    }

    #[test]
    fn cycle_rejected() {
        let mut g = GraphBuilder::new("t");
        let x = g
            .op("x", vec![TypeTag::F64], TypeTag::F64, unary())
            .unwrap();
        let y = g
            .op("y", vec![TypeTag::F64], TypeTag::F64, unary())
            .unwrap();
        g.connect(x, y, 0);
        g.connect(y, x, 0);
        assert!(matches!(g.build(), Err(LaminarError::Cyclic)));
    }

    #[test]
    fn bad_port_rejected() {
        let mut g = GraphBuilder::new("t");
        let a = g.source("a", TypeTag::F64).unwrap();
        let neg = g
            .op("neg", vec![TypeTag::F64], TypeTag::F64, unary())
            .unwrap();
        g.connect(a, neg, 5);
        assert!(g.build().is_err());
    }

    #[test]
    fn consumers_found() {
        let g = two_input_sum().build().unwrap();
        let a = g.node_id("a").unwrap();
        let sum = g.node_id("sum").unwrap();
        assert_eq!(g.consumers(a), vec![sum]);
        assert!(g.consumers(sum).is_empty());
    }
}

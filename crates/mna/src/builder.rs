//! Incremental circuit construction.

use crate::Circuit;
use rlpta_devices::{Device, Node};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Errors detected when finalizing a [`CircuitBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildCircuitError {
    /// Two devices share the same name.
    DuplicateDeviceName {
        /// The offending name.
        name: String,
    },
    /// The circuit contains no devices.
    Empty,
    /// A node has no DC path of any kind (it appears on no device terminal),
    /// which would make the MNA matrix structurally singular.
    DanglingNode {
        /// Name of the unconnected node.
        name: String,
    },
    /// A current-controlled source references a voltage source that does
    /// not exist in the circuit.
    UnknownControlSource {
        /// The referencing element.
        element: String,
        /// The missing voltage-source name.
        source: String,
    },
}

impl fmt::Display for BuildCircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildCircuitError::DuplicateDeviceName { name } => {
                write!(f, "duplicate device name `{name}`")
            }
            BuildCircuitError::Empty => write!(f, "circuit contains no devices"),
            BuildCircuitError::DanglingNode { name } => {
                write!(f, "node `{name}` is not connected to any device")
            }
            BuildCircuitError::UnknownControlSource { element, source } => {
                write!(
                    f,
                    "element `{element}` references unknown voltage source `{source}`"
                )
            }
        }
    }
}

impl Error for BuildCircuitError {}

/// Builds a [`Circuit`] incrementally: intern nodes by name, add devices,
/// then [`CircuitBuilder::build`].
///
/// The node names `"0"`, `"gnd"` and `"GND"` are reserved for ground.
#[derive(Debug, Clone, Default)]
pub struct CircuitBuilder {
    title: String,
    node_names: Vec<String>,
    name_to_node: HashMap<String, usize>,
    devices: Vec<Device>,
}

impl CircuitBuilder {
    /// Creates an empty builder with a netlist title.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            ..Self::default()
        }
    }

    /// Interns a node by name, returning its handle. Repeated calls with the
    /// same name return the same node. Ground aliases (`"0"`, `"gnd"`,
    /// `"GND"`, case-insensitive) return [`Node::GROUND`].
    pub fn node(&mut self, name: &str) -> Node {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Node::GROUND;
        }
        if let Some(&i) = self.name_to_node.get(name) {
            return Node::new(i);
        }
        let i = self.node_names.len();
        self.node_names.push(name.to_owned());
        self.name_to_node.insert(name.to_owned(), i);
        Node::new(i)
    }

    /// Adds a device.
    pub fn add(&mut self, device: impl Into<Device>) -> &mut Self {
        self.devices.push(device.into());
        self
    }

    /// Finalizes the circuit: validates names and connectivity, assigns
    /// branch-current unknowns.
    ///
    /// # Errors
    ///
    /// * [`BuildCircuitError::Empty`] if no devices were added,
    /// * [`BuildCircuitError::DuplicateDeviceName`] on a name collision,
    /// * [`BuildCircuitError::DanglingNode`] if an interned node is used by
    ///   no device.
    pub fn build(self) -> Result<Circuit, BuildCircuitError> {
        if self.devices.is_empty() {
            return Err(BuildCircuitError::Empty);
        }
        let mut seen = HashMap::new();
        for d in &self.devices {
            if seen.insert(d.name().to_ascii_lowercase(), ()).is_some() {
                return Err(BuildCircuitError::DuplicateDeviceName {
                    name: d.name().into(),
                });
            }
        }
        // Connectivity: every interned node must appear on some device.
        let mut used = vec![false; self.node_names.len()];
        for d in &self.devices {
            for n in d.nodes() {
                if let Some(i) = n.index() {
                    used[i] = true;
                }
            }
        }
        // Controlled sources report no nodes via `nodes()`; mark everything
        // used if any are present (they reference nodes internally).
        let has_opaque = self.devices.iter().any(|d| {
            matches!(
                d,
                Device::Vcvs(_) | Device::Vccs(_) | Device::Cccs(_) | Device::Ccvs(_)
            )
        });
        if !has_opaque {
            if let Some(i) = used.iter().position(|u| !u) {
                return Err(BuildCircuitError::DanglingNode {
                    name: self.node_names[i].clone(),
                });
            }
        }

        let mut devices = self.devices;
        let num_nodes = self.node_names.len();
        let mut next_branch = num_nodes;
        for d in &mut devices {
            if d.branch_count() > 0 {
                d.set_branch(next_branch);
                next_branch += 1;
            }
        }
        // Resolve current-controlled sources against voltage-source branches.
        let vsrc_branches: HashMap<String, usize> = devices
            .iter()
            .filter_map(|d| match d {
                Device::Vsource(v) => Some((v.name().to_ascii_lowercase(), v.branch())),
                _ => None,
            })
            .collect();
        for d in &mut devices {
            let (element, source) = match d {
                Device::Cccs(f) => (f.name().to_owned(), f.ctrl_source().to_ascii_lowercase()),
                Device::Ccvs(h) => (h.name().to_owned(), h.ctrl_source().to_ascii_lowercase()),
                _ => continue,
            };
            match vsrc_branches.get(&source) {
                Some(&br) => match d {
                    Device::Cccs(f) => f.set_ctrl_branch(br),
                    Device::Ccvs(h) => h.set_ctrl_branch(br),
                    _ => unreachable!(),
                },
                None => return Err(BuildCircuitError::UnknownControlSource { element, source }),
            }
        }
        Ok(Circuit::from_parts(
            self.title,
            self.node_names,
            self.name_to_node,
            devices,
            next_branch - num_nodes,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlpta_devices::{Resistor, Vsource};

    #[test]
    fn node_interning_is_stable() {
        let mut b = CircuitBuilder::new("t");
        let a = b.node("a");
        let a2 = b.node("a");
        let c = b.node("c");
        assert_eq!(a, a2);
        assert_ne!(a, c);
    }

    #[test]
    fn ground_aliases() {
        let mut b = CircuitBuilder::new("t");
        assert!(b.node("0").is_ground());
        assert!(b.node("gnd").is_ground());
        assert!(b.node("GND").is_ground());
        assert!(b.node("Gnd").is_ground());
        assert!(!b.node("ground1").is_ground());
    }

    #[test]
    fn empty_circuit_rejected() {
        let b = CircuitBuilder::new("t");
        assert_eq!(b.build().unwrap_err(), BuildCircuitError::Empty);
    }

    #[test]
    fn duplicate_names_rejected_case_insensitive() {
        let mut b = CircuitBuilder::new("t");
        let n = b.node("a");
        b.add(Resistor::new("R1", n, Node::GROUND, 1.0));
        b.add(Resistor::new("r1", n, Node::GROUND, 2.0));
        assert!(matches!(
            b.build(),
            Err(BuildCircuitError::DuplicateDeviceName { .. })
        ));
    }

    #[test]
    fn dangling_node_rejected() {
        let mut b = CircuitBuilder::new("t");
        let a = b.node("a");
        let _orphan = b.node("orphan");
        b.add(Resistor::new("R1", a, Node::GROUND, 1.0));
        assert!(matches!(
            b.build(),
            Err(BuildCircuitError::DanglingNode { .. })
        ));
    }

    #[test]
    fn branches_assigned_after_nodes() {
        let mut b = CircuitBuilder::new("t");
        let a = b.node("a");
        let c = b.node("c");
        b.add(Vsource::new("V1", a, Node::GROUND, 1.0));
        b.add(Resistor::new("R1", a, c, 1.0));
        b.add(Vsource::new("V2", c, Node::GROUND, 2.0));
        let circuit = b.build().unwrap();
        assert_eq!(circuit.num_nodes(), 2);
        assert_eq!(circuit.num_branches(), 2);
        assert_eq!(circuit.dim(), 4);
    }

    #[test]
    fn error_display() {
        let e = BuildCircuitError::DuplicateDeviceName { name: "R1".into() };
        assert!(e.to_string().contains("R1"));
    }
}

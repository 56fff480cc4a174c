//! Circuit node handle.

use std::fmt;
use std::ops::Deref;

/// A node terminal of a device: either the ground reference or an MNA
/// voltage unknown.
///
/// Ground carries no equation (its row/column is eliminated), which the
/// [`Stamper`](crate::Stamper) exploits by silently dropping contributions to
/// ground.
///
/// # Example
///
/// ```
/// use rlpta_devices::Node;
///
/// let n = Node::new(3);
/// assert_eq!(n.index(), Some(3));
/// assert!(Node::GROUND.is_ground());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(Option<usize>);

impl Node {
    /// The ground (reference) node.
    pub const GROUND: Node = Node(None);

    /// Creates a node referring to MNA voltage unknown `index`.
    pub fn new(index: usize) -> Self {
        Node(Some(index))
    }

    /// The voltage-unknown index, or `None` for ground.
    pub fn index(self) -> Option<usize> {
        self.0
    }

    /// Returns `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self.0.is_none()
    }

    /// Reads this node's voltage from the MNA solution vector (`0.0` for
    /// ground).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds for `x`.
    pub fn voltage(self, x: &[f64]) -> f64 {
        match self.0 {
            Some(i) => x[i],
            None => 0.0,
        }
    }
}

impl Default for Node {
    fn default() -> Self {
        Node::GROUND
    }
}

impl From<usize> for Node {
    fn from(index: usize) -> Self {
        Node::new(index)
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(i) => write!(f, "n{i}"),
            None => write!(f, "gnd"),
        }
    }
}

/// A device's terminal nodes, in declaration order: at most four, held
/// inline so listing them allocates nothing. Derefs to `[Node]` and
/// iterates by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nodes {
    buf: [Node; 4],
    len: usize,
}

impl Nodes {
    /// The terminal list `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` holds more than four nodes.
    pub fn new(nodes: &[Node]) -> Self {
        let mut buf = [Node::GROUND; 4];
        buf[..nodes.len()].copy_from_slice(nodes);
        Self {
            buf,
            len: nodes.len(),
        }
    }
}

impl Deref for Nodes {
    type Target = [Node];

    fn deref(&self) -> &[Node] {
        &self.buf[..self.len]
    }
}

impl IntoIterator for Nodes {
    type Item = Node;
    type IntoIter = std::iter::Take<std::array::IntoIter<Node, 4>>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len)
    }
}

impl<'a> IntoIterator for &'a Nodes {
    type Item = &'a Node;
    type IntoIter = std::slice::Iter<'a, Node>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_properties() {
        assert!(Node::GROUND.is_ground());
        assert_eq!(Node::GROUND.index(), None);
        assert_eq!(Node::GROUND.voltage(&[1.0, 2.0]), 0.0);
        assert_eq!(Node::default(), Node::GROUND);
    }

    #[test]
    fn indexed_node() {
        let n = Node::new(1);
        assert!(!n.is_ground());
        assert_eq!(n.index(), Some(1));
        assert_eq!(n.voltage(&[1.0, 2.0]), 2.0);
        assert_eq!(Node::from(1), n);
    }

    #[test]
    fn nodes_deref_and_iterate_in_order() {
        let ns = Nodes::new(&[Node::new(2), Node::GROUND, Node::new(0)]);
        assert_eq!(ns.len(), 3);
        assert_eq!(ns[1], Node::GROUND);
        let listed: Vec<Node> = ns.into_iter().collect();
        assert_eq!(listed, ns.to_vec());
        assert!(Nodes::new(&[]).is_empty());
    }

    #[test]
    fn display() {
        assert_eq!(Node::GROUND.to_string(), "gnd");
        assert_eq!(Node::new(4).to_string(), "n4");
    }
}

//! Error types for the graph substrate.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced while constructing or validating graphs and graph
/// annotations (orientations, colorings, layer assignments).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge endpoint referred to a vertex id `>= n`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: usize,
        /// Number of vertices in the graph.
        n: usize,
    },
    /// A self-loop `(v, v)` was supplied; the substrate models simple graphs.
    SelfLoop {
        /// The vertex with the loop.
        vertex: usize,
    },
    /// An annotation (orientation, coloring, layering) has the wrong length.
    LengthMismatch {
        /// Expected number of entries.
        expected: usize,
        /// Number of entries supplied.
        found: usize,
    },
    /// An orientation was checked against a graph other than the one it was
    /// built for, though the two have the same vertex and edge counts.
    ForeignOrientation {
        /// The first edge `(u, v)`, `u < v`, of the checked graph in
        /// [`Graph::edges`](crate::Graph::edges) order that the orientation
        /// directs both ways or neither way. `None` when every edge reads as
        /// directed one way and only the graph fingerprint tells them apart.
        edge: Option<(usize, usize)>,
    },
    /// A generator was asked for an impossible configuration.
    InvalidParameter {
        /// Human-readable description of the violated requirement.
        reason: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::SelfLoop { vertex } => {
                write!(
                    f,
                    "self-loop at vertex {vertex} not allowed in a simple graph"
                )
            }
            GraphError::LengthMismatch { expected, found } => {
                write!(
                    f,
                    "annotation length {found} does not match expected {expected}"
                )
            }
            GraphError::ForeignOrientation { edge: Some((u, v)) } => {
                write!(
                    f,
                    "orientation belongs to another graph: edge ({u}, {v}) is not directed one way"
                )
            }
            GraphError::ForeignOrientation { edge: None } => {
                write!(
                    f,
                    "orientation belongs to another graph with the same vertex and edge counts"
                )
            }
            GraphError::InvalidParameter { reason } => {
                write!(f, "invalid parameter: {reason}")
            }
        }
    }
}

impl StdError for GraphError {}

/// Convenience result alias for fallible graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = GraphError::SelfLoop { vertex: 3 };
        let s = e.to_string();
        assert!(s.starts_with("self-loop"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }

    #[test]
    fn display_vertex_out_of_range() {
        let e = GraphError::VertexOutOfRange { vertex: 9, n: 5 };
        assert_eq!(
            e.to_string(),
            "vertex 9 out of range for graph with 5 vertices"
        );
    }

    #[test]
    fn display_length_mismatch() {
        let e = GraphError::LengthMismatch {
            expected: 4,
            found: 2,
        };
        assert!(e.to_string().contains("length 2"));
        assert!(e.to_string().contains("expected 4"));
    }
}

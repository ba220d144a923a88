//! Error type for the core algorithms.

use std::error::Error as StdError;
use std::fmt;

/// Errors from the orientation/coloring pipelines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A graph-side validation failed (propagated from `dgo-graph`).
    Graph(dgo_graph::GraphError),
    /// An MPC model constraint was violated (propagated from `dgo-mpc`).
    Mpc(dgo_mpc::MpcError),
    /// The layering drivers exhausted their stage budget with vertices still
    /// unassigned — parameters too aggressive for the instance.
    StageBudgetExhausted {
        /// Vertices still unassigned.
        unassigned: usize,
        /// Stages executed.
        stages: u32,
    },
    /// A layer proposal handed to Algorithm 4's min-combine names a vertex
    /// outside the graph or a layer that is not finite and positive.
    InvalidProposal {
        /// Position of the first bad proposal in the input.
        index: usize,
        /// The proposed vertex.
        vertex: u64,
        /// The proposed layer.
        layer: u32,
        /// Vertices in the graph: valid vertices are `0..vertices`.
        vertices: usize,
    },
    /// Invalid algorithm parameters.
    InvalidParams {
        /// Human-readable description of the violated requirement.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::Mpc(e) => write!(f, "mpc model error: {e}"),
            CoreError::StageBudgetExhausted { unassigned, stages } => write!(
                f,
                "layering left {unassigned} vertices unassigned after {stages} stages"
            ),
            CoreError::InvalidProposal {
                index,
                vertex,
                layer,
                vertices,
            } => {
                write!(f, "layer proposal {index} ({vertex}, {layer}) is invalid: ")?;
                if *vertex >= *vertices as u64 {
                    write!(f, "vertex {vertex} is outside the {vertices}-vertex graph")
                } else {
                    write!(f, "layer {layer} is not a finite layer (1..{})", u32::MAX)
                }
            }
            CoreError::InvalidParams { reason } => write!(f, "invalid parameters: {reason}"),
        }
    }
}

impl StdError for CoreError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            CoreError::Graph(e) => Some(e),
            CoreError::Mpc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dgo_graph::GraphError> for CoreError {
    fn from(e: dgo_graph::GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<dgo_mpc::MpcError> for CoreError {
    fn from(e: dgo_mpc::MpcError) -> Self {
        CoreError::Mpc(e)
    }
}

/// Convenience result alias for the core algorithms.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = CoreError::from(dgo_graph::GraphError::SelfLoop { vertex: 1 });
        assert!(e.to_string().contains("graph error"));
        assert!(StdError::source(&e).is_some());

        let e = CoreError::StageBudgetExhausted {
            unassigned: 5,
            stages: 3,
        };
        assert!(e.to_string().contains("5 vertices"));
        assert!(StdError::source(&e).is_none());

        let e = CoreError::InvalidProposal {
            index: 2,
            vertex: 7,
            layer: 1,
            vertices: 4,
        };
        assert_eq!(
            e.to_string(),
            "layer proposal 2 (7, 1) is invalid: vertex 7 is outside the 4-vertex graph"
        );
        let e = CoreError::InvalidProposal {
            index: 0,
            vertex: 1,
            layer: 0,
            vertices: 4,
        };
        assert!(e
            .to_string()
            .ends_with("layer 0 is not a finite layer (1..4294967295)"));
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<CoreError>();
    }
}

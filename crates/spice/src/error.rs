//! Simulator error type.

use std::fmt;

/// Errors produced by circuit construction and analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// Newton-Raphson failed to converge even with continuation fallbacks.
    NoConvergence {
        /// Which analysis failed ("dc op", "transient", ...).
        analysis: &'static str,
        /// Detail (iteration count, time point, ...).
        detail: String,
    },
    /// The linear system was singular (usually a floating node or a
    /// voltage-source loop).
    SingularSystem {
        /// Human-readable context.
        context: String,
    },
    /// An element or node reference was invalid.
    BadNetlist {
        /// Human-readable context.
        context: String,
    },
    /// Invalid analysis arguments (non-positive step, empty sweep, ...).
    InvalidArgument {
        /// Human-readable context.
        context: String,
    },
    /// A mismatch draw left a device without a physical parameter set, so
    /// there is no circuit to solve.
    NonPhysicalDevice(mosfet::NonPhysical),
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::NoConvergence { analysis, detail } => {
                write!(f, "{analysis} failed to converge: {detail}")
            }
            SpiceError::SingularSystem { context } => {
                write!(f, "singular MNA system: {context}")
            }
            SpiceError::BadNetlist { context } => write!(f, "bad netlist: {context}"),
            SpiceError::InvalidArgument { context } => write!(f, "invalid argument: {context}"),
            SpiceError::NonPhysicalDevice(e) => write!(f, "non-physical device: {e}"),
        }
    }
}

impl std::error::Error for SpiceError {}

impl From<mosfet::NonPhysical> for SpiceError {
    fn from(e: mosfet::NonPhysical) -> Self {
        SpiceError::NonPhysicalDevice(e)
    }
}

impl From<numerics::NumericsError> for SpiceError {
    fn from(e: numerics::NumericsError) -> Self {
        SpiceError::SingularSystem {
            context: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            SpiceError::NoConvergence {
                analysis: "dc op",
                detail: "100 iterations".into(),
            },
            SpiceError::SingularSystem {
                context: "floating node".into(),
            },
            SpiceError::BadNetlist {
                context: "dangling".into(),
            },
            SpiceError::InvalidArgument {
                context: "dt <= 0".into(),
            },
            SpiceError::NonPhysicalDevice(mosfet::NonPhysical {
                leff: 40e-9,
                weff: 80e-9,
                mu: -1e-3,
                cinv: 0.02,
            }),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn converts_numerics_errors() {
        let ne = numerics::NumericsError::SingularMatrix { pivot: 2 };
        let se: SpiceError = ne.into();
        assert!(matches!(se, SpiceError::SingularSystem { .. }));
    }
}

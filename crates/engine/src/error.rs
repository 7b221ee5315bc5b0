//! Typed execution errors.
//!
//! Engines fail with a closed enum instead of ad-hoc strings so callers can
//! branch on the cause and the gateway can publish stable machine-readable
//! error codes ([`EngineError::code`]).

use std::fmt;

/// Why an engine refused (or failed) to execute a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The engine has no Error-Constrained-TTB-Pruning path, but the batch
    /// options request ECP.
    EcpUnsupported {
        /// The refusing engine.
        engine: &'static str,
    },
    /// The batch's folded timestep axis exceeds the engine's capacity.
    BatchTooLarge {
        /// The refusing engine.
        engine: &'static str,
        /// Folded timesteps of the offending batch.
        folded_timesteps: usize,
        /// The engine's declared limit.
        limit: usize,
    },
    /// A transient execution fault: the batch was valid but this attempt
    /// failed for a reason unrelated to the request (injected fault,
    /// substrate hiccup). Retrying the same batch may succeed.
    Transient {
        /// The failing engine.
        engine: &'static str,
    },
    /// The engine panicked while executing the batch. The runtime contains
    /// the panic and resolves every batch-mate with this error; like
    /// [`EngineError::Transient`] it says nothing about the request itself.
    Panicked {
        /// The engine whose execution panicked.
        engine: &'static str,
    },
    /// The engine has no stateful/streaming execution path: it cannot emit
    /// per-step events or accept an imported session state. Deterministic
    /// like the other capability refusals — retrying never helps.
    StreamingUnsupported {
        /// The refusing engine.
        engine: &'static str,
    },
    /// The execution covers no timestep at all (a zero-timestep batch, or a
    /// fresh streaming execution of zero steps), so there is nothing to
    /// read out.
    NoTimesteps {
        /// The refusing engine.
        engine: &'static str,
    },
    /// The session state handed to a streaming execution does not fit the
    /// model it would resume (block count or a membrane width differs).
    StateMismatch {
        /// The refusing engine.
        engine: &'static str,
    },
}

impl EngineError {
    /// The engine the error originated from.
    pub fn engine(&self) -> &'static str {
        match self {
            EngineError::EcpUnsupported { engine }
            | EngineError::BatchTooLarge { engine, .. }
            | EngineError::Transient { engine }
            | EngineError::Panicked { engine }
            | EngineError::StreamingUnsupported { engine }
            | EngineError::NoTimesteps { engine }
            | EngineError::StateMismatch { engine } => engine,
        }
    }

    /// A stable machine-readable code for wire protocols. These strings are
    /// API: clients branch on them, so variants keep their code forever.
    pub fn code(&self) -> &'static str {
        match self {
            EngineError::EcpUnsupported { .. } => "ecp_unsupported",
            EngineError::BatchTooLarge { .. } => "batch_too_large",
            EngineError::Transient { .. } => "engine_transient",
            EngineError::Panicked { .. } => "engine_panicked",
            EngineError::StreamingUnsupported { .. } => "streaming_unsupported",
            EngineError::NoTimesteps { .. } => "no_timesteps",
            EngineError::StateMismatch { .. } => "state_mismatch",
        }
    }

    /// Whether retrying the identical batch can plausibly succeed.
    ///
    /// Capability refusals ([`EngineError::EcpUnsupported`],
    /// [`EngineError::BatchTooLarge`]) are deterministic properties of the
    /// request — retrying them only burns budget — while execution faults
    /// ([`EngineError::Transient`], [`EngineError::Panicked`]) describe one
    /// failed attempt. The runtime's retry policy and circuit breakers key
    /// off this split: only retryable errors count as engine health faults.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            EngineError::Transient { .. } | EngineError::Panicked { .. }
        )
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EcpUnsupported { engine } => {
                write!(f, "engine \"{engine}\" does not support ECP pruning options")
            }
            EngineError::BatchTooLarge {
                engine,
                folded_timesteps,
                limit,
            } => write!(
                f,
                "engine \"{engine}\" caps batches at {limit} folded timesteps, got {folded_timesteps}"
            ),
            EngineError::Transient { engine } => {
                write!(f, "engine \"{engine}\" hit a transient execution fault")
            }
            EngineError::Panicked { engine } => {
                write!(f, "engine \"{engine}\" panicked while executing the batch")
            }
            EngineError::StreamingUnsupported { engine } => {
                write!(f, "engine \"{engine}\" has no streaming/stateful execution path")
            }
            EngineError::NoTimesteps { engine } => {
                write!(f, "engine \"{engine}\" cannot execute zero timesteps")
            }
            EngineError::StateMismatch { engine } => write!(
                f,
                "engine \"{engine}\" cannot resume a session state that does not fit the model"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_accessors_are_stable() {
        let ecp = EngineError::EcpUnsupported { engine: "native" };
        assert_eq!(ecp.code(), "ecp_unsupported");
        assert_eq!(ecp.engine(), "native");
        assert!(ecp.to_string().contains("native"));

        let big = EngineError::BatchTooLarge {
            engine: "native",
            folded_timesteps: 99,
            limit: 8,
        };
        assert_eq!(big.code(), "batch_too_large");
        assert!(big.to_string().contains("99"));

        let transient = EngineError::Transient { engine: "native" };
        assert_eq!(transient.code(), "engine_transient");
        assert_eq!(transient.engine(), "native");

        let panicked = EngineError::Panicked { engine: "native" };
        assert_eq!(panicked.code(), "engine_panicked");
        assert_eq!(panicked.engine(), "native");

        let streaming = EngineError::StreamingUnsupported { engine: "ptb" };
        assert_eq!(streaming.code(), "streaming_unsupported");
        assert_eq!(streaming.engine(), "ptb");
        assert!(streaming.to_string().contains("streaming"));

        let empty = EngineError::NoTimesteps { engine: "native" };
        assert_eq!(empty.code(), "no_timesteps");
        assert_eq!(empty.engine(), "native");
        assert!(empty.to_string().contains("zero timesteps"));

        let mismatch = EngineError::StateMismatch { engine: "native" };
        assert_eq!(mismatch.code(), "state_mismatch");
        assert_eq!(mismatch.engine(), "native");
        assert!(mismatch.to_string().contains("session state"));
    }

    #[test]
    fn only_execution_faults_are_retryable() {
        assert!(!EngineError::EcpUnsupported { engine: "e" }.retryable());
        assert!(!EngineError::BatchTooLarge {
            engine: "e",
            folded_timesteps: 9,
            limit: 8
        }
        .retryable());
        assert!(EngineError::Transient { engine: "e" }.retryable());
        assert!(EngineError::Panicked { engine: "e" }.retryable());
        assert!(!EngineError::StreamingUnsupported { engine: "e" }.retryable());
        assert!(!EngineError::NoTimesteps { engine: "e" }.retryable());
        assert!(!EngineError::StateMismatch { engine: "e" }.retryable());
    }
}

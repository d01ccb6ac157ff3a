//! Error type for the RPC runtime.

use std::fmt;

/// Errors surfaced to RPC callers and servers.
#[derive(Debug)]
pub enum RpcError {
    /// The call timed out after exhausting retransmissions — the paper's
    /// "call failed" outcome when a server machine is down or unreachable.
    CallFailed {
        /// How many times the call packet was (re)transmitted.
        transmissions: u32,
    },
    /// The remote RPC runtime rejected the call (unknown interface, bad
    /// version, marshalling failure at the server, …).
    Remote(String),
    /// A wire-format error.
    Wire(firefly_wire::WireError),
    /// A marshalling error.
    Idl(firefly_idl::IdlError),
    /// An I/O error from the transport.
    Io(std::io::Error),
    /// The endpoint is shutting down.
    Shutdown,
    /// A binding error (e.g. exporting two services for one interface).
    Binding(String),
    /// Arguments or results exceeded what the protocol can carry.
    TooLarge(usize),
    /// The caller's deadline passed before the result arrived (the call
    /// may still execute at the server).
    DeadlineExceeded,
    /// A runtime invariant did not hold. This replaces fast-path
    /// panics: instead of taking down the demultiplexer or a worker
    /// thread, a broken invariant fails only the call that hit it.
    Internal {
        /// Which invariant was violated, for the error report.
        context: &'static str,
    },
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::CallFailed { transmissions } => {
                write!(f, "call failed after {transmissions} transmissions")
            }
            RpcError::Remote(m) => write!(f, "remote error: {m}"),
            RpcError::Wire(e) => write!(f, "wire error: {e}"),
            RpcError::Idl(e) => write!(f, "marshalling error: {e}"),
            RpcError::Io(e) => write!(f, "transport error: {e}"),
            RpcError::Shutdown => write!(f, "endpoint shut down"),
            RpcError::Binding(m) => write!(f, "binding error: {m}"),
            RpcError::TooLarge(n) => write!(f, "{n} bytes exceed the maximum transferable size"),
            RpcError::DeadlineExceeded => write!(f, "caller deadline exceeded"),
            RpcError::Internal { context } => {
                write!(f, "internal invariant violated: {context}")
            }
        }
    }
}

impl std::error::Error for RpcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RpcError::Wire(e) => Some(e),
            RpcError::Idl(e) => Some(e),
            RpcError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<firefly_wire::WireError> for RpcError {
    fn from(e: firefly_wire::WireError) -> Self {
        RpcError::Wire(e)
    }
}

impl From<firefly_idl::IdlError> for RpcError {
    fn from(e: firefly_idl::IdlError) -> Self {
        RpcError::Idl(e)
    }
}

impl From<std::io::Error> for RpcError {
    fn from(e: std::io::Error) -> Self {
        RpcError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_detail() {
        let e = RpcError::CallFailed { transmissions: 11 };
        assert!(e.to_string().contains("11"));
        let e = RpcError::Remote("no such interface".into());
        assert!(e.to_string().contains("no such interface"));
    }

    #[test]
    fn internal_carries_the_broken_invariant() {
        let e = RpcError::Internal {
            context: "fragmented transfer produced zero fragments",
        };
        assert!(e.to_string().contains("invariant"));
        assert!(e.to_string().contains("zero fragments"));
    }

    #[test]
    fn conversions() {
        let e: RpcError = firefly_wire::WireError::FrameTooLong(2000).into();
        assert!(matches!(e, RpcError::Wire(_)));
    }
}

//! Server-side service objects: the up-call target of the Receiver.
//!
//! The Receiver "calls the the stub for the interface ID specified in the
//! call packet. The interface stub then calls the specific procedure stub
//! for the procedure ID specified in the call packet." (§3.1.3.) A
//! [`Service`] is one exported interface instance; [`ServiceBuilder`]
//! assembles one from per-procedure closures, playing the role of the
//! generated server stub module plus the server program's procedures.

use firefly_idl::{InterfaceDef, ResultWriter, ServerArg};
use std::collections::HashMap;
use std::sync::Arc;

use crate::{Result, RpcError};

/// A procedure implementation: reads [`ServerArg`]s (CHAR arrays arrive
/// as in-place slices into the call packet) and produces every
/// result-direction value through the [`ResultWriter`] (CHAR arrays are
/// written in place into the result packet).
pub type Handler = Box<dyn Fn(&[ServerArg<'_>], &mut ResultWriter<'_>) -> Result<()> + Send + Sync>;

/// One exported interface instance.
///
/// # Procedures that block
///
/// A procedure whose calls are measured faster than handing a call to a
/// server thread runs on the endpoint's resident receiver, the thread
/// that hears its packets (docs/SHARDING.md, "Who receives"). If such a
/// procedure then blocks — on a channel, a lock, a barrier — the
/// endpoint is deaf for as long as it blocks: no call, result or ack
/// reaches it meanwhile. Nothing demotes it yet. A procedure that may
/// block must therefore be slow from its first call. For the same
/// reason the `server.rs` unit test
/// `a_dry_pool_still_answers_a_call_already_seen`, whose procedure waits
/// on a channel, hands its calls to `ServerSide::handle_call` with
/// `inline = false`.
pub trait Service: Send + Sync {
    /// The interface this service implements.
    fn interface(&self) -> &InterfaceDef;

    /// Executes procedure `index` — the server stub plus server procedure.
    fn dispatch(
        &self,
        index: u16,
        args: &[ServerArg<'_>],
        results: &mut ResultWriter<'_>,
    ) -> Result<()>;
}

/// Builds a [`Service`] from closures, one per procedure.
///
/// # Examples
///
/// ```
/// use firefly_rpc::ServiceBuilder;
/// use firefly_idl::{test_interface, Value};
///
/// let service = ServiceBuilder::new(test_interface())
///     .on_call("Null", |_args, _w| Ok(()))
///     .on_call("MaxResult", |_args, w| {
///         w.next_bytes(1440)?.fill(0);
///         Ok(())
///     })
///     .on_call("MaxArg", |_args, _w| Ok(()))
///     .build()
///     .unwrap();
/// ```
pub struct ServiceBuilder {
    interface: InterfaceDef,
    handlers: HashMap<String, Handler>,
}

impl ServiceBuilder {
    /// Starts building a service for `interface`.
    pub fn new(interface: InterfaceDef) -> ServiceBuilder {
        ServiceBuilder {
            interface,
            handlers: HashMap::new(),
        }
    }

    /// Registers the implementation of one procedure by name.
    ///
    /// A procedure once measured fast runs on the resident receiver: if
    /// it then blocks, the endpoint is deaf for as long as it blocks
    /// (see [`Service`], "Procedures that block").
    pub fn on_call<F>(mut self, name: &str, f: F) -> Self
    where
        F: Fn(&[ServerArg<'_>], &mut ResultWriter<'_>) -> Result<()> + Send + Sync + 'static,
    {
        self.handlers.insert(name.to_string(), Box::new(f));
        self
    }

    /// Finishes the build, requiring a handler for every declared
    /// procedure.
    pub fn build(mut self) -> Result<Arc<dyn Service>> {
        let mut table: Vec<(String, Handler)> = Vec::new();
        for p in self.interface.procedures() {
            match self.handlers.remove(p.name()) {
                Some(h) => table.push((p.name().to_string(), h)),
                None => {
                    return Err(RpcError::Binding(format!(
                        "no handler for procedure `{}`",
                        p.name()
                    )))
                }
            }
        }
        if let Some(extra) = self.handlers.keys().next() {
            return Err(RpcError::Binding(format!(
                "handler `{extra}` does not match any procedure"
            )));
        }
        Ok(Arc::new(BuiltService {
            interface: self.interface,
            table,
        }))
    }
}

struct BuiltService {
    interface: InterfaceDef,
    table: Vec<(String, Handler)>,
}

impl Service for BuiltService {
    fn interface(&self) -> &InterfaceDef {
        &self.interface
    }

    fn dispatch(
        &self,
        index: u16,
        args: &[ServerArg<'_>],
        results: &mut ResultWriter<'_>,
    ) -> Result<()> {
        let (_, handler) = self
            .table
            .get(index as usize)
            .ok_or_else(|| RpcError::Remote(format!("no procedure #{index}")))?;
        handler(args, results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firefly_idl::{test_interface, Value};

    #[test]
    fn build_requires_all_handlers() {
        let e = ServiceBuilder::new(test_interface())
            .on_call("Null", |_a, _w| Ok(()))
            .build()
            .err()
            .expect("missing handlers must fail");
        assert!(e.to_string().contains("MaxResult") || e.to_string().contains("no handler"));
    }

    #[test]
    fn build_rejects_unknown_handlers() {
        let e = ServiceBuilder::new(test_interface())
            .on_call("Null", |_a, _w| Ok(()))
            .on_call("MaxResult", |_a, _w| Ok(()))
            .on_call("MaxArg", |_a, _w| Ok(()))
            .on_call("Bogus", |_a, _w| Ok(()))
            .build()
            .err()
            .expect("extra handler must fail");
        assert!(e.to_string().contains("Bogus"));
    }

    #[test]
    fn dispatch_routes_by_index() {
        let service = ServiceBuilder::new(test_interface())
            .on_call("Null", |_a, _w| Ok(()))
            .on_call("MaxResult", |_a, w| {
                w.next_bytes(4)?.copy_from_slice(b"abcd");
                Ok(())
            })
            .on_call("MaxArg", |args, _w| {
                assert!(args[0].bytes().is_some());
                Ok(())
            })
            .build()
            .unwrap();

        // Procedure 1 is MaxResult.
        let iface = firefly_idl::test_interface();
        let plan = std::sync::Arc::clone(iface.procedure("MaxResult").unwrap().plan());
        let mut buf = vec![0u8; 64];
        let mut w = ResultWriter::new(&plan, &mut buf);
        service.dispatch(1, &[ServerArg::Out], &mut w).unwrap();
        let n = w.finish().unwrap().len();
        assert_eq!(&buf[..n], b"abcd");
    }

    #[test]
    fn dispatch_unknown_index_fails() {
        let service = ServiceBuilder::new(test_interface())
            .on_call("Null", |_a, _w| Ok(()))
            .on_call("MaxResult", |_a, _w| Ok(()))
            .on_call("MaxArg", |_a, _w| Ok(()))
            .build()
            .unwrap();
        let iface = firefly_idl::test_interface();
        let plan = std::sync::Arc::clone(iface.procedure("Null").unwrap().plan());
        let mut buf = vec![0u8; 8];
        let mut w = ResultWriter::new(&plan, &mut buf);
        assert!(service.dispatch(9, &[], &mut w).is_err());
    }

    #[test]
    fn handlers_can_reject_calls() {
        let service = ServiceBuilder::new(test_interface())
            .on_call("Null", |_a, _w| Err(RpcError::Remote("not today".into())))
            .on_call("MaxResult", |_a, _w| Ok(()))
            .on_call("MaxArg", |_a, _w| Ok(()))
            .build()
            .unwrap();
        let iface = firefly_idl::test_interface();
        let plan = std::sync::Arc::clone(iface.procedure("Null").unwrap().plan());
        let mut buf = vec![0u8; 8];
        let mut w = ResultWriter::new(&plan, &mut buf);
        let e = service.dispatch(0, &[], &mut w).unwrap_err();
        assert!(e.to_string().contains("not today"));
    }

    #[test]
    fn values_flow_through_handlers() {
        let iface = firefly_idl::parse_interface(
            "DEFINITION MODULE M; PROCEDURE Add(a, b: INTEGER): INTEGER; END M.",
        )
        .unwrap();
        let service = ServiceBuilder::new(iface.clone())
            .on_call("Add", |args, w| {
                let a = args[0].value().and_then(Value::as_integer).unwrap_or(0);
                let b = args[1].value().and_then(Value::as_integer).unwrap_or(0);
                w.next_value(&Value::Integer(a + b))?;
                Ok(())
            })
            .build()
            .unwrap();
        let plan = std::sync::Arc::clone(iface.procedure("Add").unwrap().plan());
        let mut buf = vec![0u8; 8];
        let mut w = ResultWriter::new(&plan, &mut buf);
        service
            .dispatch(
                0,
                &[
                    ServerArg::Val(Value::Integer(2)),
                    ServerArg::Val(Value::Integer(40)),
                ],
                &mut w,
            )
            .unwrap();
        let n = w.finish().unwrap().len();
        assert_eq!(buf[..n], 42i32.to_be_bytes());
    }
}

//! Server-side service objects: the up-call target of the Receiver.
//!
//! The Receiver "calls the the stub for the interface ID specified in the
//! call packet. The interface stub then calls the specific procedure stub
//! for the procedure ID specified in the call packet." (§3.1.3.) A
//! [`Service`] is one exported interface instance; [`ServiceBuilder`]
//! assembles one from per-procedure closures, playing the role of the
//! generated server stub module plus the server program's procedures.

use firefly_idl::{InterfaceDef, ResultWriter, ServerArg};
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
///
/// # Procedures that panic
///
/// A procedure that panics on a remote call fails that call, wherever it
/// ran: the caller gets [`RpcError::Remote`] reading
/// `procedure panicked: <message>`, retained and sent again to a
/// duplicate like any other result, and the thread that ran it — the
/// resident receiver or a server thread — goes on serving. A local call
/// ([`Endpoint::bind_local`](crate::Endpoint::bind_local)) runs the
/// procedure on the caller's own thread, and its panic unwinds into the
/// caller as any function's would.
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
    /// One slot per procedure, at its on-wire index.
    handlers: Vec<Option<Handler>>,
    /// The first name registered that the interface does not declare.
    unknown: Option<String>,
}

impl ServiceBuilder {
    /// Starts building a service for `interface`.
    pub fn new(interface: InterfaceDef) -> ServiceBuilder {
        let handlers = interface.procedures().iter().map(|_| None).collect();
        ServiceBuilder {
            interface,
            handlers,
            unknown: None,
        }
    }

    /// Registers the implementation of one procedure by name, resolved
    /// through the interface's own name table. Registering a name again
    /// replaces its handler; a name the interface does not declare fails
    /// [`ServiceBuilder::build`].
    ///
    /// A procedure once measured fast runs on the resident receiver: if
    /// it then blocks, the endpoint is deaf for as long as it blocks
    /// (see [`Service`], "Procedures that block"). If it panics on a
    /// remote call, that call fails with [`RpcError::Remote`] and the
    /// endpoint serves on; on a local call the panic reaches the caller
    /// (see [`Service`], "Procedures that panic").
    pub fn on_call<F>(mut self, name: &str, f: F) -> Self
    where
        F: Fn(&[ServerArg<'_>], &mut ResultWriter<'_>) -> Result<()> + Send + Sync + 'static,
    {
        match self.interface.procedure(name) {
            Ok(p) => self.handlers[p.index() as usize] = Some(Box::new(f)),
            Err(_) => {
                self.unknown.get_or_insert_with(|| name.to_string());
            }
        }
        self
    }

    /// Finishes the build, requiring a handler for every declared
    /// procedure and none for an undeclared one.
    pub fn build(self) -> Result<Arc<dyn Service>> {
        let procedures = self.interface.procedures();
        let table = self
            .handlers
            .into_iter()
            .zip(procedures)
            .map(|(handler, p)| {
                handler.ok_or_else(|| {
                    RpcError::Binding(format!("no handler for procedure `{}`", p.name()))
                })
            })
            .collect::<Result<_>>()?;
        if let Some(extra) = self.unknown {
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
    /// Each procedure's handler, at its on-wire index.
    table: Box<[Handler]>,
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
        let handler = self
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
        // The first procedure without a handler, in declaration order.
        assert!(matches!(e, RpcError::Binding(_)), "{e:?}");
        assert!(
            e.to_string()
                .contains("no handler for procedure `MaxResult`"),
            "{e}"
        );
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
        assert!(matches!(e, RpcError::Binding(_)), "{e:?}");
        assert!(
            e.to_string()
                .contains("handler `Bogus` does not match any procedure"),
            "{e}"
        );
    }

    #[test]
    fn registering_a_name_twice_keeps_the_last_handler() {
        let service = ServiceBuilder::new(test_interface())
            .on_call("Null", |_a, _w| Err(RpcError::Remote("first".into())))
            .on_call("MaxResult", |_a, _w| Ok(()))
            .on_call("MaxArg", |_a, _w| Ok(()))
            .on_call("Null", |_a, _w| Err(RpcError::Remote("second".into())))
            .build()
            .unwrap();
        let iface = firefly_idl::test_interface();
        let plan = std::sync::Arc::clone(iface.procedure("Null").unwrap().plan());
        let mut buf = vec![0u8; 8];
        let mut w = ResultWriter::new(&plan, &mut buf);
        let e = service.dispatch(0, &[], &mut w).unwrap_err();
        assert_eq!(e.to_string(), RpcError::Remote("second".into()).to_string());
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

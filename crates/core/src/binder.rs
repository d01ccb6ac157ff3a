//! The binder: RPC-based interface discovery.
//!
//! The paper's fast path begins "assuming that binding to a suitable
//! remote instance of the interface has already occurred" (§3.1.1). This
//! module makes that step concrete: every endpoint exports a built-in
//! `Binder` interface — itself an ordinary RPC service, eating the
//! system's own dog food — through which callers verify, before their
//! first real call, that the server exports the interface they parsed,
//! with a matching UID and version.
//!
//! [`Endpoint::bind_checked`](crate::Endpoint::bind_checked) performs the
//! lookup + verification + bind in one step.

use crate::server::ServerSide;
use crate::service::ServiceBuilder;
use crate::{Result, RpcError};
use firefly_idl::{parse_interface, InterfaceDef, Value};
use std::sync::{Arc, OnceLock, Weak};

/// The binder's own interface definition.
pub const BINDER_SOURCE: &str = "\
DEFINITION MODULE Binder;
  PROCEDURE Count(): INTEGER;
  PROCEDURE Lookup(name: Text.T): BOOLEAN;
  PROCEDURE Describe(name: Text.T; VAR OUT uidHex: ARRAY OF CHAR): INTEGER;
END Binder.
";

/// [`BINDER_SOURCE`], parsed once per process: every endpoint exports
/// it and every checked bind binds it.
pub fn binder_interface() -> &'static InterfaceDef {
    static PARSED: OnceLock<InterfaceDef> = OnceLock::new();
    PARSED.get_or_init(|| parse_interface(BINDER_SOURCE).expect("built-in Binder interface parses"))
}

/// Formats an interface UID the way the binder transmits it.
pub fn uid_hex(uid: u64) -> String {
    format!("{uid:016x}")
}

/// Builds the binder service over a server side.
///
/// Holds only a weak reference: the binder lives *inside* the service
/// table it describes, and a strong reference would leak the endpoint.
pub(crate) fn binder_service(server: &Arc<ServerSide>) -> Result<Arc<dyn crate::Service>> {
    let for_count: Weak<ServerSide> = Arc::downgrade(server);
    let for_lookup = for_count.clone();
    let for_describe = for_count.clone();
    ServiceBuilder::new(binder_interface().clone())
        .on_call("Count", move |_args, w| {
            let server = for_count.upgrade().ok_or(RpcError::Shutdown)?;
            w.next_value(&Value::Integer(server.exported().len() as i32))?;
            Ok(())
        })
        .on_call("Lookup", move |args, w| {
            let server = for_lookup.upgrade().ok_or(RpcError::Shutdown)?;
            let name = args[0].value().and_then(Value::as_text).unwrap_or("");
            let found = server.exported().iter().any(|(n, _, _)| n == name);
            w.next_value(&Value::Boolean(found))?;
            Ok(())
        })
        .on_call("Describe", move |args, w| {
            let server = for_describe.upgrade().ok_or(RpcError::Shutdown)?;
            let name = args[0].value().and_then(Value::as_text).unwrap_or("");
            let entry = server
                .exported()
                .into_iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| RpcError::Remote(format!("no interface named `{name}`")))?;
            let hex = uid_hex(entry.1);
            w.next_bytes(hex.len())?.copy_from_slice(hex.as_bytes());
            w.next_value(&Value::Integer(entry.2 as i32))?;
            Ok(())
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binder_interface_is_stable() {
        let a = binder_interface();
        let b = parse_interface(BINDER_SOURCE).unwrap();
        assert_eq!(a.uid(), b.uid());
        assert!(std::ptr::eq(a, binder_interface()), "parsed twice");
        assert_eq!(a.procedures().len(), 3);
    }

    #[test]
    fn uid_hex_is_16_chars() {
        assert_eq!(uid_hex(0xdead_beef).len(), 16);
        assert_eq!(uid_hex(0xdead_beef), "00000000deadbeef");
    }
}

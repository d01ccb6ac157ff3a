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
use crate::service::Service;
use crate::{Result, RpcError};
use firefly_idl::{parse_interface, InterfaceDef, ResultWriter, ServerArg, Value};
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

/// The binder's procedures, by on-wire index ([`BINDER_SOURCE`]'s
/// order).
const COUNT: u16 = 0;
const LOOKUP: u16 = 1;
const DESCRIBE: u16 = 2;

/// The binder service of one endpoint's server side.
///
/// Holds only a weak reference: the binder lives *inside* the service
/// table it describes, and a strong reference would leak the endpoint.
pub(crate) struct Binder {
    server: Weak<ServerSide>,
}

impl Binder {
    pub(crate) fn new(server: &Arc<ServerSide>) -> Binder {
        Binder {
            server: Arc::downgrade(server),
        }
    }
}

impl Service for Binder {
    fn interface(&self) -> &InterfaceDef {
        binder_interface()
    }

    fn dispatch(&self, index: u16, args: &[ServerArg<'_>], w: &mut ResultWriter<'_>) -> Result<()> {
        let server = self.server.upgrade().ok_or(RpcError::Shutdown)?;
        let name = || {
            args.first()
                .and_then(ServerArg::value)
                .and_then(Value::as_text)
                .unwrap_or("")
        };
        match index {
            COUNT => w.next_value(&Value::Integer(server.export_count() as i32))?,
            LOOKUP => w.next_value(&Value::Boolean(server.find_export(name()).is_some()))?,
            DESCRIBE => {
                let (uid, version) = server
                    .find_export(name())
                    .ok_or_else(|| RpcError::Remote(format!("no interface named `{}`", name())))?;
                let hex = uid_hex(uid);
                w.next_bytes(hex.len())?.copy_from_slice(hex.as_bytes());
                w.next_value(&Value::Integer(i32::from(version)))?;
            }
            _ => return Err(RpcError::Remote(format!("no procedure #{index}"))),
        }
        Ok(())
    }
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
    fn procedure_indexes_follow_the_source() {
        let a = binder_interface();
        assert_eq!(a.procedure("Count").unwrap().index(), COUNT);
        assert_eq!(a.procedure("Lookup").unwrap().index(), LOOKUP);
        assert_eq!(a.procedure("Describe").unwrap().index(), DESCRIBE);
    }

    #[test]
    fn uid_hex_is_16_chars() {
        assert_eq!(uid_hex(0xdead_beef).len(), 16);
        assert_eq!(uid_hex(0xdead_beef), "00000000deadbeef");
    }
}

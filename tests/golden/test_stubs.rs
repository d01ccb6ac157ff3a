// Generated by firefly-idl from DEFINITION MODULE Test; do not edit.

pub use firefly_idl::RpcCall;
#[allow(unused_imports)]
use firefly_idl::{IdlError, OutBytes, ResultWriter, ServerArg, Value};

/// Server implementation of the `Test` interface (uid 0x70c2d39db15ba1cc).
pub trait TestServer: Send + Sync {
    /// `PROCEDURE Null();`
    fn null(&self);
    /// `PROCEDURE MaxResult(VAR OUT buffer: ARRAY OF CHAR);`
    fn max_result(&self, buffer: &mut OutBytes<'_, '_>);
    /// `PROCEDURE MaxArg(VAR IN buffer: ARRAY OF CHAR);`
    fn max_arg(&self, buffer: &[u8]);
}

/// Caller stub for the `Test` interface (uid 0x70c2d39db15ba1cc).
pub struct TestClient<C> {
    inner: C,
}

impl<C: RpcCall> TestClient<C> {
    /// Wraps a bound RPC handle.
    pub fn new(inner: C) -> Self {
        Self { inner }
    }

    /// `PROCEDURE Null();`
    pub fn null(&self) -> Result<(), C::Error> {
        self.inner.call_with(
            0,
            |_w| Ok(()),
            |_r| Ok(()),
        )
    }

    /// `PROCEDURE MaxResult(VAR OUT buffer: ARRAY OF CHAR);`
    pub fn max_result(&self) -> Result<Vec<u8>, C::Error> {
        self.inner.call_with(
            1,
            |_w| Ok(()),
            |r| {
                let r0 = r.rest().to_vec();
                Ok(r0)
            },
        )
    }

    /// `PROCEDURE MaxArg(VAR IN buffer: ARRAY OF CHAR);`
    pub fn max_arg(&self, buffer: &[u8]) -> Result<(), C::Error> {
        self.inner.call_with(
            2,
            |w| {
                w.put_bytes(buffer)?;
                Ok(())
            },
            |_r| Ok(()),
        )
    }
}

/// Generated server stub: routes procedure `index` of `Test` to a
/// [`TestServer`] implementation.
#[allow(unused_variables, clippy::all)]
pub fn dispatch_test<S: TestServer>(
    server: &S,
    index: u16,
    args: &[ServerArg<'_>],
    w: &mut ResultWriter<'_>,
) -> Result<(), IdlError> {
    match index {
        0 => {
            if args.len() != 0 {
                return Err(IdlError::Marshal(format!("Test.Null: 0 arguments expected, {} decoded", args.len())));
            }
            let bad = |i: usize| IdlError::Marshal(format!("Test.Null argument {i}: unexpected {:?}", args[i]));
            server.null();
            Ok(())
        }
        1 => {
            if args.len() != 1 {
                return Err(IdlError::Marshal(format!("Test.MaxResult: 1 arguments expected, {} decoded", args.len())));
            }
            let bad = |i: usize| IdlError::Marshal(format!("Test.MaxResult argument {i}: unexpected {:?}", args[i]));
            let mut a0 = OutBytes::new(w);
            server.max_result(&mut a0);
            a0.done()?;
            Ok(())
        }
        2 => {
            if args.len() != 1 {
                return Err(IdlError::Marshal(format!("Test.MaxArg: 1 arguments expected, {} decoded", args.len())));
            }
            let bad = |i: usize| IdlError::Marshal(format!("Test.MaxArg argument {i}: unexpected {:?}", args[i]));
            let a0 = match &args[0] {
                ServerArg::Bytes(b) => *b,
                ServerArg::Val(Value::Bytes(b)) => &b[..],
                _ => return Err(bad(0)),
            };
            server.max_arg(a0);
            Ok(())
        }
        other => Err(IdlError::NoSuchProcedure(format!("#{other}"))),
    }
}

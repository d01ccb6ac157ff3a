//! Local (same-machine) RPC through shared memory.
//!
//! "Our system currently supports transport … by shared memory to another
//! address space on the same machine" (§3.1). Local RPC uses **the same
//! stubs** as inter-machine RPC — only the transport differs: the
//! marshalled call travels through a shared packet buffer instead of the
//! Ethernet, so "the time for local transport is independent of packet
//! size" (§2.2, where local RPC to `Null()` costs 937 µs versus 2660 µs
//! remote).
//!
//! This implementation dispatches the service procedure on the calling
//! thread after marshalling into a shared pool buffer — the zero-switch
//! variant that the paper's footnote 1 points toward (Bershad et al.'s
//! LRPC work on speeding up Firefly local RPC).

use crate::service::Service;
use crate::{Result, RpcError};
use firefly_idl::{ArgReader, ArgWriter, CompiledStub, IdlError, InterfaceDef, Value, Written};
use firefly_pool::BufferPool;
use std::sync::Arc;
use std::time::Duration;

/// A caller stub bound to a service in this process via shared memory.
#[derive(Clone)]
pub struct LocalClient {
    interface: InterfaceDef,
    service: Arc<dyn Service>,
    stubs: Arc<[CompiledStub]>,
    pool: BufferPool,
}

impl LocalClient {
    pub(crate) fn new(
        interface: InterfaceDef,
        service: Arc<dyn Service>,
        pool: BufferPool,
    ) -> Result<LocalClient> {
        let stubs: Arc<[CompiledStub]> = CompiledStub::for_interface(&interface).into();
        Ok(LocalClient {
            interface,
            service,
            stubs,
            pool,
        })
    }

    /// The bound interface.
    pub fn interface(&self) -> &InterfaceDef {
        &self.interface
    }

    /// Calls a procedure by name through the shared-memory transport.
    pub fn call(&self, procedure: &str, args: &[Value]) -> Result<Vec<Value>> {
        let p = self.interface.procedure(procedure)?;
        self.call_index(p.index(), args)
    }

    /// Calls a procedure by index: [`LocalClient::call_with`] with the
    /// procedure's plan doing the writing and the reading.
    pub fn call_index(&self, index: u16, args: &[Value]) -> Result<Vec<Value>> {
        let stub = self.stub(index)?;
        self.call_with(
            index,
            |w| stub.write_call(args, w),
            |r| stub.read_result(r),
        )
    }

    fn stub(&self, index: u16) -> Result<&CompiledStub> {
        self.stubs
            .get(index as usize)
            .ok_or_else(|| IdlError::NoSuchProcedure(format!("#{index}")).into())
    }

    /// Calls procedure `index` with the caller doing its own marshalling
    /// (see `Client::call_with`, whose contract this shares).
    ///
    /// The full stub pipeline runs — marshal into a shared buffer,
    /// unmarshal at the "server", dispatch, marshal results, unmarshal at
    /// the caller — so measured local-RPC time is directly comparable
    /// with the paper's 937 µs figure, minus the wire.
    pub fn call_with<R>(
        &self,
        index: u16,
        mut marshal: impl FnMut(&mut ArgWriter<'_>) -> firefly_idl::Result<()>,
        unmarshal: impl FnOnce(&mut ArgReader<'_>) -> firefly_idl::Result<R>,
    ) -> Result<R> {
        let stub = self.stub(index)?;
        // Marshal the call into a shared pool buffer (caller stub).
        let mut call_buf = self.pool.alloc_timeout(Duration::from_secs(1))?;
        match ArgWriter::fill(call_buf.raw_mut(), &mut marshal) {
            Ok(call_len) => {
                call_buf.set_len(call_len);
                self.serve(index, stub, &call_buf, unmarshal)
            }
            Err(IdlError::BufferTooSmall { needed, .. }) => {
                // Local transport is size-independent: spill to the heap.
                drop(call_buf);
                let data = crate::fragment::marshal_spilled(marshal, needed)?;
                self.serve(index, stub, &data, unmarshal)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// The server half and the caller's unmarshalling, given the
    /// marshalled call.
    fn serve<R>(
        &self,
        index: u16,
        stub: &CompiledStub,
        call: &[u8],
        unmarshal: impl FnOnce(&mut ArgReader<'_>) -> firefly_idl::Result<R>,
    ) -> Result<R> {
        // Server stub: unmarshal in place from the shared buffer.
        let server_args = stub.unmarshal_call(call)?;

        // Server procedure writes results into a second shared buffer.
        let mut result_buf = self.pool.alloc_timeout(Duration::from_secs(1))?;
        let mut writer = stub.result_writer(result_buf.raw_mut());
        self.service.dispatch(index, &server_args, &mut writer)?;
        let written = writer.finish()?;
        drop(server_args);

        // Caller stub: unmarshal the results.
        let spilled;
        let result = match written {
            Written::InPlace { len } => {
                result_buf.set_len(len);
                &result_buf[..]
            }
            Written::Spilled(data) => {
                spilled = data;
                &spilled[..]
            }
        };
        Ok(ArgReader::read_all(result, unmarshal)?)
    }
}

impl firefly_idl::RpcCall for LocalClient {
    type Error = RpcError;

    fn call_with<R>(
        &self,
        index: u16,
        marshal: impl FnMut(&mut ArgWriter<'_>) -> firefly_idl::Result<()>,
        unmarshal: impl FnOnce(&mut ArgReader<'_>) -> firefly_idl::Result<R>,
    ) -> Result<R> {
        LocalClient::call_with(self, index, marshal, unmarshal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceBuilder;
    use firefly_idl::{parse_interface, test_interface};

    fn local_client() -> LocalClient {
        let service = ServiceBuilder::new(test_interface())
            .on_call("Null", |_a, _w| Ok(()))
            .on_call("MaxResult", |_a, w| {
                w.next_bytes(1440)?.fill(0x42);
                Ok(())
            })
            .on_call("MaxArg", |args, _w| {
                assert_eq!(args[0].bytes().unwrap().len(), 1440);
                Ok(())
            })
            .build()
            .unwrap();
        LocalClient::new(test_interface(), service, BufferPool::new(8)).unwrap()
    }

    #[test]
    fn local_null_round_trip() {
        let c = local_client();
        let r = c.call("Null", &[]).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn local_max_result() {
        let c = local_client();
        let r = c.call("MaxResult", &[Value::char_array(0)]).unwrap();
        assert_eq!(r[0].as_bytes().unwrap(), &[0x42u8; 1440][..]);
    }

    #[test]
    fn local_max_arg() {
        let c = local_client();
        c.call("MaxArg", &[Value::char_array(1440)]).unwrap();
    }

    #[test]
    fn local_large_arguments_spill() {
        let iface = parse_interface(
            "DEFINITION MODULE Big;
               PROCEDURE Sum(VAR IN blob: ARRAY OF CHAR): INTEGER;
             END Big.",
        )
        .unwrap();
        let service = ServiceBuilder::new(iface.clone())
            .on_call("Sum", |args, w| {
                let total: i64 = args[0].bytes().unwrap().iter().map(|&b| b as i64).sum();
                w.next_value(&Value::Integer(total as i32))?;
                Ok(())
            })
            .build()
            .unwrap();
        let c = LocalClient::new(iface, service, BufferPool::new(4)).unwrap();
        let blob = vec![1u8; 10_000];
        let r = c.call("Sum", &[Value::Bytes(blob)]).unwrap();
        assert_eq!(r[0], Value::Integer(10_000));
    }

    #[test]
    fn local_pool_is_not_leaked() {
        let c = local_client();
        for _ in 0..100 {
            c.call("MaxResult", &[Value::char_array(0)]).unwrap();
        }
        // Nor by a call that fails, whichever step fails it: the caller's
        // marshalling, the dynamic path's checks, the server's
        // unmarshalling, or the caller's reading of the result.
        let refuse = || IdlError::Marshal("refused".into());
        for _ in 0..10 {
            assert!(c.call_with(0, |_w| Err(refuse()), |_r| Ok(())).is_err());
            assert!(c.call_with(1, |_w| Ok(()), |_r| Err::<(), _>(refuse())).is_err());
            assert!(c.call_with(1, |_w| Ok(()), |r| r.bytes(7).map(|_| ())).is_err());
            assert!(c.call_with(0, |w| w.put_i32(1), |_r| Ok(())).is_err());
            assert!(c.call("MaxArg", &[]).is_err());
            assert!(c.call("MaxArg", &[Value::Integer(1)]).is_err());
            assert!(c.call_index(9, &[]).is_err());
        }
        assert_eq!(c.pool.stats().outstanding(), 0);
        assert_eq!(c.pool.free_count() + c.pool.receive_queue_len(), 8);
    }
}

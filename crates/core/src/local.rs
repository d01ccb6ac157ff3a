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
//! thread — the zero-switch variant that the paper's footnote 1 points
//! toward (Bershad et al.'s LRPC work on speeding up Firefly local RPC).
//! As in LRPC, the buffers a call passes through are set aside in advance
//! rather than taken from a shared pool per call: LRPC gives each binding
//! an argument stack that caller and server share, and here the calling
//! thread keeps a pair of [`BUFFER_SIZE`]-byte *frames*, one the caller
//! stub marshals the call into and one the service writes its results
//! into. A thread's frames sit on a thread-local free list; a call pops a
//! pair (making one only the first time a thread, or a nesting depth, needs
//! it) and a guard pushes it back when the call ends, however it ends. A
//! service that makes a local call of its own therefore gets a pair of its
//! own, and no call touches a lock, a counter or the endpoint's
//! `firefly-pool` buffers. Frames are not cleared between calls: readers
//! read only what writers wrote, the contract of a recycled pool buffer.
//!
//! The call frame cannot double as the result frame (the paper's reuse of
//! the call packet for the result): the server's arguments borrow the call
//! frame (`ServerArg::Bytes` is a slice of it) for as long as the service
//! writes its results, so the two must be distinct. Keeping the pair per
//! thread removes both pool cycles a call used to make, not just one.
//!
//! The server stub's own arguments are LRPC's argument stack too: it
//! decodes them onto its frame and lends them to the procedure
//! (`CompiledStub::with_call_args`), so a call moves no argument list
//! and, up to four parameters, allocates none.
//!
//! What a local call costs, by step, for `rpcbench`'s `local_args`
//! shapes (the argument kinds of Tables II–V), in ns: each step timed
//! alone through [`LocalClient::call_index`]'s stubs, the fastest of six
//! runs of 25 rounds of 100 000 calls, on a 2-vCPU x86-64 virtual
//! machine (Intel Xeon); the steps need not sum to the call.
//!
//! | shape | marshal | decode, lent | procedure + results | read results | call |
//! |---|---:|---:|---:|---:|---:|
//! | `Ints(a, b, x, y: INTEGER): INTEGER` | 12 | 27 | 18 | 20 | 89 |
//! | `Txt(t: Text.T): INTEGER`, 128 chars | 12 | 48 | 13 | 20 | 105 |
//! | `Arr(VAR IN data; VAR OUT copy)`, 1024 bytes | 18 | 9 | 22 | 45 | 105 |
//!
//! What is left is what owning `Value`s costs: the caller's result list
//! (a `Vec`, ≈ 15 ns with its free), a fresh `Arc<str>` for the text
//! (Table V's "allocate a new Text.T", most of its decode), and a `Vec`
//! for the echoed array, besides three 1 KB copies.

use crate::service::Service;
use crate::{Result, RpcError};
use firefly_idl::{ArgReader, ArgWriter, CompiledStub, IdlError, InterfaceDef, Value, Written};
use firefly_pool::BUFFER_SIZE;
use std::cell::Cell;
use std::sync::Arc;

/// A caller stub bound to a service in this process via shared memory.
#[derive(Clone)]
pub struct LocalClient {
    /// The bound interface, whose stubs the calls run.
    interface: InterfaceDef,
    service: Arc<dyn Service>,
}

impl LocalClient {
    pub(crate) fn new(interface: InterfaceDef, service: Arc<dyn Service>) -> LocalClient {
        LocalClient { interface, service }
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
        self.call_stub(
            index,
            stub,
            |w| stub.write_call(args, w),
            |r| stub.read_result(r),
        )
    }

    fn stub(&self, index: u16) -> Result<&CompiledStub> {
        self.interface
            .stubs()
            .get(index as usize)
            .ok_or_else(|| IdlError::NoSuchProcedure(format!("#{index}")).into())
    }

    /// Calls procedure `index` with the caller doing its own marshalling
    /// (see `Client::call_with`, whose contract this shares).
    ///
    /// The full stub pipeline runs — marshal into the thread's call frame,
    /// unmarshal at the "server", dispatch, marshal results into the
    /// result frame, unmarshal at the caller — so measured local-RPC time
    /// is directly comparable with the paper's 937 µs figure, minus the
    /// wire.
    pub fn call_with<R>(
        &self,
        index: u16,
        marshal: impl FnMut(&mut ArgWriter<'_>) -> firefly_idl::Result<()>,
        unmarshal: impl FnOnce(&mut ArgReader<'_>) -> firefly_idl::Result<R>,
    ) -> Result<R> {
        self.call_stub(index, self.stub(index)?, marshal, unmarshal)
    }

    /// [`LocalClient::call_with`], given procedure `index`'s stub.
    fn call_stub<R>(
        &self,
        index: u16,
        stub: &CompiledStub,
        mut marshal: impl FnMut(&mut ArgWriter<'_>) -> firefly_idl::Result<()>,
        unmarshal: impl FnOnce(&mut ArgReader<'_>) -> firefly_idl::Result<R>,
    ) -> Result<R> {
        let mut kept = KeptFrames(Frames::pop());
        let Frames { call, result, .. } = &mut **kept.0.get_or_insert_with(Frames::boxed);
        // Marshal the call into the call frame (caller stub).
        match ArgWriter::fill(&mut call[..], &mut marshal) {
            Ok(call_len) => self.serve(index, stub, &call[..call_len], result, unmarshal),
            Err(IdlError::BufferTooSmall { needed, .. }) => {
                // Local transport is size-independent: spill to the heap.
                let data = crate::fragment::marshal_spilled(marshal, needed)?;
                self.serve(index, stub, &data, result, unmarshal)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// The server half and the caller's unmarshalling, given the
    /// marshalled call and the frame the results are written into.
    fn serve<R>(
        &self,
        index: u16,
        stub: &CompiledStub,
        call: &[u8],
        result_frame: &mut [u8],
        unmarshal: impl FnOnce(&mut ArgReader<'_>) -> firefly_idl::Result<R>,
    ) -> Result<R> {
        // Server stub: decode in place from the call frame onto its own
        // stack, and run the procedure on the arguments there; it writes
        // its results into the result frame.
        let mut writer = stub.result_writer(result_frame);
        stub.with_call_args(call, |args| self.service.dispatch(index, args, &mut writer))??;
        let written = writer.finish()?;

        // Caller stub: unmarshal the results.
        let spilled;
        let result = match written {
            Written::InPlace { len } => &result_frame[..len],
            Written::Spilled(data) => {
                spilled = data;
                &spilled[..]
            }
        };
        Ok(ArgReader::read_all(result, unmarshal)?)
    }
}

/// A thread's call and result frames, linked into its free list while no
/// call uses them.
struct Frames {
    call: [u8; BUFFER_SIZE],
    result: [u8; BUFFER_SIZE],
    next: Option<Box<Frames>>,
}

thread_local! {
    /// The calling thread's idle frame pairs; one per nesting depth this
    /// thread has reached.
    static FREE_FRAMES: Cell<Option<Box<Frames>>> = const { Cell::new(None) };
}

impl Frames {
    fn boxed() -> Box<Frames> {
        // lint:allow(no-alloc-on-fast-path): once per thread per local-call
        // nesting depth; every later call at that depth reuses the pair.
        Box::new(Frames {
            call: [0; BUFFER_SIZE],
            result: [0; BUFFER_SIZE],
            next: None,
        })
    }

    /// Takes an idle pair off this thread's free list, if it has one.
    fn pop() -> Option<Box<Frames>> {
        FREE_FRAMES
            .try_with(|free| {
                let mut head = free.take()?;
                free.set(head.next.take());
                Some(head)
            })
            .ok()
            .flatten()
    }
}

/// Returns a call's frame pair to the thread's free list when the call
/// ends — on success, on an error return and on a panic alike.
struct KeptFrames(Option<Box<Frames>>);

impl Drop for KeptFrames {
    fn drop(&mut self) {
        if let Some(mut frames) = self.0.take() {
            // During thread teardown the list may be gone; the pair is
            // then simply freed.
            let _ = FREE_FRAMES.try_with(move |free| {
                frames.next = free.take();
                free.set(Some(frames));
            });
        }
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
    use crate::endpoint::Endpoint;
    use crate::service::ServiceBuilder;
    use crate::transport::LoopbackNet;
    use crate::Config;
    use firefly_idl::{parse_interface, test_interface};
    use firefly_pool::PacketBuf;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::OnceLock;

    fn test_service() -> Arc<dyn Service> {
        ServiceBuilder::new(test_interface())
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
            .unwrap()
    }

    fn local_client() -> LocalClient {
        LocalClient::new(test_interface(), test_service())
    }

    /// An endpoint exporting the test service, and a local binding to it.
    fn local_endpoint() -> (Arc<Endpoint>, LocalClient) {
        let net = LoopbackNet::new();
        let endpoint = Endpoint::new(net.station(1), Config::default()).unwrap();
        endpoint.export(test_service()).unwrap();
        let client = endpoint.bind_local(&test_interface()).unwrap();
        (endpoint, client)
    }

    /// Takes every buffer the endpoint's pool has left.
    fn hold_every_buffer(endpoint: &Endpoint) -> Vec<PacketBuf> {
        let mut held = Vec::new();
        while let Ok(buf) = endpoint.pool().alloc() {
            held.push(buf);
        }
        assert_eq!(endpoint.pool().free_count() + endpoint.pool().receive_queue_len(), 0);
        held
    }

    /// Frame pairs on this thread's free list.
    fn idle_frames() -> usize {
        FREE_FRAMES.with(|free| {
            let head = free.take();
            let mut n = 0;
            let mut at = head.as_deref();
            while let Some(frames) = at {
                n += 1;
                at = frames.next.as_deref();
            }
            free.set(head);
            n
        })
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
        let c = LocalClient::new(iface, service);
        let blob = vec![1u8; 10_000];
        let r = c.call("Sum", &[Value::Bytes(blob)]).unwrap();
        assert_eq!(r[0], Value::Integer(10_000));
    }

    #[test]
    fn nested_local_calls_each_get_their_own_frames() {
        let iface = parse_interface(
            "DEFINITION MODULE Nest;
               PROCEDURE Echo(depth: INTEGER; VAR IN data: ARRAY OF CHAR;
                              VAR OUT copy: ARRAY OF CHAR);
             END Nest.",
        )
        .unwrap();
        // The service calls itself locally until `depth` reaches 0, and
        // each level adds one to every byte the level below returned: the
        // result is right only if no level's frames were overwritten by
        // the level it called.
        let client: Arc<OnceLock<LocalClient>> = Arc::new(OnceLock::new());
        let inner = client.clone();
        let service = ServiceBuilder::new(iface.clone())
            .on_call("Echo", move |args, w| {
                let Some(&Value::Integer(depth)) = args[0].value() else {
                    panic!("depth is an INTEGER");
                };
                let data = args[1].bytes().unwrap();
                let out = w.next_bytes(data.len())?;
                if depth == 0 {
                    out.copy_from_slice(data);
                    return Ok(());
                }
                let below = inner
                    .get()
                    .unwrap()
                    .call(
                        "Echo",
                        &[
                            Value::Integer(depth - 1),
                            Value::Bytes(data.to_vec()),
                            Value::char_array(0),
                        ],
                    )
                    .unwrap();
                for (o, b) in out.iter_mut().zip(below[0].as_bytes().unwrap()) {
                    *o = b.wrapping_add(1);
                }
                Ok(())
            })
            .build()
            .unwrap();
        let _ = client.set(LocalClient::new(iface, service));
        let c = client.get().unwrap();
        let data: Vec<u8> = (0..600u32).map(|i| (i * 7 % 251) as u8).collect();
        let expected: Vec<u8> = data.iter().map(|b| b.wrapping_add(2)).collect();
        for round in 0..2 {
            let r = c
                .call(
                    "Echo",
                    &[Value::Integer(2), Value::Bytes(data.clone()), Value::char_array(0)],
                )
                .unwrap();
            assert_eq!(r[0].as_bytes().unwrap(), &expected[..], "round {round}");
            // Three calls were live at once, so three pairs are idle now;
            // the second round reused them rather than making more.
            assert_eq!(idle_frames(), 3, "round {round}");
        }
    }

    #[test]
    fn a_local_call_needs_no_pool_buffer() {
        let (endpoint, c) = local_endpoint();
        let held = hold_every_buffer(&endpoint);
        let r = c.call("MaxResult", &[Value::char_array(0)]).unwrap();
        assert_eq!(r[0].as_bytes().unwrap(), &[0x42u8; 1440][..]);
        c.call("MaxArg", &[Value::char_array(1440)]).unwrap();
        drop(held);
    }

    #[test]
    fn a_panicking_service_leaves_the_next_call_working() {
        let c = local_client();
        // The service's own assertion fails on a short array.
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            c.call("MaxArg", &[Value::char_array(10)])
        }));
        assert!(panicked.is_err());
        assert_eq!(idle_frames(), 1, "the unwinding call returned its frames");
        let r = c.call("MaxResult", &[Value::char_array(0)]).unwrap();
        assert_eq!(r[0].as_bytes().unwrap(), &[0x42u8; 1440][..]);
        assert_eq!(idle_frames(), 1);
    }

    #[test]
    fn local_pool_is_not_leaked() {
        // Local calls take no pool buffer at all, succeeding or failing:
        // with every buffer held they still run, and the pool counts no
        // allocation meanwhile.
        let (endpoint, c) = local_endpoint();
        let held = hold_every_buffer(&endpoint);
        let allocs = endpoint.pool().stats().allocs();
        for _ in 0..100 {
            c.call("MaxResult", &[Value::char_array(0)]).unwrap();
        }
        // Whichever step fails a call: the caller's marshalling, the
        // dynamic path's checks, the server's unmarshalling, or the
        // caller's reading of the result.
        let refuse = || IdlError::Marshal("refused".into());
        for _ in 0..10 {
            let failures = [
                c.call_with(0, |_w| Err(refuse()), |_r| Ok(())),
                c.call_with(1, |_w| Ok(()), |_r| Err::<(), _>(refuse())),
                c.call_with(1, |_w| Ok(()), |r| r.bytes(7).map(|_| ())),
                c.call_with(0, |w| w.put_i32(1), |_r| Ok(())),
                c.call("MaxArg", &[]).map(|_| ()),
                c.call("MaxArg", &[Value::Integer(1)]).map(|_| ()),
                c.call_index(9, &[]).map(|_| ()),
            ];
            for failure in failures {
                assert!(failure.is_err());
            }
        }
        assert_eq!(endpoint.pool().stats().allocs(), allocs);
        assert_eq!(idle_frames(), 1);
        drop(held);
    }
}

//! The six workloads: what each sets up, what one call is, how a call's
//! result is checked, and the closed loop that drives them.
//!
//! Every workload runs the real stack through its public API
//! (`Endpoint`, `Client`, `LocalClient`, `ServiceBuilder`); the program
//! under test only ever sees inputs generated here from `--seed`.

use crate::procfs::{self, ProcSnapshot};
use crate::sample::LatencyHist;
use firefly_idl::{parse_interface, InterfaceDef, ResultWriter, ServerArg, Value};
use firefly_rng::Rng;
use firefly_rpc::local::LocalClient;
use firefly_rpc::transport::{FaultPlan, LoopbackNet, Transport, UdpTransport};
use firefly_rpc::{Client, Config, Endpoint, Service, ServiceBuilder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// One interface serves every workload, so a single service (and a
/// single execution counter) sits behind all of them. `Null` and
/// `MaxResult` are the paper's §2 test procedures; `Blob` is the
/// multi-packet echo; `Ints`/`Txt`/`Arr` are the Tables II–V argument
/// shapes.
const INTERFACE: &str = "\
DEFINITION MODULE Bench;
  PROCEDURE Null();
  PROCEDURE MaxResult(VAR OUT buffer: ARRAY OF CHAR);
  PROCEDURE Blob(VAR IN data: ARRAY OF CHAR; VAR OUT copy: ARRAY OF CHAR);
  PROCEDURE Ints(a, b, x, y: INTEGER): INTEGER;
  PROCEDURE Txt(t: Text.T): INTEGER;
  PROCEDURE Arr(VAR IN data: ARRAY OF CHAR; VAR OUT copy: ARRAY OF CHAR);
END Bench.
";

pub fn interface() -> InterfaceDef {
    parse_interface(INTERFACE).expect("the built-in Bench interface parses")
}

pub const MAX_RESULT_BYTES: usize = 1440;
/// Four maximal fragments each way.
pub const BLOB_BYTES: usize = 4 * MAX_RESULT_BYTES;
pub const ARR_BYTES: usize = 1024;
pub const TXT_CHARS: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Null1c,
    Null2c,
    MaxResult1c,
    Blob4f1c,
    NullLoss1c,
    LocalArgs,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Null1c,
        Workload::Null2c,
        Workload::MaxResult1c,
        Workload::Blob4f1c,
        Workload::NullLoss1c,
        Workload::LocalArgs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Null1c => "null_1c",
            Workload::Null2c => "null_2c",
            Workload::MaxResult1c => "maxresult_1c",
            Workload::Blob4f1c => "blob_4f_1c",
            Workload::NullLoss1c => "null_loss_1c",
            Workload::LocalArgs => "local_args",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop caller threads: one, except `null_2c`, which runs two
    /// but never more than the machine has processors.
    pub fn callers(self) -> usize {
        match self {
            Workload::Null2c => 2.min(processors()),
            _ => 1,
        }
    }

    /// True for the workloads `BENCHMARK.json` lists. The other two run
    /// and are checked like them, but what they measure on a 2-vCPU
    /// guest is the hypervisor's wake-up latency, not this code: two
    /// free-running callers flip between a regime near 44k calls/s and
    /// one near 138k, and a caller that sleeps out a retransmission
    /// timer lets every polling thread park (README, "The two workloads
    /// outside the contract"). Their numbers are information only.
    pub fn in_contract(self) -> bool {
        !matches!(self, Workload::Null2c | Workload::NullLoss1c)
    }

    /// True when the transport injects no faults, so any retransmission
    /// is a 50 ms stall of the machine, not of the protocol.
    pub fn lossless(self) -> bool {
        self != Workload::NullLoss1c
    }

    /// Argument plus result bytes one call moves for its user (Table I's
    /// Mb/s column counts these, not headers); averaged over the plan.
    pub fn payload_bytes(self) -> f64 {
        match self {
            Workload::Null1c | Workload::Null2c | Workload::NullLoss1c => 0.0,
            Workload::MaxResult1c => MAX_RESULT_BYTES as f64,
            Workload::Blob4f1c => 2.0 * BLOB_BYTES as f64,
            Workload::LocalArgs => (16 + 4 + TXT_CHARS + 4 + 2 * ARR_BYTES) as f64 / 3.0,
        }
    }
}

pub fn processors() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a correct result looks like.
enum Expect {
    Nothing,
    Bytes(Vec<u8>),
    Integer(i32),
}

impl Expect {
    fn matches(&self, values: &[Value]) -> bool {
        match (self, values) {
            (Expect::Nothing, []) => true,
            (Expect::Bytes(want), [got]) => got.as_bytes() == Some(want),
            (Expect::Integer(want), [got]) => got.as_integer() == Some(*want),
            _ => false,
        }
    }
}

/// One call of the plan: procedure, generated arguments, expected result.
pub struct PlannedCall {
    pub index: u16,
    pub args: Vec<Value>,
    expect: Expect,
}

impl PlannedCall {
    fn new(interface: &InterfaceDef, name: &str, args: Vec<Value>, expect: Expect) -> PlannedCall {
        let index = interface
            .procedure(name)
            .expect("procedure of the built-in Bench interface")
            .index();
        PlannedCall {
            index,
            args,
            expect,
        }
    }
}

enum Stub {
    Remote(Client),
    Local(LocalClient),
}

/// A set-up workload: endpoints, bound stub, call plan.
pub struct Rig {
    workload: Workload,
    server: Arc<Endpoint>,
    /// `None` for `local_args`, which binds on the serving endpoint.
    caller: Option<Arc<Endpoint>>,
    stub: Stub,
    plan: Vec<PlannedCall>,
    /// Times a service procedure ran (bumped by [`Counted`]).
    executed: Arc<AtomicU64>,
    /// Calls that returned a correct result, over the rig's lifetime.
    completed: AtomicU64,
}

/// One window of a closed-loop phase, or several pooled.
#[derive(Clone)]
pub struct Window {
    /// Latency of every call that ended in the window, all callers.
    pub latency: LatencyHist,
    /// Correct calls that ended in the window, all callers.
    pub calls: u64,
    /// User + system CPU time the whole process spent during the window.
    pub cpu_s: f64,
    pub wall_s: f64,
}

impl Window {
    fn empty(wall_s: f64) -> Window {
        Window {
            latency: LatencyHist::new(),
            calls: 0,
            cpu_s: 0.0,
            wall_s,
        }
    }

    fn pool(&mut self, other: &Window) {
        self.latency.merge(&other.latency);
        self.calls += other.calls;
        self.cpu_s += other.cpu_s;
        self.wall_s += other.wall_s;
    }

    pub fn call_rate(&self) -> f64 {
        self.calls as f64 / self.wall_s
    }

    pub fn cpu_us_per_call(&self) -> f64 {
        self.cpu_s * 1e6 / self.calls.max(1) as f64
    }
}

/// What one closed-loop phase measured.
pub struct Phase {
    pub windows: Vec<Window>,
    pub attempted: u64,
    pub failed: u64,
    pub before: ProcSnapshot,
    pub after: ProcSnapshot,
}

impl Phase {
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// The whole phase as one window.
    pub fn whole(&self) -> Window {
        let mut all = Window::empty(0.0);
        for window in &self.windows {
            all.pool(window);
        }
        all
    }

    /// The fastest tenth of the windows (by calls completed), pooled:
    /// what the end-to-end metrics are read from.
    ///
    /// Every workload that crosses the transport alternates on this box
    /// between stretches in which each poll of the stack's receive loops
    /// finds work and stretches in which they run dry and block; the
    /// share of a run spent in the second kind varies between 20 % and
    /// 60 % from run to run of the same code, so any statistic of the
    /// whole run — mean, median window, merged percentile — measures that
    /// share first (README, "Why the fastest tenth"). The fastest tenth
    /// of 0.25 s windows lies inside the first kind in every run seen,
    /// and repeats to a few per cent.
    pub fn fastest_tenth(&self) -> Window {
        let mut by_calls: Vec<&Window> = self.windows.iter().collect();
        by_calls.sort_by_key(|w| std::cmp::Reverse(w.calls));
        let mut pooled = Window::empty(0.0);
        for window in by_calls.iter().take((self.windows.len() / 10).max(1)) {
            pooled.pool(window);
        }
        pooled
    }

    pub fn wall_s(&self) -> f64 {
        self.windows.iter().map(|w| w.wall_s).sum()
    }

    pub fn cpu_s(&self) -> f64 {
        self.after.cpu_s() - self.before.cpu_s()
    }
}

/// What the end-of-run checks found.
pub struct Checks {
    pub executed: u64,
    pub completed: u64,
    pub leaked_buffers: u64,
    pub retransmissions: u64,
}

impl Checks {
    /// Exactly-once and zero leaked buffers; retransmissions on a
    /// lossless workload only mark the run noisy.
    pub fn passed(&self) -> bool {
        self.executed == self.completed && self.leaked_buffers == 0
    }
}

/// Counts procedure executions in front of the real service, so the
/// exactly-once check has a number the runtime did not produce.
struct Counted {
    inner: Arc<dyn Service>,
    executed: Arc<AtomicU64>,
}

impl Service for Counted {
    fn interface(&self) -> &InterfaceDef {
        self.inner.interface()
    }

    fn dispatch(
        &self,
        index: u16,
        args: &[ServerArg<'_>],
        results: &mut ResultWriter<'_>,
    ) -> firefly_rpc::Result<()> {
        self.executed.fetch_add(1, Ordering::Relaxed);
        self.inner.dispatch(index, args, results)
    }
}

/// The procedures behind [`INTERFACE`].
pub fn service(interface: &InterfaceDef) -> Result<Arc<dyn Service>, String> {
    let echo = |a: &[ServerArg<'_>], w: &mut ResultWriter<'_>| {
        let data = a[0].bytes().unwrap_or(&[]);
        w.next_bytes(data.len())?.copy_from_slice(data);
        Ok(())
    };
    ServiceBuilder::new(interface.clone())
        .on_call("Null", |_a, _w| Ok(()))
        .on_call("MaxResult", |_a, w| {
            w.next_bytes(MAX_RESULT_BYTES)?.fill(0xab);
            Ok(())
        })
        .on_call("Blob", echo)
        .on_call("Ints", |a, w| {
            let sum = a
                .iter()
                .filter_map(|v| v.value().and_then(Value::as_integer))
                .fold(0i32, i32::wrapping_add);
            w.next_value(&Value::Integer(sum))?;
            Ok(())
        })
        .on_call("Txt", |a, w| {
            let len = a[0]
                .value()
                .and_then(Value::as_text)
                .map_or(-1, |t| t.len() as i32);
            w.next_value(&Value::Integer(len))?;
            Ok(())
        })
        .on_call("Arr", echo)
        .build()
        .map_err(|e| e.to_string())
}

fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// The calls of one workload, generated from the seed.
pub fn plan(workload: Workload, interface: &InterfaceDef, rng: &mut Rng) -> Vec<PlannedCall> {
    let echo = |name: &str, data: Vec<u8>| {
        PlannedCall::new(
            interface,
            name,
            vec![Value::Bytes(data.clone()), Value::Bytes(Vec::new())],
            Expect::Bytes(data),
        )
    };
    match workload {
        Workload::Null1c | Workload::Null2c | Workload::NullLoss1c => {
            vec![PlannedCall::new(
                interface,
                "Null",
                Vec::new(),
                Expect::Nothing,
            )]
        }
        Workload::MaxResult1c => vec![PlannedCall::new(
            interface,
            "MaxResult",
            // The caller's variable `b` of §2; only its identity travels.
            vec![Value::char_array(MAX_RESULT_BYTES)],
            Expect::Bytes(vec![0xab; MAX_RESULT_BYTES]),
        )],
        Workload::Blob4f1c => vec![echo("Blob", random_bytes(rng, BLOB_BYTES))],
        Workload::LocalArgs => {
            let ints: Vec<i32> = (0..4).map(|_| rng.next_u32() as i32).collect();
            let sum = ints.iter().copied().fold(0i32, i32::wrapping_add);
            let text: String = (0..TXT_CHARS)
                .map(|_| char::from(b'a' + rng.range(0..26) as u8))
                .collect();
            let mut calls = vec![
                PlannedCall::new(
                    interface,
                    "Ints",
                    ints.into_iter().map(Value::Integer).collect(),
                    Expect::Integer(sum),
                ),
                PlannedCall::new(
                    interface,
                    "Txt",
                    vec![Value::text(&text)],
                    Expect::Integer(TXT_CHARS as i32),
                ),
                echo("Arr", random_bytes(rng, ARR_BYTES)),
            ];
            // Round-robin over the three shapes, in an order the seed picks.
            rng.shuffle(&mut calls);
            calls
        }
    }
}

impl Rig {
    /// Sets the workload up and makes its first call; returns the rig
    /// and the seconds from the start of set-up to that call's return
    /// (`Endpoint::new` ×2, `export`, `bind`, one call).
    ///
    /// `trace_capacity` turns the stack's own tracer on with a ring of
    /// that many records per endpoint.
    pub fn setup(
        workload: Workload,
        seed: u64,
        trace_capacity: Option<usize>,
    ) -> Result<(Rig, f64), String> {
        let mut rng = Rng::new(seed);
        let interface = interface();
        let plan = plan(workload, &interface, &mut rng);

        let started = Instant::now();
        let mut config = match workload {
            // 5 ms first retransmission instead of 50: the workload is
            // about what the protocol does after a loss, not about how
            // long the default timer sleeps (see README).
            Workload::NullLoss1c => Config::fast_retry(),
            _ => Config::default(),
        };
        config.rng_seed = seed;
        if let Some(capacity) = trace_capacity {
            config.trace = true;
            config.trace_capacity = capacity;
        }
        let endpoint = |transport: Arc<dyn Transport>| {
            Endpoint::new(transport, config.clone()).map_err(|e| e.to_string())
        };
        let udp = || -> Result<Arc<dyn Transport>, String> {
            Ok(UdpTransport::localhost().map_err(|e| e.to_string())?)
        };
        let net = LoopbackNet::with_seed(seed);
        let executed = Arc::new(AtomicU64::new(0));
        let (server, caller) = match workload {
            Workload::NullLoss1c => (endpoint(net.station(1))?, Some(endpoint(net.station(2))?)),
            Workload::LocalArgs => (endpoint(net.station(1))?, None),
            _ => (endpoint(udp()?)?, Some(endpoint(udp()?)?)),
        };
        let counted = Counted {
            inner: service(&interface)?,
            executed: Arc::clone(&executed),
        };
        server
            .export(Arc::new(counted))
            .map_err(|e| e.to_string())?;
        let stub = match &caller {
            Some(caller) => Stub::Remote(
                caller
                    .bind(&interface, server.address())
                    .map_err(|e| e.to_string())?,
            ),
            None => Stub::Local(server.bind_local(&interface).map_err(|e| e.to_string())?),
        };
        let rig = Rig {
            workload,
            server,
            caller,
            stub,
            plan,
            executed,
            completed: AtomicU64::new(0),
        };
        if !rig.call_once(0) {
            return Err(format!("{}: the first call failed", workload.name()));
        }
        let setup_s = started.elapsed().as_secs_f64();
        rig.completed.fetch_add(1, Ordering::Relaxed);

        if workload == Workload::NullLoss1c {
            // Faults start after the first call, so that set-up time is
            // not a draw from the loss lottery.
            net.set_faults(FaultPlan {
                loss: 0.01,
                duplicate: 0.01,
                ..FaultPlan::default()
            });
        }
        Ok((rig, setup_s))
    }

    pub fn server(&self) -> &Endpoint {
        &self.server
    }

    /// The endpoint calls are made from (the serving one for
    /// `local_args`).
    pub fn caller(&self) -> &Endpoint {
        self.caller.as_deref().unwrap_or(&self.server)
    }

    /// Makes call number `i` of the plan and checks its result.
    fn call_once(&self, i: u64) -> bool {
        let call = &self.plan[(i % self.plan.len() as u64) as usize];
        let result = match &self.stub {
            Stub::Remote(client) => client.call_index(call.index, &call.args),
            Stub::Local(client) => client.call_index(call.index, &call.args),
        };
        result.is_ok_and(|values| call.expect.matches(&values))
    }

    /// Runs the closed loop for `seconds`, split into `windows` equal
    /// windows: each caller makes its next call as soon as the previous
    /// one returned, times it with `Instant`, and books it to the window
    /// it ended in. Caller 0 also reads the process's CPU time whenever
    /// it enters a new window.
    pub fn drive(&self, seconds: f64, windows: usize) -> Phase {
        let callers = self.workload.callers();
        let window = Duration::from_secs_f64(seconds / windows as f64);
        // Three passes: start together; all callers done; readings taken
        // while the caller threads still exist (see `ProcSnapshot`).
        let gate = Barrier::new(callers + 1);
        let start = OnceLock::new();
        let mut phase = Phase {
            windows: Vec::new(),
            attempted: 0,
            failed: 0,
            before: ProcSnapshot::default(),
            after: ProcSnapshot::default(),
        };
        let mut uncounted = 0;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..callers)
                .map(|caller| {
                    let (gate, start) = (&gate, &start);
                    scope.spawn(move || {
                        let mut mine = vec![Window::empty(window.as_secs_f64()); windows];
                        // The process's CPU time at each window boundary.
                        let mut cpu_at = vec![0.0; windows + 1];
                        let mut open = 0;
                        let (mut attempted, mut failed) = (0u64, 0u64);
                        gate.wait();
                        let t0: Instant = *start.get().expect("set before the start barrier");
                        if caller == 0 {
                            cpu_at[0] = procfs::process_cpu_s();
                        }
                        // Callers start at different places of the plan.
                        let mut i = caller as u64;
                        // A correct call that ends after the phase belongs
                        // to no window, but it did execute.
                        let uncounted = loop {
                            let begin = Instant::now();
                            let ok = self.call_once(i);
                            let end = Instant::now();
                            i += 1;
                            let w = ((end - t0).as_nanos() / window.as_nanos()) as usize;
                            let w = w.min(windows);
                            if caller == 0 && w > open {
                                cpu_at[open + 1..=w].fill(procfs::process_cpu_s());
                                open = w;
                            }
                            if w == windows {
                                break u64::from(ok);
                            }
                            attempted += 1;
                            if ok {
                                mine[w].calls += 1;
                            } else {
                                failed += 1;
                            }
                            mine[w].latency.record((end - begin).as_nanos() as u64);
                        };
                        for (window, cpu) in mine.iter_mut().zip(cpu_at.windows(2)) {
                            window.cpu_s = cpu[1] - cpu[0];
                        }
                        gate.wait();
                        gate.wait();
                        (mine, attempted, failed, uncounted)
                    })
                })
                .collect();
            phase.before = ProcSnapshot::take();
            start.set(Instant::now()).expect("set once");
            gate.wait();
            gate.wait();
            phase.after = ProcSnapshot::take();
            gate.wait();
            for handle in handles {
                let (mine, attempted, failed, extra) =
                    handle.join().expect("caller thread panicked");
                if phase.windows.is_empty() {
                    phase.windows = mine;
                } else {
                    for (total, window) in phase.windows.iter_mut().zip(&mine) {
                        total.latency.merge(&window.latency);
                        total.calls += window.calls;
                        total.cpu_s += window.cpu_s;
                    }
                }
                phase.attempted += attempted;
                phase.failed += failed;
                uncounted += extra;
            }
        });
        self.completed
            .fetch_add(phase.completed() + uncounted, Ordering::Relaxed);
        phase
    }

    /// Shuts both endpoints down and checks the guarantees that must
    /// hold on every workload: each completed call ran its procedure
    /// exactly once, and every pool buffer is back in its pool.
    pub fn finish(self) -> Checks {
        let Rig {
            server,
            caller,
            stub,
            executed,
            completed,
            ..
        } = self;
        let retransmissions = caller
            .iter()
            .chain([&server])
            .map(|e| e.stats().retransmissions())
            .sum();
        // Unbinding acknowledges the last result of every activity; the
        // server keeps that result (in a pool buffer, when it fits one)
        // until then, or until the activity is pruned as idle — which
        // also covers a teardown ack lost on `null_loss_1c`.
        drop(stub);
        let mut leaked_buffers = 0;
        for endpoint in caller.iter().chain([&server]) {
            endpoint.prune_idle_activities(Duration::ZERO);
            endpoint.shutdown();
            let pool = endpoint.pool();
            let home = pool.free_count() + pool.receive_queue_len();
            leaked_buffers += pool.capacity().saturating_sub(home) as u64;
        }
        Checks {
            executed: executed.load(Ordering::Relaxed),
            completed: completed.load(Ordering::Relaxed),
            leaked_buffers,
            retransmissions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_fit_the_contract() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(crate::valid_name(w.name()), "{}", w.name());
            assert!(w.callers() >= 1 && w.callers() <= processors());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn expectations_reject_wrong_results() {
        assert!(Expect::Nothing.matches(&[]));
        assert!(!Expect::Nothing.matches(&[Value::Integer(0)]));
        assert!(Expect::Integer(7).matches(&[Value::Integer(7)]));
        assert!(!Expect::Integer(7).matches(&[Value::Integer(8)]));
        assert!(Expect::Bytes(vec![1, 2]).matches(&[Value::Bytes(vec![1, 2])]));
        assert!(!Expect::Bytes(vec![1, 2]).matches(&[Value::Bytes(vec![1, 3])]));
        assert!(!Expect::Bytes(vec![1, 2]).matches(&[]));
    }

    #[test]
    fn same_seed_same_inputs() {
        let interface = interface();
        let args = |seed| {
            plan(Workload::LocalArgs, &interface, &mut Rng::new(seed))
                .into_iter()
                .map(|c| (c.index, c.args))
                .collect::<Vec<_>>()
        };
        assert_eq!(args(5), args(5));
        assert_ne!(args(5), args(6));
    }

    #[test]
    fn the_fastest_tenth_pools_the_windows_with_most_calls() {
        let window = |calls: u64| {
            let mut w = Window::empty(0.25);
            w.calls = calls;
            w.cpu_s = 0.5;
            for _ in 0..calls {
                w.latency.record(1000 * calls);
            }
            w
        };
        let mut phase = Phase {
            // 20 windows in no particular order; the two fastest have
            // 20 and 19 calls.
            windows: (1..=20).map(|i| window((i * 8) % 21)).collect(),
            attempted: 210,
            failed: 0,
            before: ProcSnapshot::default(),
            after: ProcSnapshot::default(),
        };
        let fastest = phase.fastest_tenth();
        assert_eq!(fastest.calls, 39);
        assert_eq!(fastest.latency.count(), 39);
        assert!((fastest.wall_s - 0.5).abs() < 1e-12);
        assert!((fastest.call_rate() - 78.0).abs() < 1e-9);
        assert!((fastest.cpu_us_per_call() - 1e6 / 39.0).abs() < 1e-6);
        let p50 = fastest.latency.percentile_ns(50.0);
        assert!((19_000.0..20_400.0).contains(&p50), "{p50}");
        let whole = phase.whole();
        assert_eq!((whole.calls, phase.completed()), (210, 210));
        assert!((phase.wall_s() - 5.0).abs() < 1e-12);
        // Fewer than ten windows: the fastest one.
        phase.windows.truncate(3);
        assert_eq!(phase.fastest_tenth().calls, 16);
    }

    /// Every workload, for a moment: calls complete, results check out,
    /// procedures ran exactly once per call, no buffer leaks.
    #[test]
    fn every_workload_runs_and_passes_its_checks() {
        for w in Workload::ALL {
            let (rig, setup_s) = Rig::setup(w, 3, None).expect("setup");
            assert!(setup_s > 0.0);
            let phase = rig.drive(0.3, 3);
            assert!(phase.completed() > 0, "{}", w.name());
            assert_eq!(phase.failed, 0, "{}", w.name());
            let whole = phase.whole();
            assert_eq!(whole.latency.count(), phase.attempted);
            assert_eq!(whole.calls, phase.completed());
            assert!((whole.wall_s - 0.3).abs() < 1e-9);
            assert!(whole.cpu_s > 0.0, "{}", w.name());
            let checks = rig.finish();
            assert!(
                checks.passed(),
                "{}: executed {} completed {} leaked {}",
                w.name(),
                checks.executed,
                checks.completed,
                checks.leaked_buffers
            );
        }
    }
}

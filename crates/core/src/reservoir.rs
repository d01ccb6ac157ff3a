//! The process's idle RPC threads, kept for the endpoints it makes next.
//!
//! An endpoint runs two kinds of thread: its resident receiver, from
//! `Endpoint::new` on, and the server threads its hand-offs start
//! (docs/SHARDING.md, "The threads an endpoint runs"). Spawning one costs
//! the thread that asks 11–14 µs, and the new thread first runs ≈ 10 µs
//! later. In the paper, server threads already exist and wait to be
//! awakened (§3.1.3); in eRPC, all the endpoints of a process share the
//! background threads of its one `Nexus`.
//!
//! Here each kind of thread has a [`Reservoir`]: the list of its idle
//! threads. [`Reservoir::run`] hands a job to the idle thread listed
//! last, which costs one wake, and spawns a thread only when none is
//! listed. [`Running::wait`] waits for the job to end, not for the thread
//! to exit. A thread whose job returned has dropped the job, and with it
//! everything the job held of its endpoint; it then lists itself idle,
//! and only then releases whoever waits, so an endpoint made right after
//! another shut down finds its threads. It waits idle for at most
//! [`KEEP_ALIVE`], and a list holds at most [`MOST_IDLE`] threads: a
//! thread past either ends. A job that panics ends its thread: the
//! unwinding releases whoever waits, and the thread is never listed
//! again.
//!
//! The kinds never mix. A thread keeps the name it was spawned with
//! (`firefly-demux`, `firefly-server`) and runs only its reservoir's
//! jobs, so its name still says which loop it runs.

use firefly_sync::{Condvar, Mutex};
use std::io;
use std::sync::Arc;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

/// How long a thread waits idle for its next job before it ends. It must
/// span the gap between one endpoint's shutdown and the next one's
/// set-up where a process makes endpoints again and again (a benchmark's
/// set-up rounds, a test suite: microseconds to milliseconds apart). It
/// need not be longer: a process that has stopped making endpoints gets
/// back the threads and stacks it no longer uses a second later.
pub(crate) const KEEP_ALIVE: Duration = Duration::from_secs(1);

/// The most idle threads a reservoir lists: the server threads of two
/// endpoints at the default cap of four, such as a caller and a server
/// made again together. An idle thread keeps the stack it has touched;
/// one past this many ends at once instead.
pub(crate) const MOST_IDLE: usize = 8;

/// Work for a thread; what it holds is dropped when it returns.
type Job = Box<dyn FnOnce() + Send>;

/// What a thread is handed: its job, and what says the job ended.
type Handed = (Job, Teller);

/// What an idle thread is waiting for.
enum Next {
    Nothing,
    Job(Handed),
    /// Taken off the list and not used: the thread ends.
    LetGo,
}

/// A reservoir thread's mailbox, on its reservoir's list while the
/// thread is idle.
struct Idle {
    thread: ThreadId,
    next: Mutex<Next>,
    handed: Condvar,
}

impl Idle {
    fn hand(&self, next: Next) {
        *self.next.lock() = next;
        self.handed.notify_one();
    }
}

/// Whether a job has ended, for [`Running::wait`].
#[derive(Default)]
struct Ended {
    ended: Mutex<bool>,
    told: Condvar,
}

/// Tells the job's [`Ended`] when it is dropped: after the job returned,
/// or while it unwinds.
struct Teller(Arc<Ended>);

impl Drop for Teller {
    fn drop(&mut self) {
        *self.0.ended.lock() = true;
        self.0.told.notify_all();
    }
}

/// The idle threads of one kind, named after it.
pub(crate) struct Reservoir {
    name: &'static str,
    /// In the order they went idle: the last is taken first, and the
    /// first is the first to reach its keep-alive.
    idle: Mutex<Vec<Arc<Idle>>>,
}

/// The resident receivers' threads, which run only `demux_loop`.
pub(crate) static RECEIVERS: Reservoir = Reservoir::new("firefly-demux");

/// The server threads, which run only `ServerSide::worker_loop`.
pub(crate) static SERVERS: Reservoir = Reservoir::new("firefly-server");

impl Reservoir {
    /// An empty reservoir whose threads are named `name`.
    pub const fn new(name: &'static str) -> Reservoir {
        Reservoir {
            name,
            // lint:allow(no-alloc-on-fast-path): an empty list allocates
            // nothing; it grows to at most `MOST_IDLE`, once.
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Takes the idle thread listed last, if there is one, for
    /// [`Reserved::run`]. Only this reservoir's lock is taken.
    pub fn reserve(&'static self) -> Reserved {
        Reserved {
            reservoir: self,
            idle: self.idle.lock().pop(),
        }
    }

    /// Runs `job` on an idle thread of this kind, or on a new one when
    /// none is idle; `Err` when the OS refuses a thread.
    pub fn run(&'static self, job: impl FnOnce() + Send + 'static) -> io::Result<Running> {
        self.reserve().run(job)
    }

    /// Threads now idle (racy, for tests).
    #[cfg(test)]
    fn idle_count(&self) -> usize {
        self.idle.lock().len()
    }

    /// A thread's life: its first job, then each job it is handed while
    /// idle, until its keep-alive runs out or the list is full.
    fn serve(&self, mut job: Job, mut teller: Teller) {
        // lint:allow(no-alloc-on-fast-path): once per thread spawned.
        let me = Arc::new(Idle {
            thread: thread::current().id(),
            next: Mutex::new(Next::Nothing),
            handed: Condvar::new(),
        });
        loop {
            job();
            if !self.list(&me) {
                return;
            }
            drop(teller);
            match self.next_job(&me) {
                Some(handed) => (job, teller) = handed,
                None => return,
            }
        }
    }

    /// Lists `me` idle; false when the list is full.
    fn list(&self, me: &Arc<Idle>) -> bool {
        let mut idle = self.idle.lock();
        if idle.len() >= MOST_IDLE {
            return false;
        }
        idle.push(Arc::clone(me));
        true
    }

    /// Takes `me` off the list; false when a taker got there first.
    fn unlist(&self, me: &Idle) -> bool {
        let mut idle = self.idle.lock();
        let at = idle.iter().position(|t| t.thread == me.thread);
        at.map(|at| idle.remove(at)).is_some()
    }

    /// The calling thread's next job, or `None` once it has waited
    /// [`KEEP_ALIVE`] still listed, or was taken and let go.
    fn next_job(&self, me: &Idle) -> Option<Handed> {
        let deadline = Instant::now() + KEEP_ALIVE;
        let mut listed = true;
        let mut next = me.next.lock();
        loop {
            match std::mem::replace(&mut *next, Next::Nothing) {
                Next::Job(handed) => return Some(handed),
                Next::LetGo => return None,
                Next::Nothing => {}
            }
            if listed && Instant::now() >= deadline {
                drop(next);
                if self.unlist(me) {
                    return None;
                }
                // Taken as the keep-alive ran out: its job is on the
                // way, or its taker lets it go.
                listed = false;
                next = me.next.lock();
                continue;
            }
            me.handed.wait_until(&mut next, Instant::now() + KEEP_ALIVE);
        }
    }
}

/// A thread set aside for a job: an idle one taken off its list, or none,
/// and [`Reserved::run`] spawns one. Dropped unused, an idle thread ends.
pub(crate) struct Reserved {
    reservoir: &'static Reservoir,
    idle: Option<Arc<Idle>>,
}

impl Reserved {
    /// Hands `job` to the thread taken, or spawns one for it; takes no
    /// reservoir lock. `Err` when the OS refuses a thread.
    pub fn run(mut self, job: impl FnOnce() + Send + 'static) -> io::Result<Running> {
        // lint:allow(no-alloc-on-fast-path): once per thread an endpoint
        // takes, at most `Config::server_threads` per endpoint.
        let ended = Arc::new(Ended::default());
        // lint:allow(no-alloc-on-fast-path): as above.
        let handed: Handed = (Box::new(job), Teller(Arc::clone(&ended)));
        if let Some(idle) = self.idle.take() {
            idle.hand(Next::Job(handed));
            return Ok(Running {
                ended,
                thread: idle.thread,
            });
        }
        let reservoir = self.reservoir;
        let (job, teller) = handed;
        // Detached: the thread outlives its first job, and what its
        // takers wait for is the job's end. A panic still reaches the
        // panic hook, and `Running::wait` still returns.
        let spawned = thread::Builder::new()
            .name(reservoir.name.into())
            .spawn(move || reservoir.serve(job, teller))?;
        Ok(Running {
            ended,
            thread: spawned.thread().id(),
        })
    }
}

impl Drop for Reserved {
    fn drop(&mut self) {
        if let Some(idle) = self.idle.take() {
            idle.hand(Next::LetGo);
        }
    }
}

/// A job handed to a thread, to wait for.
pub(crate) struct Running {
    ended: Arc<Ended>,
    thread: ThreadId,
}

impl Running {
    /// Waits until the job has returned or panicked, not for its thread
    /// to exit. On the job's own thread it returns at once: the job
    /// cannot end while it waits.
    pub fn wait(self) {
        if thread::current().id() == self.thread {
            return;
        }
        let mut ended = self.ended.ended.lock();
        while !*ended {
            self.ended
                .told
                .wait_until(&mut ended, Instant::now() + KEEP_ALIVE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Barrier};

    /// Runs `job` on `reservoir` and waits for it; gives back the id and
    /// name of the thread that ran it.
    fn ran_on(
        reservoir: &'static Reservoir,
        job: impl FnOnce() + Send + 'static,
    ) -> (ThreadId, String) {
        let (tx, rx) = mpsc::channel();
        let running = reservoir
            .run(move || {
                let me = thread::current();
                let _ = tx.send((me.id(), me.name().unwrap_or_default().to_string()));
                job();
            })
            .unwrap();
        running.wait();
        rx.recv().unwrap()
    }

    #[test]
    fn a_job_after_another_runs_on_the_same_named_thread() {
        static KIND: Reservoir = Reservoir::new("firefly-test-reuse");
        let (first, name) = ran_on(&KIND, || {});
        assert_eq!(name, "firefly-test-reuse");
        // Listed idle before `wait` returned: no race with the next job.
        assert_eq!(KIND.idle_count(), 1);
        let (second, _) = ran_on(&KIND, || {});
        assert_eq!(first, second, "the idle thread was not reused");
    }

    #[test]
    fn a_job_that_panics_releases_its_waiter_and_ends_its_thread() {
        static KIND: Reservoir = Reservoir::new("firefly-test-panic");
        let (panicked, _) = ran_on(&KIND, || panic!("a job that panics"));
        // `wait` came back; the thread is gone, not listed again.
        let deadline = Instant::now() + Duration::from_millis(100);
        while Instant::now() < deadline {
            assert_eq!(KIND.idle_count(), 0, "the panicked thread went idle");
            thread::yield_now();
        }
        let (next, _) = ran_on(&KIND, || {});
        assert_ne!(panicked, next, "a job ran on the thread that panicked");
    }

    #[test]
    fn a_thread_waiting_for_its_own_job_returns_at_once() {
        static KIND: Reservoir = Reservoir::new("firefly-test-self");
        let (give, own) = mpsc::channel::<Running>();
        let (finished, was_finished) = mpsc::channel();
        let running = KIND
            .run(move || {
                own.recv().unwrap().wait();
                let _ = finished.send(());
            })
            .unwrap();
        give.send(running).unwrap();
        was_finished
            .recv_timeout(Duration::from_secs(10))
            .expect("the job hung waiting for itself");
    }

    #[test]
    fn idle_threads_stay_under_the_cap_and_end_after_the_keep_alive() {
        static KIND: Reservoir = Reservoir::new("firefly-test-cap");
        // Two jobs more than the cap, all running at once, each on its own
        // thread.
        let jobs = MOST_IDLE + 2;
        let together = Arc::new(Barrier::new(jobs + 1));
        let running: Vec<Running> = (0..jobs)
            .map(|_| {
                let together = Arc::clone(&together);
                KIND.run(move || {
                    together.wait();
                })
                .unwrap()
            })
            .collect();
        together.wait();
        let ended = Instant::now();
        for job in running {
            job.wait();
        }
        // Each thread listed itself, or found the list full and ended,
        // before its waiter was released.
        let listed = KIND.idle_count();
        if ended.elapsed() < KEEP_ALIVE {
            assert_eq!(listed, MOST_IDLE);
        }
        let deadline = ended + KEEP_ALIVE + Duration::from_secs(20);
        loop {
            let idle = KIND.idle_count();
            assert!(
                idle <= MOST_IDLE,
                "{idle} idle threads, past the cap of {MOST_IDLE}"
            );
            if idle == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{idle} threads still idle past the keep-alive"
            );
            thread::sleep(Duration::from_millis(10));
        }
    }
}

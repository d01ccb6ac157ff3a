//! Tier-1 gate for `firefly-check`, the deterministic concurrency
//! checker: the seeded-bug fixtures must be caught with replayable
//! schedules, the clean structure models must pass, and exploration
//! must be deterministic under a fixed seed.

use std::mem::discriminant;

use firefly_check::sched::Failure;
use firefly_check::{models, Explorer, Mode};
use firefly_propcheck::check;

/// Every seeded bug is detected within a bounded DFS, and re-running
/// the printed decision list reproduces the same failure kind — the
/// replay contract the failure report advertises.
#[test]
fn seeded_bugs_are_caught_and_replayable() {
    let explorer = Explorer::new();
    for model in models::bug_models() {
        let outcome = explorer.explore(&model, &Mode::Dfs { max_schedules: 500 });
        let report = outcome
            .failure
            .unwrap_or_else(|| panic!("{}: seeded bug not detected", model.name));
        let expected_kind = match model.name {
            "bug-abba" => discriminant(&Failure::LockInversion {
                earlier: String::new(),
                later: String::new(),
            }),
            "bug-lost-wakeup" | "bug-unregistered-waiter" => discriminant(&Failure::LostWakeup),
            "bug-double-release" => discriminant(&Failure::Invariant {
                message: String::new(),
            }),
            "bug-race-counter" | "bug-race-publish" | "bug-race-notify" => {
                discriminant(&Failure::Race {
                    location: String::new(),
                    first: String::new(),
                    second: String::new(),
                })
            }
            other => panic!("unknown bug model {other}"),
        };
        assert_eq!(
            discriminant(&report.failure),
            expected_kind,
            "{}: wrong failure kind: {}",
            model.name,
            report.failure
        );
        assert!(
            !report.trace.is_empty(),
            "{}: failing schedule has no event trace",
            model.name
        );

        let replayed = explorer.explore(
            &model,
            &Mode::Replay {
                decisions: report.decisions.clone(),
            },
        );
        let replayed_failure = replayed
            .failure
            .unwrap_or_else(|| panic!("{}: replay did not reproduce", model.name));
        assert_eq!(
            discriminant(&replayed_failure.failure),
            discriminant(&report.failure),
            "{}: replay produced {} instead of {}",
            model.name,
            replayed_failure.failure,
            report.failure
        );
        assert_eq!(
            replayed_failure.trace, report.trace,
            "{}: replayed schedule diverged from the recorded one",
            model.name
        );
    }
}

/// The clean models — exactly the four that run production code:
/// call-table slot reuse, trace ring, MPMC channel and receive role —
/// pass every explored schedule, DFS and random.
#[test]
fn structure_models_pass_every_schedule() {
    let names: Vec<&str> = models::structure_models().iter().map(|m| m.name).collect();
    assert_eq!(names, ["calltable", "trace-ring", "channel", "receive-role"]);
    let explorer = Explorer::new();
    for model in models::structure_models() {
        let dfs = explorer.explore(&model, &Mode::Dfs { max_schedules: 300 });
        assert!(
            dfs.failure.is_none(),
            "{} (dfs): {}",
            model.name,
            dfs.failure.map(|f| f.failure.to_string()).unwrap_or_default()
        );
        let rand = explorer.explore(
            &model,
            &Mode::Random {
                seed: 7,
                schedules: 100,
            },
        );
        assert!(
            rand.failure.is_none(),
            "{} (random): {}",
            model.name,
            rand.failure.map(|f| f.failure.to_string()).unwrap_or_default()
        );
    }
}

/// Determinism: the same seed and model produce byte-identical schedule
/// traces (compared via the FNV digest over every event line) and the
/// same schedule count — across two independent explorers.
#[test]
fn same_seed_produces_identical_exploration() {
    check("same seed, same schedules", 6, |g| {
        let seed = g.rng().next_u64();
        for model in models::structure_models() {
            let mode = Mode::Random { seed, schedules: 25 };
            let a = Explorer::new().explore(&model, &mode);
            let b = Explorer::new().explore(&model, &mode);
            if a.digest != b.digest {
                return Err(format!(
                    "{}: digests diverged under seed {seed:#x}: {:#x} vs {:#x}",
                    model.name, a.digest, b.digest
                ));
            }
            if a.schedules != b.schedules {
                return Err(format!(
                    "{}: schedule count diverged under seed {seed:#x}",
                    model.name
                ));
            }
        }
        Ok(())
    });
}

/// Soundness of the partial-order reduction: on every registered model,
/// DPOR must reach the same verdict as plain DFS — a pass stays a pass
/// and a seeded bug stays caught with the same failure kind. When both
/// modes exhaust the schedule space they must also observe the same
/// publication classes (pruning drops redundant interleavings, never
/// behaviors), and DPOR itself is deterministic: two runs produce the
/// same digest, schedule count, and pruned count.
#[test]
fn dpor_agrees_with_dfs_on_every_model() {
    check("dpor vs dfs verdicts", 4, |g| {
        let explorer = Explorer::new();
        // Vary the cap so agreement is not an artifact of one bound;
        // keep it >= 500 so bounded DFS still catches every seeded bug.
        let cap = 500 + (g.rng().next_u64() % 1500) as usize;
        let all = models::structure_models()
            .into_iter()
            .chain(models::bug_models());
        for model in all {
            let dfs = explorer.explore(&model, &Mode::Dfs { max_schedules: cap });
            let dpor = explorer.explore(&model, &Mode::Dpor { max_schedules: cap });
            let dpor2 = explorer.explore(&model, &Mode::Dpor { max_schedules: cap });
            if (dpor.digest, dpor.schedules, dpor.pruned)
                != (dpor2.digest, dpor2.schedules, dpor2.pruned)
            {
                return Err(format!("{}: DPOR is not deterministic", model.name));
            }
            match (&dfs.failure, &dpor.failure) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    if discriminant(&a.failure) != discriminant(&b.failure) {
                        return Err(format!(
                            "{}: DFS found {} but DPOR found {} (cap {cap})",
                            model.name, a.failure, b.failure
                        ));
                    }
                }
                (a, b) => {
                    return Err(format!(
                        "{}: verdicts disagree at cap {cap}: dfs={:?} dpor={:?}",
                        model.name,
                        a.as_ref().map(|f| f.failure.to_string()),
                        b.as_ref().map(|f| f.failure.to_string()),
                    ));
                }
            }
            if dfs.exhausted && dpor.exhausted && dfs.publications != dpor.publications {
                return Err(format!(
                    "{}: exhaustive DFS and DPOR observed different publication \
                     classes: {:?} vs {:?}",
                    model.name, dfs.publications, dpor.publications
                ));
            }
        }
        Ok(())
    });
}

/// The call-table model runs to exhaustion: DPOR explores every
/// schedule of one activity's entry carrying two calls, with a late ack,
/// a late result-fragment run and a late duplicate result of call 0
/// delivered around call 1, and in none of them is a late packet taken
/// into the reused entry or call 1 completed with bytes not its own.
///
/// It is also the checker's cover for the waiter gate, on the structure
/// every remote call parks on: because a notify with no registered
/// waiter is not an event, the caller must be *seen* to park on its
/// entry and be woken by a later delivery (a passing schedule with a
/// park in it has exactly that: nothing else ends it). And it is the
/// evidence that partial-order reduction reduces, on production code:
/// plain DFS given five times DPOR's explored + pruned runs must still
/// not exhaust the model.
#[test]
fn calltable_model_exhausts_under_dpor() {
    let explorer = Explorer::new();
    let model = models::find("calltable").expect("calltable model registered");
    let dpor = explorer.explore(&model, &Mode::Dpor { max_schedules: 20_000 });
    assert!(
        dpor.failure.is_none(),
        "calltable (dpor): {}",
        dpor.failure.map(|f| f.failure.to_string()).unwrap_or_default()
    );
    assert!(
        dpor.exhausted,
        "calltable (dpor) not exhausted in {} schedule(s)",
        dpor.schedules
    );
    assert!(
        dpor.parks > 0,
        "calltable (dpor): no schedule parked the caller — the gated notify is untested"
    );
    let runs = dpor.schedules + dpor.pruned;
    let dfs = explorer.explore(&model, &Mode::Dfs { max_schedules: 5 * runs });
    assert!(
        dfs.failure.is_none(),
        "calltable (dfs): {}",
        dfs.failure.map(|f| f.failure.to_string()).unwrap_or_default()
    );
    assert!(
        !dfs.exhausted,
        "DPOR pruning regressed: plain DFS exhausted in {} schedule(s), \
         within five times DPOR's {runs} explored + pruned",
        dfs.schedules
    );
}

/// The receive-role model (docs/SHARDING.md, "Who receives"): two
/// callers and the resident receiver over the real `ReceiveRole` and
/// `CallTable`. No explored schedule may end with a datagram queued, a
/// waiter parked on its entry and the role unheld — with timeouts off
/// under the checker that state has nobody left to run, so it would be
/// reported as a deadlock or lost wakeup.
///
/// Every role atomic is touched by all three threads, so almost every
/// pair of steps is dependent and DPOR cannot exhaust the model (not in
/// 400 000 schedules); it is bounded here and backed by seeded random
/// sampling, which is what finds protocol defects in it fastest: with
/// any one of the explicit wake on release, the wake on a spent budget,
/// the re-look at the holder after counting oneself parked, or the
/// resident's re-acquire inside its cede window removed, random
/// sampling from this seed reports a lost wakeup within 50 schedules.
#[test]
fn receive_role_strands_no_waiter() {
    let explorer = Explorer::new();
    let model = models::find("receive-role").expect("receive-role model registered");
    let dpor = explorer.explore(&model, &Mode::Dpor { max_schedules: 2000 });
    assert!(
        dpor.failure.is_none(),
        "receive-role (dpor): {}",
        dpor.failure.map(|f| f.failure.to_string()).unwrap_or_default()
    );
    let rand = explorer.explore(
        &model,
        &Mode::Random {
            seed: 7,
            schedules: 1500,
        },
    );
    assert!(
        rand.failure.is_none(),
        "receive-role (random): {}",
        rand.failure.map(|f| f.failure.to_string()).unwrap_or_default()
    );
}

/// Stress the instrumented MPMC channel beyond what schedule
/// exploration covers: many messages through repeated empty/refill
/// cycles on real OS threads (no scheduler hook), so the queue
/// wraps through its empty state many times.
#[test]
fn channel_stress_many_messages_real_threads() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const SENDERS: usize = 4;
    const PER_SENDER: u64 = 250;

    let (tx, rx) = firefly_sync::channel::unbounded::<u64>();
    let sum = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for s in 0..SENDERS {
        let tx = tx.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_SENDER {
                tx.send(s as u64 * PER_SENDER + i).expect("receivers alive");
            }
        }));
    }
    drop(tx);
    for _ in 0..3 {
        let rx = rx.clone();
        let sum = Arc::clone(&sum);
        handles.push(std::thread::spawn(move || {
            while let Ok(v) = rx.recv() {
                sum.fetch_add(v, Ordering::Relaxed);
            }
        }));
    }
    drop(rx);
    for h in handles {
        h.join().expect("worker thread");
    }
    let total = SENDERS as u64 * PER_SENDER;
    assert_eq!(sum.load(Ordering::Relaxed), total * (total - 1) / 2);
}

//! Tier-1 gate for `firefly-check`, the deterministic concurrency
//! checker: the seeded-bug fixtures must be caught with replayable
//! schedules, the clean structure models must pass, exploration must be
//! deterministic under a fixed seed, and every lock edge observed
//! dynamically must be consistent with the static lock graph computed
//! by `firefly-lint` (gate one of `firefly_check::gates`).

use std::collections::BTreeSet;
use std::mem::discriminant;
use std::path::PathBuf;

use firefly_check::sched::Failure;
use firefly_check::{gates, models, Explorer, Mode};
use firefly_lint::Engine;
use firefly_propcheck::check;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

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

/// The clean models — call-table slot reuse, pool recycling, trace
/// ring, MPMC channel — pass every explored schedule, DFS and random.
#[test]
fn structure_models_pass_every_schedule() {
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
/// traces (compared via the FNV digest over every event line), the same
/// schedule count, and the same observed edge set — across two
/// independent explorers.
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
            if a.schedules != b.schedules || a.edges != b.edges {
                return Err(format!(
                    "{}: schedule count or edge set diverged under seed {seed:#x}",
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
/// lock-edge set (pruning drops redundant interleavings, never
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
            if dfs.exhausted && dpor.exhausted && dfs.edges != dpor.edges {
                return Err(format!(
                    "{}: exhaustive DFS and DPOR observed different lock-edge \
                     sets: {:?} vs {:?}",
                    model.name, dfs.edges, dpor.edges
                ));
            }
        }
        Ok(())
    });
}

/// The point of DPOR: the 4-shard call table's interleaving space
/// drowns a plain DFS at any practical cap, but its threads are almost
/// all independent, so the reduction exhausts it in a handful of
/// schedules.
#[test]
fn dpor_exhausts_the_sharded_calltable_where_dfs_cannot() {
    let explorer = Explorer::new();
    let model = models::find("sharded-calltable").expect("sharded model registered");
    let dpor = explorer.explore(&model, &Mode::Dpor { max_schedules: 2000 });
    assert!(
        dpor.failure.is_none(),
        "sharded-calltable (dpor): {}",
        dpor.failure.map(|f| f.failure.to_string()).unwrap_or_default()
    );
    assert!(
        dpor.exhausted,
        "DPOR must exhaust the sharded call table (explored {}, pruned {})",
        dpor.schedules, dpor.pruned
    );
    assert!(
        dpor.schedules + dpor.pruned <= 100,
        "DPOR pruning regressed: {} explored + {} pruned",
        dpor.schedules,
        dpor.pruned
    );
    let dfs = explorer.explore(&model, &Mode::Dfs { max_schedules: 2000 });
    assert!(dfs.failure.is_none(), "sharded-calltable (dfs) failed");
    assert!(
        !dfs.exhausted,
        "plain DFS exhausted the sharded call table within {} schedules — \
         the model no longer demonstrates the reduction",
        dfs.schedules
    );
}

/// The sharded-calltable model is a faithful miniature of the runtime:
/// it shards by the runtime's own `shard_for` hash over the runtime's
/// shard count, and its steal policy produces exactly the
/// ascending parametric `shard` bridge that the lint config's declared
/// lock classes sanction — no other cross-shard nesting.
#[test]
fn sharded_model_mirrors_runtime_shard_count_and_steal_policy() {
    let explorer = Explorer::new();
    let model = models::find("sharded-calltable").expect("sharded model registered");
    let dpor = explorer.explore(&model, &Mode::Dpor { max_schedules: 2000 });
    assert!(dpor.failure.is_none(), "sharded-calltable (dpor) failed");
    assert!(dpor.exhausted, "DPOR must exhaust the sharded model");

    // Shard selection: the model routes each caller by the runtime's
    // hash over the runtime's shard count (the model's width *is*
    // `calltable::SHARDS`; this pins the policy from outside the
    // checker crate too). The hash must be a total, in-range, pure
    // function of the activity id — retransmits and duplicates land on
    // the same shard as the original.
    let shards = firefly_rpc::calltable::SHARDS;
    for thread in 0..64u16 {
        let id = firefly_wire::ActivityId::new(9, 1, thread);
        let home = firefly_rpc::calltable::shard_for(id, shards);
        assert!(home < shards, "shard_for must stay in range");
        assert_eq!(
            home,
            firefly_rpc::calltable::shard_for(id, shards),
            "shard assignment must be a pure function of the activity id"
        );
    }

    // Steal policy: the only cross-shard nesting is the victim -> thief
    // takeover bridge, and it must ascend — the exact edge shape the
    // parametric `shard` class in lint.toml declares legal, which is
    // what the lock gate holds same-class nestings to.
    let same_class: BTreeSet<(String, String)> = dpor
        .edges
        .iter()
        .filter(|(f, t)| f.starts_with("shard[") && t.starts_with("shard["))
        .cloned()
        .collect();
    assert!(
        !same_class.is_empty(),
        "model no longer exercises the parametric steal bridge"
    );
    let engine = Engine::for_root(&workspace_root());
    let found = gates::lock_edges(&engine.config.lock_order, &[], &same_class);
    assert!(found.passed(), "{:#?}", found.problems);
}

/// The activity-retention model — the server keeps the last result
/// buffer in the activity slot so a duplicate call is answered by
/// retransmission (paper §3.1.3) — must be exhausted by DPOR, and its
/// quiescent audit must balance the pool's outstanding counter against
/// slot retention in the final passing schedule: the dynamic half of
/// the pool-lifecycle accounted-retention invariant that
/// `gates::accounting` gates on.
#[test]
fn dpor_exhausts_activity_retention_and_accounting_balances() {
    let explorer = Explorer::new();
    let model = models::find("activity-retention").expect("retention model registered");
    let dpor = explorer.explore(&model, &Mode::Dpor { max_schedules: 2000 });
    assert!(
        dpor.failure.is_none(),
        "activity-retention (dpor): {}",
        dpor.failure.map(|f| f.failure.to_string()).unwrap_or_default()
    );
    assert!(
        dpor.exhausted,
        "DPOR must exhaust the retention model (explored {}, pruned {})",
        dpor.schedules, dpor.pruned
    );
    let counters: std::collections::BTreeMap<&str, u64> = dpor
        .accounting
        .iter()
        .map(|(name, value)| (name.as_str(), *value))
        .collect();
    let outstanding = counters.get("outstanding").copied();
    let retained = counters.get("retained").copied();
    assert!(
        outstanding.is_some() && retained.is_some(),
        "retention audit must report outstanding and retained: {counters:?}"
    );
    assert_eq!(
        outstanding, retained,
        "pool outstanding must equal slot retention at quiescence"
    );
}

/// The pool model is the checker's cover for the waiter gate: three
/// allocators over two buffers, each blocking for as long as it takes.
/// Both explorers must exhaust it, and — because a notify with no
/// registered waiter is not an event any more — they must be *seen* to
/// park an allocator that a later give-back then wakes (a passing
/// schedule with a park in it has exactly that: nothing else ends it).
#[test]
fn pool_model_exhausts_and_reaches_the_parked_waiter() {
    let explorer = Explorer::new();
    let model = models::find("pool").expect("pool model registered");
    for mode in [
        Mode::Dfs { max_schedules: 50_000 },
        Mode::Dpor { max_schedules: 50_000 },
    ] {
        let outcome = explorer.explore(&model, &mode);
        assert!(
            outcome.failure.is_none(),
            "pool ({mode:?}): {}",
            outcome.failure.map(|f| f.failure.to_string()).unwrap_or_default()
        );
        assert!(
            outcome.exhausted,
            "pool ({mode:?}) not exhausted in {} schedule(s)",
            outcome.schedules
        );
        assert!(
            outcome.parks > 0,
            "pool ({mode:?}): no schedule parked an allocator — the gated notify is untested"
        );
    }
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

/// Cross-validation against the static lock graph: every class-level
/// edge the checker observes dynamically must already be present in
/// `firefly-lint`'s static graph (same classified endpoints), and must
/// respect the configured rank order — the first of the four gates in
/// `firefly_check::gates` (tests/verify.rs runs all four on the full
/// smoke report; this one pins the lock gate to a plain DFS pass).
#[test]
fn observed_edges_are_a_subset_of_the_static_lock_graph() {
    let explorer = Explorer::new();
    let mut observed: BTreeSet<(String, String)> = BTreeSet::new();
    for model in models::structure_models() {
        let dfs = explorer.explore(&model, &Mode::Dfs { max_schedules: 400 });
        assert!(dfs.failure.is_none(), "{}: unexpected failure", model.name);
        observed.extend(dfs.edges);
    }
    assert!(!observed.is_empty(), "the models no longer nest any locks");

    let root = workspace_root();
    let engine = Engine::for_root(&root);
    let analysis = engine.analyze(&root).expect("walk workspace");
    let found = gates::lock_edges(&engine.config.lock_order, &analysis.lock_edges, &observed);
    assert!(found.passed(), "{:#?}", found.problems);
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

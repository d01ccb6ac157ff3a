//! A remote task queue: records, CONST bounds, checked binding and the
//! authorization gate, all in one service.
//!
//! Demonstrates the extensions this reproduction adds around the paper's
//! core: `RECORD` arguments, `CONST`-sized arrays, `bind_checked`
//! (binder-verified binding) and `CallGate` (§7's security hook).
//!
//! Run with `cargo run --example task_queue`.

#![forbid(unsafe_code)]

use firefly::idl::{parse_interface, Value};
use firefly::rpc::auth::GateFn;
use firefly::rpc::transport::UdpTransport;
use firefly::rpc::{Config, Endpoint, RpcError, ServiceBuilder};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

const IDL: &str = "
DEFINITION MODULE TaskQueue;
  CONST MaxTag = 15;
  PROCEDURE Submit(task: RECORD
      priority: INTEGER;
      retries: CARDINAL;
      tag: ARRAY [0..MaxTag] OF CHAR
  END): INTEGER;
  PROCEDURE Next(): RECORD id: INTEGER; priority: INTEGER END;
  PROCEDURE Drain(): INTEGER;
END TaskQueue.
";

#[derive(Default)]
struct Queue {
    next_id: i32,
    tasks: VecDeque<(i32, i32)>, // (id, priority)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let interface = parse_interface(IDL)?;
    let queue = Arc::new(Mutex::new(Queue::default()));

    let server = Endpoint::new(UdpTransport::localhost()?, Config::default())?;
    let service = {
        let submit_q = Arc::clone(&queue);
        let next_q = Arc::clone(&queue);
        let drain_q = Arc::clone(&queue);
        ServiceBuilder::new(interface.clone())
            .on_call("Submit", move |args, w| {
                let Some(Value::Record(fields)) = args[0].value() else {
                    return Err(RpcError::Remote("expected a task record".into()));
                };
                let priority = fields[0].as_integer().unwrap_or(0);
                let mut q = submit_q.lock().unwrap();
                q.next_id += 1;
                let id = q.next_id;
                // Highest priority first.
                let at = q.tasks.partition_point(|&(_, p)| p >= priority);
                q.tasks.insert(at, (id, priority));
                w.next_value(&Value::Integer(id))?;
                Ok(())
            })
            .on_call("Next", move |_args, w| {
                let mut q = next_q.lock().unwrap();
                let (id, priority) = q
                    .tasks
                    .pop_front()
                    .ok_or_else(|| RpcError::Remote("queue empty".into()))?;
                w.next_value(&Value::Record(vec![
                    Value::Integer(id),
                    Value::Integer(priority),
                ]))?;
                Ok(())
            })
            .on_call("Drain", move |_args, w| {
                let mut q = drain_q.lock().unwrap();
                let n = q.tasks.len() as i32;
                q.tasks.clear();
                w.next_value(&Value::Integer(n))?;
                Ok(())
            })
            .build()?
    };
    server.export(service)?;

    // The gate: only this demo's own machine may call Drain (index 2).
    let drain_index = interface.procedure("Drain")?.index();
    let queue_uid = interface.uid();
    server.set_call_gate(Some(Arc::new(GateFn(move |_caller, uid, proc_| {
        if uid == queue_uid && proc_ == drain_index {
            Err("Drain is operator-only".into())
        } else {
            Ok(())
        }
    }))));

    let caller = Endpoint::new(UdpTransport::localhost()?, Config::default())?;
    // bind_checked verifies the interface exists remotely with the same
    // signature before the first real call.
    let client = caller.bind_checked(&interface, server.address())?;

    let task = |priority: i32, tag: &str| {
        let mut tag_bytes = vec![b' '; 16];
        tag_bytes[..tag.len().min(16)].copy_from_slice(&tag.as_bytes()[..tag.len().min(16)]);
        Value::Record(vec![
            Value::Integer(priority),
            Value::Cardinal(3),
            Value::Bytes(tag_bytes),
        ])
    };

    for (p, tag) in [(1, "compact"), (9, "page-fault"), (5, "checkpoint")] {
        let r = client.call("Submit", &[task(p, tag)])?;
        println!(
            "submitted {tag} (priority {p}) -> id {:?}",
            r[0].as_integer()
        );
    }

    // Tasks come back highest-priority first.
    for _ in 0..3 {
        let r = client.call("Next", &[])?;
        let Value::Record(fields) = &r[0] else {
            unreachable!()
        };
        println!(
            "next: id {:?} priority {:?}",
            fields[0].as_integer(),
            fields[1].as_integer()
        );
    }

    // The gate blocks Drain.
    match client.call("Drain", &[]) {
        Err(RpcError::Remote(m)) => println!("Drain refused as expected: {m}"),
        other => panic!("expected refusal, got {other:?}"),
    }
    Ok(())
}

//! Remote file transfer over RPC — the workload the paper's introduction
//! motivates ("Remote file transfers as well as calls to local operating
//! systems entry points are handled via RPC").
//!
//! An in-memory file server exports Put/Get/Size; files larger than one
//! packet exercise the multi-packet (fragmented) call and result paths.
//!
//! Run with `cargo run --example file_transfer`.

#![forbid(unsafe_code)]

use firefly::idl::{parse_interface, Value};
use firefly::rpc::transport::UdpTransport;
use firefly::rpc::{Config, Endpoint, RpcError, ServiceBuilder};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// An in-memory file store shared by the service handlers.
#[derive(Default)]
struct Store {
    files: RwLock<HashMap<String, Vec<u8>>>,
}

impl Store {
    fn put(&self, name: &str, data: Vec<u8>) {
        self.files.write().unwrap().insert(name.to_string(), data);
    }

    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.files.read().unwrap().get(name).cloned()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let interface = parse_interface(
        "DEFINITION MODULE FileStore;
           PROCEDURE Put(name: Text.T; VAR IN data: ARRAY OF CHAR);
           PROCEDURE Size(name: Text.T): INTEGER;
           PROCEDURE Get(name: Text.T; VAR OUT data: ARRAY OF CHAR);
         END FileStore.",
    )?;

    let store = Arc::new(Store::default());
    let server = Endpoint::new(UdpTransport::localhost()?, Config::default())?;
    let service = {
        let put_store = Arc::clone(&store);
        let size_store = Arc::clone(&store);
        let get_store = Arc::clone(&store);
        ServiceBuilder::new(interface.clone())
            .on_call("Put", move |args, _results| {
                let name = args[0].value().and_then(|v| v.as_text()).unwrap_or("");
                let data = args[1].bytes().expect("VAR IN");
                put_store.put(name, data.to_vec());
                Ok(())
            })
            .on_call("Size", move |args, results| {
                let name = args[0].value().and_then(|v| v.as_text()).unwrap_or("");
                let len = size_store.get(name).map(|d| d.len()).unwrap_or(0);
                results.next_value(&Value::Integer(len as i32))?;
                Ok(())
            })
            .on_call("Get", move |args, results| {
                let name = args[0].value().and_then(|v| v.as_text()).unwrap_or("");
                let data = get_store
                    .get(name)
                    .ok_or_else(|| RpcError::Remote(format!("no such file `{name}`")))?;
                results.next_bytes(data.len())?.copy_from_slice(&data);
                Ok(())
            })
            .build()?
    };
    server.export(service)?;

    let caller = Endpoint::new(UdpTransport::localhost()?, Config::default())?;
    let client = caller.bind(&interface, server.address())?;

    // A small file (single packet) and a large one (fragmented).
    let small: Vec<u8> = b"a small configuration file".to_vec();
    let large: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();

    for (name, data) in [("small.cfg", &small), ("large.bin", &large)] {
        client.call("Put", &[Value::text(name), Value::Bytes(data.clone())])?;
        let size = client.call("Size", &[Value::text(name)])?;
        println!("{name}: stored {} bytes", size[0].as_integer().unwrap());
        let back = client.call("Get", &[Value::text(name), Value::Bytes(Vec::new())])?;
        assert_eq!(back[0].as_bytes().unwrap(), &data[..], "{name} round trip");
        println!("{name}: round trip verified");
    }

    // A missing file produces a remote error, not a hang.
    match client.call("Get", &[Value::text("ghost"), Value::Bytes(Vec::new())]) {
        Err(RpcError::Remote(m)) => println!("expected error: {m}"),
        other => panic!("unexpected: {other:?}"),
    }

    println!(
        "fragments sent: caller {}, server {}",
        caller.stats().fragments_sent(),
        server.stats().fragments_sent()
    );
    Ok(())
}

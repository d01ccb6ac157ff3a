//! Quickstart: define an interface in Modula-2+ IDL, export it from a
//! server endpoint, bind a client over real UDP, and make calls.
//!
//! Run with `cargo run --example quickstart`.

#![forbid(unsafe_code)]

use firefly::idl::{parse_interface, Value};
use firefly::rpc::transport::UdpTransport;
use firefly::rpc::{Config, Endpoint, ServiceBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The interface definition — the same language the Firefly stub
    //    compiler consumed.
    let interface = parse_interface(
        "DEFINITION MODULE Greeter;
           PROCEDURE Hello(name: Text.T): INTEGER;
           PROCEDURE Shout(VAR IN text: ARRAY OF CHAR; VAR OUT loud: ARRAY OF CHAR);
         END Greeter.",
    )?;

    // 2. A server endpoint on a real UDP socket, exporting the service.
    let server = Endpoint::new(UdpTransport::localhost()?, Config::default())?;
    let service = ServiceBuilder::new(interface.clone())
        .on_call("Hello", |args, results| {
            let name = args[0].value().and_then(|v| v.as_text()).unwrap_or("world");
            println!("server: Hello({name})");
            results.next_value(&Value::Integer(name.len() as i32))?;
            Ok(())
        })
        .on_call("Shout", |args, results| {
            // VAR IN arrives as a slice into the call packet (zero copy);
            // VAR OUT is written straight into the result packet.
            let text = args[0].bytes().expect("VAR IN in place");
            let out = results.next_bytes(text.len())?;
            for (o, i) in out.iter_mut().zip(text) {
                *o = i.to_ascii_uppercase();
            }
            Ok(())
        })
        .build()?;
    server.export(service)?;
    println!("server listening on {}", server.address());

    // 3. A caller endpoint binds the interface at the server's address.
    let caller = Endpoint::new(UdpTransport::localhost()?, Config::default())?;
    let client = caller.bind(&interface, server.address())?;

    // 4. Calls look up procedures by name and pass dynamic values.
    let r = client.call("Hello", &[Value::text("Firefly")])?;
    println!("Hello returned {:?}", r[0].as_integer());

    let r = client.call(
        "Shout",
        &[
            Value::Bytes(b"remote procedure call".to_vec()),
            Value::Bytes(Vec::new()), // Placeholder for the VAR OUT arg.
        ],
    )?;
    println!(
        "Shout returned {:?}",
        String::from_utf8_lossy(r[0].as_bytes().unwrap())
    );

    println!(
        "caller stats: {} calls, {} retransmissions",
        caller.stats().calls_completed(),
        caller.stats().retransmissions()
    );
    Ok(())
}

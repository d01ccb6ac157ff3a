//! `firefly-rpcd`: serve or call any Modula-2+ interface over UDP from
//! the command line.
//!
//! ```text
//! firefly-rpcd info  <idl-file> [--stubs]
//! firefly-rpcd serve <idl-file> [--addr 127.0.0.1:0] [--trace]
//! firefly-rpcd call  <idl-file> <server-addr> <procedure> [arg]...
//! ```
//!
//! `serve` exports the interface with echo handlers: every result-
//! direction value is defaulted, except that CHAR-array outputs echo the
//! first CHAR-array input when there is one. `call` parses positional
//! arguments according to the procedure's declared call-direction
//! parameter types (`VAR OUT` parameters take no argument).

#![forbid(unsafe_code)]

use firefly_idl::ast::{Mode, TypeExpr};
use firefly_idl::{parse_interface, InterfaceDef, Value};
use firefly_metrics::table::fnum;
use firefly_rpc::trace::{step_table, TraceReport};
use firefly_rpc::transport::UdpTransport;
use firefly_rpc::{Config, Endpoint, ServiceBuilder};
use std::net::SocketAddr;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage:\n  firefly-rpcd info  <idl-file> [--stubs]\n  \
         firefly-rpcd serve <idl-file> [--addr HOST:PORT] [--trace]\n  \
         firefly-rpcd call  <idl-file> <server-addr> <procedure> [arg]..."
    );
    exit(2);
}

fn load_interface(path: &str) -> InterfaceDef {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    parse_interface(&src).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        exit(1);
    })
}

/// A neutral value of the given type (for echoed/defaulted results).
fn default_value(ty: &TypeExpr) -> Value {
    match ty {
        TypeExpr::Integer => Value::Integer(0),
        TypeExpr::Cardinal => Value::Cardinal(0),
        TypeExpr::Char => Value::Char(0),
        TypeExpr::Boolean => Value::Boolean(false),
        TypeExpr::Real => Value::Real(0.0),
        TypeExpr::Text => Value::Text(None),
        TypeExpr::FixedArray { len, elem } if **elem == TypeExpr::Char => {
            Value::Bytes(vec![0; *len])
        }
        TypeExpr::FixedArray { len, elem } => {
            Value::Array((0..*len).map(|_| default_value(elem)).collect())
        }
        TypeExpr::OpenArray { elem } if **elem == TypeExpr::Char => Value::Bytes(Vec::new()),
        TypeExpr::OpenArray { .. } => Value::Array(Vec::new()),
        TypeExpr::Record { fields } => {
            Value::Record(fields.iter().map(|(_, t)| default_value(t)).collect())
        }
    }
}

/// Parses one CLI argument according to its declared type.
fn parse_arg(ty: &TypeExpr, text: &str) -> Result<Value, String> {
    match ty {
        TypeExpr::Integer => text
            .parse()
            .map(Value::Integer)
            .map_err(|e| format!("INTEGER: {e}")),
        TypeExpr::Cardinal => text
            .parse()
            .map(Value::Cardinal)
            .map_err(|e| format!("CARDINAL: {e}")),
        TypeExpr::Char => text
            .bytes()
            .next()
            .map(Value::Char)
            .ok_or_else(|| "CHAR: empty".into()),
        TypeExpr::Boolean => match text {
            "true" | "TRUE" | "1" => Ok(Value::Boolean(true)),
            "false" | "FALSE" | "0" => Ok(Value::Boolean(false)),
            other => Err(format!("BOOLEAN: `{other}`")),
        },
        TypeExpr::Real => text
            .parse()
            .map(Value::Real)
            .map_err(|e| format!("REAL: {e}")),
        TypeExpr::Text => Ok(if text == "NIL" {
            Value::Text(None)
        } else {
            Value::text(text)
        }),
        TypeExpr::FixedArray { elem, len } if **elem == TypeExpr::Char => {
            let mut bytes = text.as_bytes().to_vec();
            bytes.resize(*len, b' ');
            Ok(Value::Bytes(bytes))
        }
        TypeExpr::OpenArray { elem } if **elem == TypeExpr::Char => {
            Ok(Value::Bytes(text.as_bytes().to_vec()))
        }
        other => Err(format!("cannot parse `{}` from the CLI", other.to_modula())),
    }
}

fn render(v: &Value) -> String {
    match v {
        Value::Bytes(b) => match std::str::from_utf8(b) {
            Ok(s) => format!("{s:?} ({} bytes)", b.len()),
            Err(_) => format!("{} raw bytes", b.len()),
        },
        Value::Text(Some(t)) => format!("{t:?}"),
        Value::Text(None) => "NIL".into(),
        other => format!("{other:?}"),
    }
}

fn cmd_info(interface: &InterfaceDef, stubs: bool) {
    println!(
        "interface {} (uid {:#018x}, version {})",
        interface.name(),
        interface.uid(),
        interface.version()
    );
    for p in interface.procedures() {
        println!("  [{}] {}", p.index(), p.to_modula());
    }
    if stubs {
        println!("\n--- generated Rust stubs ---\n");
        println!("{}", firefly_idl::codegen::rust_stubs(interface));
    }
}

fn cmd_serve(interface: InterfaceDef, addr: SocketAddr, trace: bool) {
    let transport = UdpTransport::bind(addr).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        exit(1);
    });
    let config = Config {
        trace,
        ..Config::default()
    };
    let endpoint = Endpoint::new(transport, config).expect("endpoint");
    let mut builder = ServiceBuilder::new(interface.clone());
    for p in interface.procedures() {
        let name = p.name().to_string();
        let params: Vec<(Mode, TypeExpr)> = p
            .params()
            .iter()
            .map(|prm| (prm.mode, prm.ty.clone()))
            .collect();
        let result_ty = p.result().cloned();
        builder = builder.on_call(p.name(), move |args, w| {
            // Echo policy: CHAR-array outputs copy the first CHAR-array
            // input; everything else gets a default.
            let echo: Option<Vec<u8>> = args.iter().find_map(|a| a.bytes().map(<[u8]>::to_vec));
            eprintln!("serving {name}({} args)", args.len());
            for (mode, ty) in &params {
                if !matches!(mode, Mode::VarOut | Mode::VarInOut) {
                    continue;
                }
                let is_char_array = matches!(
                    ty,
                    TypeExpr::OpenArray { elem } | TypeExpr::FixedArray { elem, .. }
                        if **elem == TypeExpr::Char
                );
                if is_char_array {
                    if let (Some(bytes), TypeExpr::OpenArray { .. }) = (&echo, ty) {
                        w.next_bytes(bytes.len())?.copy_from_slice(bytes);
                        continue;
                    }
                }
                w.next_value(&default_value(ty))?;
            }
            if let Some(rt) = &result_ty {
                w.next_value(&default_value(rt))?;
            }
            Ok(())
        });
    }
    let service = builder.build().expect("handlers cover every procedure");
    endpoint.export(service).expect("export");
    println!(
        "serving {} on {}{} (ctrl-c to stop)",
        interface.name(),
        endpoint.address(),
        if trace { " [tracing]" } else { "" }
    );
    if trace {
        // Stop on stdin EOF (pipe closed) or a lone "q" line, then
        // print the merged per-step histogram table for the whole
        // serve lifetime — the server's own Table VII.
        let stop = Arc::new(AtomicBool::new(false));
        spawn_stdin_watcher(Arc::clone(&stop));
        let mut total = TraceReport::empty();
        loop {
            std::thread::park_timeout(std::time::Duration::from_secs(10));
            // Drain before checking the flag so records that landed
            // just ahead of shutdown make the final table.
            let report = endpoint.trace_report();
            total.merge(&report);
            if stop.load(Ordering::Acquire) {
                break;
            }
            if report.server.records == 0 {
                continue;
            }
            // Periodic view: this drain interval only, raw means.
            println!("--- trace: {} server calls ---", report.server.records);
            for (name, h) in &report.server.steps {
                println!(
                    "  {name:<34} mean {:8.2} us  p50 {:8.2}  p99 {:8.2}",
                    h.mean(),
                    h.percentile(50.0),
                    h.percentile(99.0)
                );
            }
            if report.dropped > 0 {
                println!("  ({} records dropped by the ring)", report.dropped);
            }
        }
        print_final_report(&total);
        return;
    }
    loop {
        // Serving happens on the endpoint's own threads; this thread
        // only has to stay alive. `park` needs no wakeup schedule
        // (spurious unparks just loop) and burns nothing while waiting.
        std::thread::park();
    }
}

/// Watches stdin from a helper thread; EOF or a lone `q` sets `stop`
/// and unparks the serve loop.
fn spawn_stdin_watcher(stop: Arc<AtomicBool>) {
    let serve_thread = std::thread::current();
    std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::stdin().read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) if line.trim() == "q" => break,
                Ok(_) => {}
            }
        }
        stop.store(true, Ordering::Release);
        serve_thread.unpark();
    });
}

/// The shutdown report: every step's latency histogram, merged over
/// the entire serve lifetime.
fn print_final_report(total: &TraceReport) {
    if total.server.records == 0 && total.caller.records == 0 {
        println!("shutting down: no traced calls");
        return;
    }
    for (role, what) in [
        (&total.server, "server calls"),
        (&total.caller, "caller records"),
    ] {
        if role.records > 0 {
            let title = format!("Shutdown trace report: {} {what}", role.records);
            let mut t = step_table(&title, "Step", role);
            t.row(&["TOTAL (step sum)", &fnum(role.accounted_mean_us(), 2)]);
            print!("{t}");
        }
    }
    if total.dropped > 0 {
        println!("({} records dropped by the ring)", total.dropped);
    }
}

fn cmd_call(interface: InterfaceDef, addr: SocketAddr, proc_name: &str, raw_args: &[String]) {
    let p = interface.procedure(proc_name).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1);
    });
    // Assemble the full argument vector: CLI args fill call-direction
    // parameters in order; VAR OUT gets placeholders.
    let mut args = Vec::new();
    let mut cli = raw_args.iter();
    for prm in p.params() {
        match prm.mode {
            Mode::VarOut => args.push(default_value(&prm.ty)),
            _ => {
                let Some(text) = cli.next() else {
                    eprintln!(
                        "missing argument for `{}: {}`",
                        prm.name,
                        prm.ty.to_modula()
                    );
                    exit(1);
                };
                match parse_arg(&prm.ty, text) {
                    Ok(v) => args.push(v),
                    Err(e) => {
                        eprintln!("argument `{}`: {e}", prm.name);
                        exit(1);
                    }
                }
            }
        }
    }
    let caller = Endpoint::new(
        UdpTransport::localhost().expect("socket"),
        Config::default(),
    )
    .expect("endpoint");
    let client = caller.bind(&interface, addr).expect("bind");
    match client.call(proc_name, &args) {
        Ok(results) => {
            if results.is_empty() {
                println!("ok (no results)");
            }
            for (i, r) in results.iter().enumerate() {
                println!("result[{i}] = {}", render(r));
            }
        }
        Err(e) => {
            eprintln!("call failed: {e}");
            exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("info") => {
            let Some(path) = args.get(1) else { usage() };
            cmd_info(&load_interface(path), args.iter().any(|a| a == "--stubs"));
        }
        Some("serve") => {
            let Some(path) = args.get(1) else { usage() };
            let addr: SocketAddr = args
                .iter()
                .position(|a| a == "--addr")
                .and_then(|i| args.get(i + 1))
                .map(|s| s.parse().unwrap_or_else(|_| usage()))
                .unwrap_or_else(|| "127.0.0.1:0".parse().expect("literal"));
            cmd_serve(load_interface(path), addr, args.iter().any(|a| a == "--trace"));
        }
        Some("call") => {
            if args.len() < 4 {
                usage();
            }
            let interface = load_interface(&args[1]);
            let addr: SocketAddr = args[2].parse().unwrap_or_else(|_| usage());
            cmd_call(interface, addr, &args[3], &args[4..]);
        }
        _ => usage(),
    }
}

//! Table II: marshalling time for 4-byte integers passed by value —
//! 8 µs per argument on the MicroVAX II; plus the same experiment run on
//! the real Rust stubs (nanoseconds today, but the same per-argument
//! linearity), three ways: typed, dynamic, interpreted.

use crate::{emit, Args, StubTimes};
use firefly_idl::{parse_interface, ArgReader, ArgWriter, Value};
use firefly_metrics::Table;

/// Marshal + unmarshal time per call for `n` integer arguments.
fn measure_real(n: usize) -> StubTimes {
    let params = (0..n)
        .map(|i| format!("a{i}: INTEGER"))
        .collect::<Vec<_>>()
        .join("; ");
    let src = format!("DEFINITION MODULE M; PROCEDURE P({params}); END M.");
    let iface = parse_interface(&src).unwrap();
    let args: Vec<Value> = (0..n).map(|i| Value::Integer(i as i32)).collect();
    StubTimes::measure(
        iface.procedure("P").unwrap(),
        200_000,
        64.max(4 * n),
        |buf| {
            // What a generated stub does: one assignment per argument.
            let mut w = ArgWriter::new(buf);
            for i in 0..n {
                w.put_i32(std::hint::black_box(i as i32)).unwrap();
            }
            let len = w.written();
            let mut r = ArgReader::new(&buf[..len]);
            for _ in 0..n {
                std::hint::black_box(r.i32().unwrap());
            }
        },
        |stub, buf| {
            let len = stub.marshal_call(&args, buf).unwrap();
            std::hint::black_box(stub.unmarshal_call(&buf[..len]).unwrap());
        },
    )
}

pub fn main(args: &Args) {
    let mut columns = vec!["# of arguments", "paper µs (MicroVAX II)", "model µs"];
    columns.extend(StubTimes::COLUMNS);
    let mut t = Table::new(&columns).title("Table II: 4-byte integer arguments, passed by value");

    let zero = measure_real(0);
    for (n, paper) in [(1usize, 8.0), (2, 16.0), (4, 32.0)] {
        let model = firefly_idl::cost::int_by_value_micros(n);
        let mut row = vec![n.to_string(), format!("{paper:.0}"), format!("{model:.0}")];
        row.extend(measure_real(n).over(&zero).cells());
        t.row_owned(row);
    }
    emit(&t, args.mode);
    println!(
        "(ns columns are this machine's stubs, incremental over a 0-argument call as in the paper)"
    );
}

//! Table III: marshalling time for fixed-length CHAR arrays passed by
//! VAR OUT — 20 µs @ 4 bytes, 140 µs @ 400 bytes.

use crate::{emit, Args, StubTimes};
use firefly_idl::{parse_interface, ArgReader, ArgWriter, Value};
use firefly_metrics::Table;

fn measure_real(len: usize) -> StubTimes {
    let iface = parse_interface(&format!(
        "DEFINITION MODULE M; PROCEDURE P(VAR OUT b: ARRAY [0..{}] OF CHAR); END M.",
        len - 1
    ))
    .unwrap();
    let array = vec![7u8; len];
    let out = vec![Value::Bytes(array.clone())];
    // The caller's variable: the one copy of a VAR OUT array is into it.
    let mut variable = vec![0u8; len];
    StubTimes::measure(
        &iface,
        "P",
        100_000,
        len + 16,
        |buf| {
            let mut w = ArgWriter::new(buf);
            w.put_bytes(std::hint::black_box(&array)).unwrap();
            let n = w.written();
            let mut r = ArgReader::new(&buf[..n]);
            variable.copy_from_slice(r.bytes(len).unwrap());
            std::hint::black_box(&variable);
        },
        |stub, buf| {
            let n = stub.marshal_result(&out, buf).unwrap();
            std::hint::black_box(stub.unmarshal_result(&buf[..n]).unwrap());
        },
    )
}

pub fn main(args: &Args) {
    let mut columns = vec!["Array size (bytes)", "paper µs", "model µs"];
    columns.extend(StubTimes::COLUMNS);
    let mut t = Table::new(&columns).title("Table III: fixed length array, passed by VAR OUT");
    for (len, paper) in [(4usize, 20.0), (400, 140.0)] {
        let model = firefly_idl::cost::fixed_array_micros(len);
        let mut row = vec![
            len.to_string(),
            format!("{paper:.0}"),
            format!("{model:.0}"),
        ];
        row.extend(measure_real(len).cells());
        t.row_owned(row);
    }
    emit(&t, args.mode);
}

//! Table IV: marshalling time for open (variable-length) CHAR arrays
//! passed by VAR OUT — 115 µs @ 1 byte, 550 µs @ 1440 bytes. The 1440
//! value is the 550 µs charged to `MaxResult(b)` in Table VIII.

use crate::{emit, Args, StubTimes};
use firefly_idl::{parse_interface, ArgReader, ArgWriter, Value};
use firefly_metrics::Table;

fn measure_real(len: usize) -> StubTimes {
    let iface =
        parse_interface("DEFINITION MODULE M; PROCEDURE P(VAR OUT b: ARRAY OF CHAR); END M.")
            .unwrap();
    let array = vec![7u8; len];
    let out = vec![Value::Bytes(array.clone())];
    // The caller's variable: the one copy of a VAR OUT array is into it.
    let mut variable = vec![0u8; len];
    StubTimes::measure(
        iface.procedure("P").unwrap(),
        100_000,
        len + 16,
        |buf| {
            let mut w = ArgWriter::new(buf);
            w.put_bytes(std::hint::black_box(&array)).unwrap();
            let n = w.written();
            let mut r = ArgReader::new(&buf[..n]);
            variable.copy_from_slice(r.rest());
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
    let mut t = Table::new(&columns).title("Table IV: variable length array, passed by VAR OUT");
    for (len, paper) in [(1usize, 115.0), (1440, 550.0)] {
        let model = firefly_idl::cost::open_array_micros(len);
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

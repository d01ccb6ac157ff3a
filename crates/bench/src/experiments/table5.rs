//! Table V: marshalling time for `Text.T` arguments — 89 µs NIL, 378 µs
//! @ 1 byte, 659 µs @ 128 bytes. "Most of the time … is spent in the Text
//! library procedures": the dominant cost is the server-side allocation
//! of a fresh immutable text, which the engines reproduce with a fresh
//! `Arc<str>` per call; a typed stub reads the text in place instead.

use crate::{emit, Args, StubTimes};
use firefly_idl::{parse_interface, ArgReader, ArgWriter, Value};
use firefly_metrics::Table;

fn measure_real(v: &Value) -> StubTimes {
    let iface = parse_interface("DEFINITION MODULE M; PROCEDURE P(t: Text.T); END M.").unwrap();
    let args = vec![v.clone()];
    StubTimes::measure(
        iface.procedure("P").unwrap(),
        100_000,
        512,
        |buf| {
            let mut w = ArgWriter::new(buf);
            w.put_text(std::hint::black_box(v.as_text())).unwrap();
            let n = w.written();
            std::hint::black_box(ArgReader::new(&buf[..n]).text().unwrap());
        },
        |stub, buf| {
            let n = stub.marshal_call(&args, buf).unwrap();
            // The server-side unmarshal performs the Text.T allocation.
            std::hint::black_box(stub.unmarshal_call(&buf[..n]).unwrap());
        },
    )
}

pub fn main(args: &Args) {
    let mut columns = vec!["Text size", "paper µs", "model µs"];
    columns.extend(StubTimes::COLUMNS);
    let mut t = Table::new(&columns).title("Table V: Text.T argument");
    let cases: [(&str, Option<usize>, Value); 3] = [
        ("NIL", None, Value::nil_text()),
        ("1", Some(1), Value::text("x")),
        ("128", Some(128), Value::text(&"y".repeat(128))),
    ];
    for (label, len, value) in cases {
        let paper = firefly_idl::cost::text_micros(len);
        let mut row = vec![
            label.to_string(),
            format!("{paper:.0}"),
            format!("{paper:.0}"),
        ];
        row.extend(measure_real(&value).cells());
        t.row_owned(row);
    }
    emit(&t, args.mode);
}

//! Table VIII: composing Tables VI + VII (+ marshalling) into end-to-end
//! latency, and checking the composition against the simulator's measured
//! end-to-end time — the paper's "accounted … to within about 5%".

use crate::{emit, Args};
use firefly_metrics::Table;
use firefly_sim::workload::{run, Procedure, WorkloadSpec};
use firefly_sim::CostModel;

fn simulate(p: Procedure) -> f64 {
    let r = run(&WorkloadSpec {
        threads: 1,
        calls: 200,
        procedure: p,
        background: false,
        ..WorkloadSpec::default()
    });
    r.mean_latency_us
}

pub fn main(args: &Args) {
    let m = CostModel::paper();

    let mut t = Table::new(&["Procedure", "Action", "Microseconds"])
        .title("Table VIII: Calculation of latency for RPC to Null() and MaxResult(b)");
    t.row(&["Null()", "Caller, server, stubs and RPC runtime", "606"]);
    t.row_owned(vec![
        "".into(),
        "Send+receive 74-byte call packet".into(),
        format!("{:.0}", m.send_receive_total(74)),
    ]);
    t.row_owned(vec![
        "".into(),
        "Send+receive 74-byte result packet".into(),
        format!("{:.0}", m.send_receive_total(74)),
    ]);
    t.row_owned(vec![
        "".into(),
        "TOTAL (paper: 2514)".into(),
        format!("{:.0}", m.null_composed()),
    ]);
    t.row(&[
        "MaxResult(b)",
        "Caller, server, stubs and RPC runtime",
        "606",
    ]);
    t.row(&["", "Marshall a 1440-byte VAR OUT result", "550"]);
    t.row_owned(vec![
        "".into(),
        "Send+receive 74-byte call packet".into(),
        format!("{:.0}", m.send_receive_total(74)),
    ]);
    t.row_owned(vec![
        "".into(),
        "Send+receive 1514-byte result packet".into(),
        format!("{:.0}", m.send_receive_total(1514)),
    ]);
    t.row_owned(vec![
        "".into(),
        "TOTAL (paper: 6524)".into(),
        format!("{:.0}", m.max_result_composed()),
    ]);
    emit(&t, args.mode);

    // The 5% account check against the simulated "measured" latency.
    let null_measured = simulate(Procedure::Null);
    let max_measured = simulate(Procedure::MaxResult);
    let mut c = Table::new(&["Procedure", "accounted µs", "measured µs", "gap"])
        .title("Account vs measured (paper: within ~5%; gaps of -131/+177 µs)");
    for (name, accounted, measured, paper_measured) in [
        ("Null()", m.null_composed(), null_measured, 2645.0),
        (
            "MaxResult(b)",
            m.max_result_composed(),
            max_measured,
            6347.0,
        ),
    ] {
        let gap = (measured - accounted) / accounted * 100.0;
        c.row_owned(vec![
            name.to_string(),
            format!("{accounted:.0}"),
            format!("{measured:.0} (paper best: {paper_measured:.0})"),
            format!("{gap:+.1}%"),
        ]);
        // The paper's own Null gap is 131/2514 = 5.2% ("within about 5%");
        // we carry the same residual explicitly, so allow ≤6%.
        assert!(gap.abs() < 6.0, "account off by more than ~5%");
    }
    emit(&c, args.mode);
    println!("Both gaps are within the paper's \"within about 5%\" accounting claim.");
}

//! §4.2: the eight speculated improvements, reproduced two ways — by the
//! paper's own arithmetic over the cost model, and by actually running
//! the simulator with the modified parameters.

use crate::{emit, paper_num, Args, IMPROVEMENTS};
use firefly_metrics::Table;
use firefly_sim::workload::{run, Procedure, WorkloadSpec};
use firefly_sim::{CostModel, Improvement};

fn simulate(cost: CostModel, p: Procedure) -> f64 {
    run(&WorkloadSpec {
        threads: 1,
        calls: 300,
        procedure: p,
        cost,
        background: false,
        ..WorkloadSpec::default()
    })
    .mean_latency_us
}

pub fn main(args: &Args) {
    let improvements = [
        Improvement::BetterController,
        Improvement::FasterNetwork,
        Improvement::FasterCpus,
        Improvement::OmitChecksums,
        Improvement::RedesignProtocol,
        Improvement::OmitIpUdp,
        Improvement::BusyWait,
        Improvement::RecodeRuntime,
    ];

    let base_null = simulate(CostModel::paper(), Procedure::Null);
    let base_max = simulate(CostModel::paper(), Procedure::MaxResult);
    let model = CostModel::paper();

    let mut t = Table::new(&[
        "Improvement",
        "Null µs saved (paper)",
        "Null % (paper)",
        "MaxResult µs saved (paper)",
        "MaxResult % (paper)",
    ])
    .title("Section 4.2: Speculations on future improvements (simulated vs paper)");

    for (imp, &(name, p_null_us, p_null_pct, p_max_us, p_max_pct)) in
        improvements.iter().zip(IMPROVEMENTS)
    {
        let cost = CostModel::with_improvement(*imp);
        let null_saved = base_null - simulate(cost.clone(), Procedure::Null);
        let max_saved = base_max - simulate(cost, Procedure::MaxResult);
        let null_pct = null_saved / base_null * 100.0;
        let max_pct = max_saved / base_max * 100.0;
        // paper_num renders unstated (NAN-marked) published values as
        // "n/s" instead of the literal "NaN".
        t.row_owned(vec![
            name.into(),
            format!("{null_saved:.0} ({})", paper_num(p_null_us, 0)),
            format!("{null_pct:.0} ({})", paper_num(p_null_pct, 0)),
            format!("{max_saved:.0} ({})", paper_num(p_max_us, 0)),
            format!("{max_pct:.0} ({})", paper_num(p_max_pct, 0)),
        ]);
    }
    emit(&t, args.mode);

    // The cost-model arithmetic (the paper's own derivation), which the
    // crate's unit tests pin to the published numbers.
    println!(
        "Cost-model composition: Null {} µs, MaxResult {} µs (paper: 2514 / 6524).",
        model.null_composed(),
        model.max_result_composed()
    );
    println!(
        "Note (paper): \"the effects discussed are not always independent, so \
         the performance improvement figures cannot always be added.\""
    );
}

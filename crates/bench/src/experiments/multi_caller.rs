//! Beyond the paper's testbed: several caller machines against one
//! server, testing §7's prediction that "the throughput of several RPC
//! implementations (including ours) appears limited by the network
//! controller hardware".
//!
//! With the stock DEQNA model, aggregate MaxResult throughput pins at the
//! server controller's limit no matter how many machines offer load. The
//! §4.2.1 improved controller shifts the bottleneck toward the wire.

use crate::{emit, Args};
use firefly_metrics::Table;
use firefly_sim::multi::{run_multi, MultiSpec};
use firefly_sim::rpc::Procedure;
use firefly_sim::{CostModel, Improvement};

pub fn main(args: &Args) {
    let mut t = Table::new(&[
        "caller machines",
        "stock: Mb/s (srv ctrl / ether util)",
        "better ctrl: Mb/s (srv ctrl / ether util)",
    ])
    .title("Multi-caller saturation: one server, N caller machines, MaxResult(b)");
    for machines in [1usize, 2, 3, 4] {
        let stock = run_multi(&MultiSpec {
            caller_machines: machines,
            threads_per_machine: 4,
            calls: 2000,
            procedure: Procedure::MaxResult,
            cost: CostModel::paper(),
        });
        let better = run_multi(&MultiSpec {
            caller_machines: machines,
            threads_per_machine: 4,
            calls: 2000,
            procedure: Procedure::MaxResult,
            cost: CostModel::with_improvement(Improvement::BetterController),
        });
        t.row_owned(vec![
            machines.to_string(),
            format!(
                "{:.2} ({:.0}% / {:.0}%)",
                stock.megabits_per_sec,
                stock.server_controller_util * 100.0,
                stock.ether_util * 100.0
            ),
            format!(
                "{:.2} ({:.0}% / {:.0}%)",
                better.megabits_per_sec,
                better.server_controller_util * 100.0,
                better.ether_util * 100.0
            ),
        ]);
    }
    emit(&t, args.mode);
    println!(
        "Stock: the server's DEQNA saturates (~100% busy) at the same \
         ~4.6 Mb/s whether one or four machines offer load — §7's claim. \
         With §4.2.1's overlapped controller the Ethernet becomes the \
         next constraint."
    );
}

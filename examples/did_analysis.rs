//! Dynamic-instruction-distance analysis: reproduces the paper's §3.3
//! worked example (Figure 3.2, Table 3.2) and then the full-suite DID
//! statistics (Figures 3.3–3.5).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example did_analysis
//! ```

use fetchvp_dfg::DataflowGraph;
use fetchvp_experiments::{fig3_3, fig3_4, fig3_5, table3_2, ExperimentConfig, Sweep};
use fetchvp_trace::trace_program;

fn main() {
    // -- The Figure 3.2 example graph and its Table 3.2 pipeline schedule --
    let program = table3_2::figure_3_2_program();
    let trace = trace_program(&program, 100);
    let dfg = DataflowGraph::build(&trace);
    println!("{dfg}");
    println!(
        "average DID of the example: {:.2} (the paper's graph: arcs of DID 1,1,1,2,4,4)\n",
        dfg.avg_did()
    );
    println!("{}", table3_2::run().to_table());

    // -- Full-suite DID statistics over the synthetic benchmarks --
    // One sweep: the three figures share each benchmark's trace.
    let sweep =
        Sweep::serial(&ExperimentConfig { trace_len: 100_000, ..ExperimentConfig::default() });

    let f33 = fig3_3::run_with(&sweep);
    println!("{}", f33.to_table());
    println!(
        "every benchmark's average DID exceeds a 4-wide fetch: {}\n",
        f33.rows.iter().all(|(_, d)| *d > 4.0)
    );

    let f34 = fig3_4::run_with(&sweep);
    println!("{}", f34.to_table());
    println!(
        "average fraction of dependencies with DID >= 4: {:.0}% (paper: ~60%)\n",
        100.0 * f34.average_long_fraction()
    );

    let f35 = fig3_5::run_with(&sweep);
    println!("{}", f35.to_table());
    println!(
        "average predictable-and-short fraction: {:.0}% (paper: ~23%)",
        100.0 * f35.average_predictable_short()
    );
}

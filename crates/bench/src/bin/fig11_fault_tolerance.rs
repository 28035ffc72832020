//! Figure 11 — robustness against faulty links (lost messages).
//!
//! Example graph, Δ = 0.1, priors at 0.8, feedback f1⁺, f2⁻, f3⁻; the periodic schedule
//! runs over the simulated transport, which delivers every remote message independently
//! with probability P(send). Each P(send) runs 2,000 rounds and reports the round after
//! which no posterior moves 1e-4 or more from its final value again.

use pdms_bench::{print_header, print_kv, print_table, Series};
use pdms_workloads::scenarios::figure11_fault_tolerance;

fn main() {
    let probabilities = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1];
    let result = figure11_fault_tolerance(&probabilities, 0.8, 0.1);
    print_header(
        "Figure 11",
        "Robustness against faulty links (lost messages)",
        "example graph, priors = 0.8, delta = 0.1, P(send) from 1.0 down to 0.1",
    );
    let series: Vec<Series> = result
        .series
        .iter()
        .map(|(label, points)| Series::new(label.clone(), points.clone()))
        .collect();
    print_table("P(send)", &series);
    for (label, value) in &result.notes {
        print_kv(label, value);
    }
    println!();
    println!(
        "Expected shape (paper): the algorithm always converges, even when 90% of the\n\
         messages are discarded; the number of iterations grows roughly linearly with\n\
         the rate of discarded messages, and the fixpoint itself barely moves."
    );
}

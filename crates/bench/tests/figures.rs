//! The figure binaries print the same bytes as the committed reference outputs.
//!
//! `data/<binary>.txt` holds each binary's stdout. Every binary listed here is
//! deterministic: fixed seeds, no timings. `exa_dynamics` prints timings and is left
//! out. To refresh a reference after an intended change, run
//! `cargo run -q -p pdms-bench --bin <binary> > crates/bench/tests/data/<binary>.txt`
//! and explain the difference in the change description.

use std::process::Command;

fn assert_prints_reference(binary: &str, path: &str, expected: &str) {
    let output = Command::new(path)
        .output()
        .unwrap_or_else(|e| panic!("{binary}: cannot start {path}: {e}"));
    assert!(
        output.status.success(),
        "{binary} exited with {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    assert!(
        stdout == expected,
        "{binary}: stdout differs from tests/data/{binary}.txt\n--- got ---\n{stdout}"
    );
}

macro_rules! figure_tests {
    ($($test:ident => $binary:literal,)*) => {$(
        #[test]
        fn $test() {
            assert_prints_reference(
                $binary,
                env!(concat!("CARGO_BIN_EXE_", $binary)),
                include_str!(concat!("data/", $binary, ".txt")),
            );
        }
    )*};
}

figure_tests! {
    figure7_convergence => "fig07_convergence",
    figure9_relative_error => "fig09_relative_error",
    figure10_cycle_length => "fig10_cycle_length",
    figure11_fault_tolerance => "fig11_fault_tolerance",
    figure12_precision => "fig12_precision",
    intro_example => "exa_intro_example",
    communication_overhead => "exa_overhead",
    baseline_comparison => "exa_baseline_comparison",
}

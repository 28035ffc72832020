//! `pdms-cli` end to end: options a command does not accept are rejected with exit
//! status 2, and accepted ones still run.

use std::process::Command;

fn pdms_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pdms-cli"))
        .args(args)
        .output()
        .expect("pdms-cli runs")
}

#[test]
fn unknown_options_exit_with_status_2() {
    // `--heavy-threshold` was a `churn` option once; it must not be silently ignored.
    let output = pdms_cli(&["churn", "--heavy-threshold", "3"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--heavy-threshold"), "{stderr}");
    assert!(
        stderr.contains("--peers"),
        "names the accepted options: {stderr}"
    );
    assert!(output.stdout.is_empty(), "nothing runs");

    let output = pdms_cli(&["intro", "--sharded"]);
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn accepted_options_still_run() {
    let output = pdms_cli(&["intro", "--theta", "0.5"]);
    assert!(output.status.success(), "{output:?}");
    assert!(String::from_utf8_lossy(&output.stdout).contains("<-- faulty"));
}

//! Command-line contract of the `figures` binary: the usage listing
//! names every experiment, and a bad name is rejected before any work.

use std::path::PathBuf;
use std::process::Command;

fn figures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figures"))
}

#[test]
fn help_lists_every_experiment_and_group() {
    let out = figures().arg("--help").output().expect("run figures");
    assert_eq!(out.status.code(), Some(0));
    let listing = String::from_utf8(out.stderr).expect("utf-8 usage");
    let names = listing
        .lines()
        .find_map(|l| l.strip_prefix("experiments: "))
        .expect("experiments line");
    let names: Vec<&str> = names.split(' ').collect();
    for name in [
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "table1",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "ed2",
        "tdp",
        "model-error",
        "trace-eas",
        "overhead",
        "ablation-poly",
        "ablation-grid",
        "ablation-categories",
        "ablation-profile",
        "ablation-accum",
        "ablation-thresholds",
        "ablation-drift",
        "chaos",
        "telemetry",
        "all",
        "ablations",
    ] {
        assert!(names.contains(&name), "{name} missing from {names:?}");
    }
}

#[test]
fn unknown_name_exits_2_before_running_anything() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("figures-cli-unknown");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create out dir");
    let out = figures()
        .arg("--out")
        .arg(&dir)
        .args(["fig9", "nosuch"])
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment: nosuch"));
    assert!(!dir.join("SUMMARY.md").exists(), "SUMMARY.md written");
    assert!(!dir.join("fig9.md").exists(), "fig9 ran before validation");
}

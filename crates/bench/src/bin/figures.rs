//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! figures [--out DIR] <experiment>...   # any name from `EXPERIMENTS`
//! figures all                           # every paper experiment
//! figures ablations                     # every ablation study
//! figures --help                        # list every name
//! ```
//!
//! Artifacts are written to `results/` (CSV + per-experiment markdown) and a
//! combined `results/SUMMARY.md`. Every name is checked before the
//! platforms are characterized, so a typo exits 2 without running
//! anything or writing any file.

use easched_bench::{ablations, chaos, experiments, telemetry, Lab, Report};
use std::path::PathBuf;

/// One experiment: one report.
type Experiment = fn(&mut Lab) -> Report;
/// A named group of experiments, run in its own order.
type Group = fn(&mut Lab) -> Vec<Report>;

/// Every single experiment, by command-line name.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig1", experiments::fig1),
    ("fig2", experiments::fig2),
    ("fig3", experiments::fig3),
    ("fig4", experiments::fig4),
    ("fig5", experiments::fig5),
    ("fig6", experiments::fig6),
    ("table1", experiments::table1),
    ("fig9", experiments::fig9),
    ("fig10", experiments::fig10),
    ("fig11", experiments::fig11),
    ("fig12", experiments::fig12),
    ("ed2", experiments::ed2),
    ("tdp", experiments::tdp),
    ("model-error", experiments::model_error),
    ("trace-eas", experiments::trace_eas),
    ("overhead", experiments::overhead),
    ("ablation-poly", ablations::poly_order),
    ("ablation-grid", ablations::grid_resolution),
    ("ablation-categories", ablations::categories),
    ("ablation-profile", ablations::profile_strategy),
    ("ablation-accum", ablations::accumulation),
    ("ablation-thresholds", ablations::thresholds),
    ("ablation-drift", ablations::drift),
    ("chaos", chaos::chaos),
    ("telemetry", telemetry::telemetry),
];

/// Every group, by command-line name.
const GROUPS: &[(&str, Group)] = &[("all", experiments::all), ("ablations", ablations::all)];

/// One resolved command-line name.
enum Run {
    One(Experiment),
    Group(Group),
}

fn lookup(name: &str) -> Option<Run> {
    if let Some(&(_, f)) = EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        return Some(Run::One(f));
    }
    GROUPS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, f)| Run::Group(f))
}

fn usage() {
    let names: Vec<&str> = EXPERIMENTS
        .iter()
        .map(|(n, _)| *n)
        .chain(GROUPS.iter().map(|(n, _)| *n))
        .collect();
    eprintln!("usage: figures [--out DIR] <experiment>... | all | ablations");
    eprintln!("experiments: {}", names.join(" "));
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `--out DIR` redirects artifacts (default: results/), so smoke runs
    // can regenerate experiments without clobbering the committed set.
    let mut out_dir = PathBuf::from("results");
    let mut args = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            match it.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                }
            }
        } else {
            args.push(a);
        }
    }
    if args.is_empty() || args.iter().any(|a| a == "list" || a == "--help") {
        usage();
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let mut runs = Vec::with_capacity(args.len());
    for name in &args {
        match lookup(name) {
            Some(run) => runs.push((name, run)),
            None => {
                eprintln!("unknown experiment: {name}");
                usage();
                std::process::exit(2);
            }
        }
    }

    println!("characterizing platforms (one-time step)...");
    let mut lab = Lab::new();
    let mut summary = String::from("# easched — measured results\n\n");

    for (name, run) in runs {
        let started = std::time::Instant::now();
        let reports = match run {
            Run::One(f) => vec![f(&mut lab)],
            Run::Group(f) => f(&mut lab),
        };
        for report in reports {
            report
                .write_to(&out_dir)
                .unwrap_or_else(|e| panic!("writing {}: {e}", report.id));
            println!("\n## {} — {}\n", report.id, report.title);
            println!("{}", report.markdown);
            summary.push_str(&format!(
                "## {} — {}\n\n{}\n",
                report.id, report.title, report.markdown
            ));
        }
        println!("[{name} done in {:.1?}]", started.elapsed());
    }

    std::fs::create_dir_all(&out_dir).expect("create results dir");
    std::fs::write(out_dir.join("SUMMARY.md"), summary).expect("write summary");
    println!("\nartifacts written to {}/", out_dir.display());
}

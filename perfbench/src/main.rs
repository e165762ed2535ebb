//! The easched benchmark: four workloads driven through the layers'
//! public functions, end-to-end metrics untraced, per-layer metrics from
//! a traced run. See `perfbench/README.md`.
//!
//! ```text
//! easched-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! easched-perfbench compare <result.json> <result.json>
//! easched-perfbench spread <result.json>...
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. The
//! full result, host fingerprint included, is also written to
//! `perfbench/out/`.

mod backend;
mod cold;
mod fleet;
mod host;
mod inputs;
mod json;
mod measure;
mod results;
mod reuse;
mod stats;
mod storm;
mod trace;

use host::Fingerprint;
use inputs::Inputs;
use json::Json;
use measure::Measured;
use results::{metric, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// A run sets its workload up at least [`SETUP_MIN_REPS`] times, and
/// until the set-ups add up to [`SETUP_MIN_S`]; `setup_s` is their
/// median. One set-up takes from a few ms (reuse-hot) to ~0.3 s
/// (profile-cold), and a median over a few ms-long samples moves with
/// every stall of a shared host.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MIN_S: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    ReuseHot,
    ProfileCold,
    Storm,
    Fleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReuseHot,
        Workload::ProfileCold,
        Workload::Storm,
        Workload::Fleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReuseHot => "reuse-hot",
            Workload::ProfileCold => "profile-cold",
            Workload::Storm => "storm",
            Workload::Fleet => "fleet",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A workload set up and ready to time.
pub enum State {
    Reuse(reuse::ReuseState),
    Cold(cold::ColdState),
    Storm(storm::StormState),
    Fleet(fleet::FleetState),
}

pub fn setup(w: Workload, inputs: &Inputs, scratch: &Path, tag: &str) -> State {
    match w {
        Workload::ReuseHot => State::Reuse(reuse::setup(inputs, scratch, tag)),
        Workload::ProfileCold => State::Cold(cold::setup(inputs, scratch, tag)),
        Workload::Storm => State::Storm(storm::setup(inputs, scratch, tag)),
        Workload::Fleet => State::Fleet(fleet::setup(inputs, scratch, tag)),
    }
}

/// Runs the workload's timed loop untraced.
pub fn run(state: &mut State, seconds: f64) -> Measured {
    match state {
        State::Reuse(s) => reuse::run(s, seconds),
        State::Cold(s) => cold::run(s, seconds),
        State::Storm(s) => storm::run(s, seconds).0,
        State::Fleet(s) => fleet::run(s, seconds),
    }
}

/// End-to-end metrics of an untraced run.
fn end_to_end(setup_s: f64, m: &Measured) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MiB"),
        metric("ops_per_s", m.ops_per_s(), "1/s"),
        metric("op_ns.p50", m.op_ns.p50(), "ns"),
        metric("op_ns.tail", m.op_ns.tail().1, "ns"),
    ]
}

fn out_dir(root: &Path) -> PathBuf {
    root.join("perfbench").join("out")
}

fn bench(args: &Args, root: &Path) -> ExitCode {
    let fingerprint = Fingerprint::probe(root);
    let out = out_dir(root);
    let scratch = measure::Scratch::new(&out, &format!("tmp-{}", std::process::id()));
    let inputs = Inputs::generate(args.seed);

    // The traced run sets up the layers it drives itself.
    let mut setups = Vec::new();
    let (measured, metrics) = if args.trace {
        trace::run(args.workload, &inputs, scratch.path())
    } else {
        let mut state = None;
        while setups.len() < SETUP_MIN_REPS || setups.iter().sum::<f64>() < SETUP_MIN_S {
            drop(state.take());
            let rep = setups.len();
            let t0 = Instant::now();
            state = Some(setup(
                args.workload,
                &inputs,
                scratch.path(),
                &rep.to_string(),
            ));
            setups.push(t0.elapsed().as_secs_f64());
        }
        let mut state = state.expect("at least one set-up");
        let m = run(&mut state, args.seconds);
        let metrics = end_to_end(stats::median(&setups), &m);
        (m, metrics)
    };

    let (tail_p, _) = measured.op_ns.tail();
    let mut detail = vec![
        (
            "workload".to_string(),
            Json::Str(args.workload.name().into()),
        ),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        (
            "samples".to_string(),
            Json::Num(measured.op_ns.count() as f64),
        ),
        ("tail_percentile".to_string(), Json::Num(tail_p)),
        (
            "setup_runs_s".to_string(),
            Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
        ),
    ];
    detail.extend(
        measured
            .notes
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
    );
    detail.push((
        "failures".into(),
        Json::Arr(
            measured
                .failures
                .iter()
                .map(|f| Json::Str(f.clone()))
                .collect(),
        ),
    ));
    let summary = results::summary(measured.attempted, measured.failed, &metrics);
    let path = out.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let doc = results::document(&fingerprint, detail, &summary);
    if let Err(e) = std::fs::write(&path, doc.render() + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
    }

    println!(
        "# host: {} | nproc {} | {} | commit {}",
        fingerprint.cpu_model, fingerprint.nproc, fingerprint.rustc, fingerprint.commit
    );
    println!(
        "# {} seed {} trace {}: {} samples, tail = p{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        measured.op_ns.count(),
        tail_p
    );
    for m in &metrics {
        println!("#   {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for (k, v) in &measured.notes {
        println!("#   note {k} = {v}");
    }
    for f in &measured.failures {
        println!("#   FAILED: {f}");
    }
    println!("{}", summary.render());
    if measured.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `compare A B`: loads two result files and compares them.
fn compare(a: &Path, b: &Path) -> Result<String, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(text.trim()).map_err(|e| format!("{}: {e}", p.display()))
    };
    results::compare(&load(a)?, &load(b)?)
}

/// `spread FILE...`: the steadiness of each metric over several runs.
fn spread(files: &[String]) -> Result<String, String> {
    let docs = files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
            Json::parse(text.trim()).map_err(|e| format!("{f}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    results::spread(&docs)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("spread") {
        return match spread(&args[1..]) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    if args.first().map(String::as_str) == Some("compare") {
        if args.len() != 3 {
            eprintln!("usage: easched-perfbench compare <result.json> <result.json>");
            return ExitCode::from(2);
        }
        return match compare(Path::new(&args[1]), Path::new(&args[2])) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: easched-perfbench --workload <reuse-hot|profile-cold|storm|fleet> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("current directory is readable");
    bench(&args, &root)
}

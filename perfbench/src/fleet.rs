//! fleet: `run_fleet` over more nodes than the 3-node default, cycling
//! the three calibrated platforms, with the default chaos fabric and
//! per-node journals in a scratch directory. Single-threaded.

use crate::inputs::Inputs;
use crate::measure::{self, Measured, Samples, Scratch};
use easched_fleet::{run_fleet, FleetReport, FleetSpec};
use std::path::Path;
use std::time::Instant;

/// Nodes per fleet.
pub const FLEET_NODES: usize = 6;
/// Workload ticks per fleet run.
pub const FLEET_TICKS: u64 = 600;
/// Seconds one round of fleet runs (one per root) took on the host the
/// sizes were tuned on; a 15 s run makes one round, 40 runs.
const ROUND_S: f64 = 15.0;

pub struct FleetState {
    pub roots: Vec<u64>,
    scratch: Scratch,
}

/// The benchmark's fleet: `nodes` nodes cycling the calibrated
/// platforms, journals under `store_root`.
pub fn spec(root: u64, nodes: usize, ticks: u64, store_root: &Path) -> FleetSpec {
    let base = FleetSpec::three_nodes(root);
    FleetSpec {
        platforms: (0..nodes)
            .map(|i| base.platforms[i % base.platforms.len()].clone())
            .collect(),
        ticks,
        store_root: store_root.to_path_buf(),
        ..base
    }
}

pub fn setup(inputs: &Inputs, scratch_root: &Path, tag: &str) -> FleetState {
    let scratch = Scratch::new(scratch_root, &format!("fleet-{tag}"));
    let warm_dir = Scratch::new(scratch.path(), "warm");
    let warm =
        run_fleet(&spec(inputs.seed, 3, 20, warm_dir.path())).expect("warm-up fleet spec is valid");
    assert!(warm.converged, "warm-up fleet did not converge");
    FleetState {
        roots: inputs.fleet_roots.clone(),
        scratch,
    }
}

/// Runs one fleet in a fresh journal directory; returns the report and
/// the wall seconds it took.
pub fn fleet_once(root: u64, nodes: usize, ticks: u64, under: &Path) -> (FleetReport, f64) {
    let dir = Scratch::new(under, &format!("run-{root}"));
    let spec = spec(root, nodes, ticks, dir.path());
    let t0 = Instant::now();
    let report = run_fleet(&spec).expect("benchmark fleet spec is valid");
    (report, t0.elapsed().as_secs_f64())
}

/// A fixed number of fleet runs for a run of `seconds` (whole rounds
/// over the roots, see [`measure::units`]), each checked (and its report
/// dropped) as soon as it ends.
pub fn run(state: &FleetState, seconds: f64) -> Measured {
    let runs = measure::units(seconds, ROUND_S, state.roots.len());
    let mut m = Measured::new(0, 0.0, Samples::Few(Vec::new()));
    let mut first = None;
    for (i, &root) in state.roots.iter().cycle().take(runs).enumerate() {
        let (report, s) = fleet_once(root, FLEET_NODES, FLEET_TICKS, state.scratch.path());
        m.ops += FLEET_TICKS;
        m.seconds += s;
        if let Samples::Few(v) = &mut m.op_ns {
            v.push(s * 1e9 / FLEET_TICKS as f64);
        }
        m.window_rates.push(FLEET_TICKS as f64 / s);
        m.check(report.converged, || {
            format!("fleet run {i} did not converge")
        });
        first.get_or_insert(report.digest);
    }
    // The same seed must converge to the same replicated table.
    let first = first.expect("at least one fleet run");
    let (again, _) = fleet_once(
        state.roots[0],
        FLEET_NODES,
        FLEET_TICKS,
        state.scratch.path(),
    );
    m.check(again.digest == first, || {
        format!(
            "fleet digest not stable for its seed: {first:016x} then {:016x}",
            again.digest
        )
    });
    m.note("fleet_runs", m.op_ns.count());
    m.note("digest", format!("{first:016x}"));
    m
}

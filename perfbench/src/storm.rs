//! storm: the canonical 8-tenant ~2× overload storm, recorded with the
//! live observability plane attached and its run log written out — the
//! `easched record --overload --out` shape — while a second thread
//! scrapes the metrics page and the SLO document at a fixed cadence, the
//! `easched serve` shape.

use crate::inputs::Inputs;
use crate::measure::{self, Measured, Samples, Scratch};
use crate::stats::Histogram;
use easched_core::{RingSink, RunSeed, SloTracker};
use easched_replay::{
    record_overload_storm_observed, record_overload_storm_observed_with, replay_overload_storm,
    LiveObservability, OverloadSpec, RecordedOverload,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Admission ticks per timed storm (6 requests executed per tick).
pub const STORM_TICKS: u64 = 64;
/// Seconds one round of storms (one per root) took on the host the
/// sizes were tuned on; a 15 s run makes one round, 40 storms.
const ROUND_S: f64 = 15.0;
/// Ticks of the set-up storm that warms code and allocator.
const WARM_TICKS: u64 = 8;
/// Pause between two scrapes.
const SCRAPE_EVERY: Duration = Duration::from_millis(5);

/// The acceptance gates of the canonical storm.
const MAX_FAIR_SHARE_DEFICIT: f64 = 0.05;
const MIN_EDP_EFFICIENCY: f64 = 0.7;

pub struct StormState {
    pub roots: Vec<u64>,
    scratch: Scratch,
}

pub fn setup(inputs: &Inputs, scratch_root: &Path, tag: &str) -> StormState {
    let warm = record_overload_storm_observed(&OverloadSpec {
        seed: RunSeed::new(inputs.seed),
        ticks: WARM_TICKS,
    });
    assert!(warm.recorded.executed > 0, "warm-up storm executed nothing");
    StormState {
        roots: inputs.storm_roots.clone(),
        scratch: Scratch::new(scratch_root, &format!("storm-{tag}")),
    }
}

/// Scrape latencies taken while storms ran, ns.
#[derive(Debug, Default)]
pub struct Scrapes {
    pub expose: Histogram,
    pub slo: Histogram,
}

pub type Live = Mutex<Option<(Arc<RingSink>, Arc<SloTracker>)>>;

/// Renders both pages of the current storm every [`SCRAPE_EVERY`] until
/// `stop` is set.
pub fn scraper(live: &Live, stop: &AtomicBool) -> Scrapes {
    let mut s = Scrapes::default();
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(SCRAPE_EVERY);
        let Some((ring, slo)) = live.lock().expect("scrape handle lock").clone() else {
            continue;
        };
        let t0 = Instant::now();
        let page = ring.metrics().expose();
        let t1 = Instant::now();
        let doc = slo.render_json(STORM_TICKS as f64);
        let t2 = Instant::now();
        assert!(!page.is_empty() && !doc.is_empty(), "empty scrape page");
        s.expose.record((t1 - t0).as_nanos() as u64);
        s.slo.record((t2 - t1).as_nanos() as u64);
    }
    s
}

/// Records one storm with `ticks` ticks, writes its log under `dir`, and
/// returns it with the wall seconds both took.
pub fn storm_once(root: u64, ticks: u64, dir: &Path, live: &Live) -> (RecordedOverload, f64) {
    storm_once_with(root, ticks, dir, live, |_| {})
}

/// [`storm_once`] that also hands the live handles to `on_live`.
pub fn storm_once_with(
    root: u64,
    ticks: u64,
    dir: &Path,
    live: &Live,
    on_live: impl FnOnce(&LiveObservability),
) -> (RecordedOverload, f64) {
    let spec = OverloadSpec {
        seed: RunSeed::new(root),
        ticks,
    };
    let t0 = Instant::now();
    let observed = record_overload_storm_observed_with(&spec, |l| {
        *live.lock().expect("scrape handle lock") = Some((Arc::clone(&l.ring), Arc::clone(&l.slo)));
        on_live(l);
    });
    let text = observed.recorded.log.to_text();
    std::fs::write(dir.join(format!("storm-{root}.log")), text).expect("storm log is writable");
    (observed.recorded, t0.elapsed().as_secs_f64())
}

/// A fixed number of storms for a run of `seconds` (whole rounds over
/// the roots, see [`measure::units`]). Each storm is checked (and its
/// log dropped) as soon as it ends, outside its timed span, so memory
/// does not grow with the number of storms.
pub fn run(state: &StormState, seconds: f64) -> (Measured, Scrapes) {
    let storms = measure::units(seconds, ROUND_S, state.roots.len());
    let live: Live = Mutex::new(None);
    let stop = AtomicBool::new(false);
    let mut m = Measured::new(0, 0.0, Samples::Few(Vec::new()));
    let (mut effs, mut offered, mut shed) = (Vec::new(), 0u64, 0u64);
    let scrapes = std::thread::scope(|scope| {
        let scrapes = scope.spawn(|| scraper(&live, &stop));
        for (i, &root) in state.roots.iter().cycle().take(storms).enumerate() {
            let (rec, s) = storm_once(root, STORM_TICKS, state.scratch.path(), &live);
            m.ops += rec.executed as u64;
            m.seconds += s;
            if let Samples::Few(v) = &mut m.op_ns {
                v.push(s * 1e9 / rec.executed.max(1) as f64);
            }
            m.window_rates.push(rec.executed as f64 / s);
            check_storm(&mut m, i, &rec);
            effs.push(rec.edp_efficiency());
            offered += rec.offered;
            shed += rec.shed;
        }
        stop.store(true, Ordering::Release);
        scrapes.join().expect("scraper thread panicked")
    });
    m.note("storms", effs.len());
    m.note("edp_efficiency", crate::stats::median(&effs));
    m.note("shed_ratio", shed as f64 / offered.max(1) as f64);
    (m, scrapes)
}

/// The canonical storm's acceptance gates plus byte-identical replay.
pub fn check_storm(m: &mut Measured, i: usize, rec: &RecordedOverload) {
    let replay = replay_overload_storm(&rec.log);
    let identical = replay.as_ref().is_ok_and(|r| r.identical);
    m.check(identical, || match &replay {
        Ok(r) => format!("storm {i}: replay differs at {:?}", r.first_difference),
        Err(e) => format!("storm {i}: replay failed: {e}"),
    });
    m.check(rec.queues_bounded, || {
        format!("storm {i}: a queue overran its bound")
    });
    let deficit = rec.fair_share_deficit;
    m.check(deficit <= MAX_FAIR_SHARE_DEFICIT, || {
        format!("storm {i}: fair-share deficit {deficit} > {MAX_FAIR_SHARE_DEFICIT}")
    });
    let eff = rec.edp_efficiency();
    m.check(eff >= MIN_EDP_EFFICIENCY, || {
        format!("storm {i}: EDP efficiency {eff} < {MIN_EDP_EFFICIENCY}")
    });
}

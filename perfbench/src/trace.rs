//! The traced run: per-layer metrics. Each layer's public functions are
//! driven one layer at a time with this run's generated inputs, with a
//! span around every call (or every batch, where one call takes under
//! ~1 µs). Spans stay in memory and are written to
//! `perfbench/out/trace-<workload>-seed<n>.jsonl` at the end.
//!
//! The traced run also replays a per-call loop with tracing off and on,
//! and reports the difference as `trace.overhead_pct`: the reuse-hot
//! loop for `reuse-hot`, the profile-cold loop for every other workload.

use crate::backend::Captured;
use crate::inputs::Inputs;
use crate::measure::{self, Measured, Samples, Stop};
use crate::results::{metric, Metric};
use crate::{cold, fleet, reuse, stats, storm, Workload};
use easched_core::{
    Accumulation, BreakerState, Classifier, DecisionEngine, DecisionRecord, EasConfig,
    EasScheduler, InvocationPath, KernelTable, Objective, RingSink, SharedEas, TableStore,
    TelemetrySink, TenantFrontend, TimeModel,
};
use easched_fleet::{Envelope, FleetNode, Frame, Op, ReplicaTable, MAX_ENTRIES_PER_FRAME};
use easched_kernels::{record_trace, suite};
use easched_replay::overload::{overload_admission, overload_registry};
use easched_runtime::scheduler::FixedAlpha;
use easched_runtime::{kernel_id_of, replay_trace, run_workload, Observation};
use easched_sim::{CounterSnapshot, Machine, Platform};
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// One recorded span. `parent` indexes the enclosing span of the same
/// buffer; `request` numbers the call (or batch) within its layer.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

/// An in-memory span buffer.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    pub recs: Vec<SpanRec>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            recs: Vec::with_capacity(1 << 16),
        }
    }

    /// Records a finished span; returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: u64,
    ) -> u32 {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.recs.push(SpanRec {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            request,
        });
        (self.recs.len() - 1) as u32
    }

    /// Opens a layer span: recorded now, its end filled in by
    /// [`Spans::close`].
    fn open(&mut self, name: &'static str) -> u32 {
        let now = Instant::now();
        self.push(name, now, now, None, 0)
    }

    fn close(&mut self, id: u32) {
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.recs[id as usize].end_ns = end;
    }

    /// Times `batches` batches of `per_batch` calls of `f(call index)`,
    /// one span per batch under `parent`; returns ns per call, per batch.
    fn batched(
        &mut self,
        name: &'static str,
        parent: u32,
        batches: usize,
        per_batch: usize,
        mut f: impl FnMut(usize),
    ) -> Vec<f64> {
        (0..batches)
            .map(|b| {
                let t0 = Instant::now();
                for j in 0..per_batch {
                    f(b * per_batch + j);
                }
                let t1 = Instant::now();
                self.push(name, t0, t1, Some(parent), b as u64);
                (t1 - t0).as_nanos() as f64 / per_batch as f64
            })
            .collect()
    }

    /// Times `reps` single calls of `f`, one span each; returns seconds.
    fn each<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        reps: usize,
        mut f: impl FnMut() -> R,
    ) -> Vec<f64> {
        (0..reps)
            .map(|r| {
                let t0 = Instant::now();
                black_box(f());
                let t1 = Instant::now();
                self.push(name, t0, t1, Some(parent), r as u64);
                (t1 - t0).as_secs_f64()
            })
            .collect()
    }

    /// One JSON line naming the buffer, then one array per span:
    /// `[id, name, start_ns, end_ns, parent, request]`.
    fn write_jsonl(&self, out: &mut impl std::io::Write, buffer: &str) -> std::io::Result<()> {
        writeln!(
            out,
            "{{\"buffer\": \"{buffer}\", \"spans\": {}}}",
            self.recs.len()
        )?;
        for (i, s) in self.recs.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "[{i}, \"{}\", {}, {}, {parent}, {}]",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

/// Calls per replayed stretch of the reuse-hot and profile-cold loops
/// (per client), traced and untraced alike.
const REPLAY_CALLS: u64 = 50_000;
/// Alternating untraced/traced replay pairs behind `trace.overhead_pct`;
/// one pair is within the host's run-to-run noise.
const OVERHEAD_PAIRS: usize = 7;
/// Batches per batched layer probe.
const BATCHES: usize = 200;

fn p50(v: &[f64]) -> f64 {
    stats::median(v)
}

fn p99(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    stats::percentile_sorted(&v, 99.0)
}

/// The old `bench_decide` observation, so `eas.decide_alpha` lines up
/// with its `ns_per_decide` lane.
fn lane_observation() -> Observation {
    Observation {
        elapsed: 0.001,
        cpu_items: 1_000,
        gpu_items: 2_048,
        cpu_time: 0.001,
        gpu_time: 0.001,
        energy_joules: 0.05,
        counters: CounterSnapshot {
            instructions: 1e6,
            loads: 2e5,
            l3_misses: 1e5,
        },
    }
}

pub fn run(w: Workload, inputs: &Inputs, scratch: &Path) -> (Measured, Vec<Metric>) {
    let mut sp = Spans::new();
    let mut out = Vec::new();
    let model = measure::model();
    let config = measure::pure_reuse_config();

    // core::characterize
    let layer = sp.open("layer:core::characterize");
    let fits = sp.each("characterize", layer, 5, measure::model);
    out.push(metric("characterize.fit.ms", p50(&fits) * 1e3, "ms"));
    sp.close(layer);

    // Workload replays: reuse-hot and profile-cold loops, untraced then
    // traced, on this seed's inputs.
    let reuse_state = reuse::setup(inputs, scratch, "trace");
    let reuse_1t = reuse::merge(&reuse::streams(
        &reuse_state,
        1,
        Stop::Calls(REPLAY_CALLS),
        false,
    ));
    let reuse_2t = reuse::merge(&reuse::streams(
        &reuse_state,
        2,
        Stop::Calls(REPLAY_CALLS),
        false,
    ));
    let reuse_traced_streams = reuse::streams(&reuse_state, 2, Stop::Calls(REPLAY_CALLS), true);
    let reuse_traced = reuse::merge(&reuse_traced_streams);
    let ring = &reuse_state.ring;
    let hit_reuse = ring.metrics().hit_rate();
    out.push(metric("ring.hit_rate.reuse_hot", hit_reuse, "ratio"));
    out.push(metric(
        "ring.dropped_ratio",
        ring.dropped() as f64 / ring.recorded().max(1) as f64,
        "ratio",
    ));
    out.push(metric(
        "sched_overhead_pct.reuse_hot",
        reuse::sched_overhead_pct(&reuse_state, reuse_2t.op_ns.p50()),
        "%",
    ));

    let mut cold_state = cold::setup(inputs, scratch, "trace");
    let cold_plain = cold::replay(&mut cold_state, Stop::Calls(REPLAY_CALLS), false);
    let cold_traced = cold::replay(&mut cold_state, Stop::Calls(REPLAY_CALLS), true);
    let hit_cold = cold_plain.hit_rates.iter().copied().fold(0.0, f64::max);
    out.push(metric("ring.hit_rate.profile_cold", hit_cold, "ratio"));
    out.push(metric(
        "sched_overhead_pct.profile_cold",
        cold_plain.sched_overhead_pct(),
        "%",
    ));
    let records = cold_plain.last.ring.snapshot();
    let rounds =
        records.iter().map(|r| f64::from(r.rounds)).sum::<f64>() / records.len().max(1) as f64;
    out.push(metric("engine.rounds_per_invocation", rounds, "count"));
    let log_len = cold_plain.last.eas.decision_log().len();
    out.push(metric("shared.decision_log.len", log_len as f64, "count"));

    // core::engine, classify, power_model, time_model over the captured
    // first-seen observations.
    let layer = sp.open("layer:core::engine");
    let caps = &cold_state.caps;
    let remaining = |c: &Captured| c.items - c.profile.cpu_items - c.profile.gpu_items;
    let engine = DecisionEngine::new(model.clone(), config.clone());
    let decide = sp.batched("engine.decide", layer, BATCHES, 64, |i| {
        let c = &caps[i % caps.len()];
        black_box(engine.decide(i as u64, black_box(&c.profile), remaining(c)));
    });
    out.push(metric("engine.decide.ns.p50", p50(&decide), "ns"));
    let classifier = Classifier::default();
    let classify = sp.batched("classify.classify", layer, BATCHES, 256, |i| {
        let c = &caps[i % caps.len()];
        black_box(classifier.classify(black_box(&c.profile), remaining(c)));
    });
    out.push(metric("classify.classify.ns.p50", p50(&classify), "ns"));
    let classes: Vec<_> = caps
        .iter()
        .map(|c| classifier.classify(&c.profile, remaining(c)))
        .collect();
    let grid: Vec<f64> = (0..=10).map(|i| f64::from(i) / 10.0).collect();
    let power = sp.batched("power_model.grid11", layer, BATCHES, 64, |i| {
        let class = classes[i % classes.len()];
        for &a in &grid {
            black_box(model.predict(class, black_box(a)));
        }
    });
    out.push(metric("power_model.grid11.ns.p50", p50(&power), "ns"));
    let times: Vec<(TimeModel, u64)> = caps
        .iter()
        .map(|c| {
            (
                TimeModel::new(c.profile.cpu_rate(), c.profile.gpu_rate()),
                remaining(c),
            )
        })
        .collect();
    let time = sp.batched("time_model.grid11", layer, BATCHES, 64, |i| {
        let (tm, n) = &times[i % times.len()];
        for &a in &grid {
            black_box(tm.total_time(black_box(a), *n));
        }
    });
    out.push(metric("time_model.grid11.ns.p50", p50(&time), "ns"));
    let mut eas = EasScheduler::new(model.clone(), EasConfig::new(Objective::EnergyDelay));
    let obs = lane_observation();
    let decide_alpha = sp.batched("eas.decide_alpha", layer, BATCHES, 256, |_| {
        black_box(eas.decide_alpha(black_box(&obs), black_box(500_000)));
    });
    out.push(metric("eas.decide_alpha.ns.p50", p50(&decide_alpha), "ns"));
    sp.close(layer);

    // core::kernel_table
    let layer = sp.open("layer:core::kernel_table");
    let table = KernelTable::new();
    for (&id, &bits) in reuse_state.ids.iter().zip(&reuse_state.learned) {
        table.accumulate(id, f64::from_bits(bits), 1.0, Accumulation::SampleWeighted);
    }
    let draws = &reuse_state.draws;
    let ids = &reuse_state.ids;
    let note = sp.batched("kernel_table.note_reuse", layer, BATCHES, 512, |i| {
        black_box(table.note_reuse(ids[draws[0][i % draws[0].len()] as usize]));
    });
    out.push(metric("kernel_table.note_reuse.ns.p50", p50(&note), "ns"));
    let note_2t = two_threads(&mut sp, "kernel_table.note_reuse.2t", layer, 512, |t, i| {
        black_box(table.note_reuse(ids[draws[t][i % draws[t].len()] as usize]));
    });
    out.push(metric(
        "kernel_table.note_reuse.ns_2t.p50",
        p50(&note_2t),
        "ns",
    ));
    let cold_ids = &cold_state.ids;
    let fresh = KernelTable::new();
    let accumulate: Vec<f64> = (0..BATCHES)
        .map(|b| {
            fresh.clear();
            let t0 = Instant::now();
            for j in 0..64 {
                fresh.accumulate(
                    cold_ids[(b * 64 + j) % cold_ids.len()],
                    0.5,
                    1000.0,
                    Accumulation::SampleWeighted,
                );
            }
            let t1 = Instant::now();
            sp.push("kernel_table.accumulate", t0, t1, Some(layer), b as u64);
            (t1 - t0).as_nanos() as f64 / 64.0
        })
        .collect();
    out.push(metric(
        "kernel_table.accumulate.ns.p50",
        p50(&accumulate),
        "ns",
    ));
    sp.close(layer);

    // core::journal
    let layer = sp.open("layer:core::journal");
    let journal_dir = measure::Scratch::new(scratch, "trace-journal");
    let (store, _) = TableStore::open(journal_dir.path()).expect("journal opens in scratch");
    let entry = sp.batched("journal.record_entry", layer, 2000, 8, |i| {
        store.record_entry(&table, ids[draws[0][i % draws[0].len()] as usize]);
    });
    out.push(metric("journal.record_entry.ns.p50", p50(&entry), "ns"));
    out.push(metric("journal.record_entry.ns.p99", p99(&entry), "ns"));
    let entry_2t = two_threads(&mut sp, "journal.record_entry.2t", layer, 8, |t, i| {
        store.record_entry(&table, ids[draws[t][i % draws[t].len()] as usize]);
    });
    out.push(metric(
        "journal.record_entry.ns_2t.p50",
        p50(&entry_2t),
        "ns",
    ));
    let breaker = sp.batched("journal.record_breaker", layer, BATCHES, 512, |_| {
        store.record_breaker(BreakerState::Closed);
    });
    out.push(metric("journal.record_breaker.ns.p50", p50(&breaker), "ns"));
    let cold_store_bytes = cold_plain
        .last
        .eas
        .store()
        .map_or(0, |s| dir_bytes(s.dir()));
    let cold_calls = cold_plain.m.ops % cold_state.ids.len() as u64;
    let per_pass = if cold_calls == 0 {
        cold_state.ids.len() as u64
    } else {
        cold_calls
    };
    out.push(metric(
        "journal.bytes_per_invocation",
        cold_store_bytes as f64 / per_pass as f64,
        "count",
    ));
    let write_errors = store.write_errors()
        + [
            &reuse_state.eas,
            &cold_plain.last.eas,
            &cold_traced.last.eas,
        ]
        .iter()
        .map(|e| e.store().map_or(0, |s| s.write_errors()))
        .sum::<u64>();
    out.push(metric("journal.write_errors", write_errors as f64, "count"));
    sp.close(layer);

    // telemetry::sink
    let layer = sp.open("layer:telemetry::sink");
    let sink = RingSink::with_capacity(1 << 15);
    let record = DecisionRecord {
        path: InvocationPath::TableHit,
        alpha: 0.5,
        items: 500_000,
        ..DecisionRecord::default()
    };
    let ring_record = sp.batched("ring.record", layer, BATCHES, 512, |i| {
        sink.record(black_box(&DecisionRecord {
            seq: i as u64,
            ..record
        }));
    });
    let ring_ns = p50(&ring_record);
    out.push(metric("ring.record.ns.p50", ring_ns, "ns"));
    sp.close(layer);

    // core::shared: what the reuse path costs beyond its measured parts.
    let reuse_p50 = reuse_1t.op_ns.p50();
    out.push(metric("shared.reuse.invoke_ns_1t.p50", reuse_p50, "ns"));
    out.push(metric(
        "shared.reuse.residual_ns",
        reuse_p50 - p50(&note) - p50(&breaker) - ring_ns,
        "ns",
    ));

    // core::tenancy / runtime::admission
    let layer = sp.open("layer:core::tenancy");
    let frontend = TenantFrontend::new(
        SharedEas::new(model.clone(), config.clone()),
        overload_registry(),
        overload_admission(),
    );
    let tenants = overload_registry().len();
    let mut arrivals = crate::inputs::Rng::new(inputs.seed, "tenancy");
    let (mut offers, mut drains) = (Vec::new(), Vec::new());
    for tick in 0..BATCHES {
        let picks: Vec<usize> = (0..12)
            .map(|_| (arrivals.next_u64() % tenants as u64) as usize)
            .collect();
        let t0 = Instant::now();
        for &t in &picks {
            black_box(frontend.offer(t));
        }
        let t1 = Instant::now();
        let drained = frontend.drain_detailed(6);
        let t2 = Instant::now();
        sp.push("tenancy.offer", t0, t1, Some(layer), tick as u64);
        sp.push("tenancy.drain_detailed", t1, t2, Some(layer), tick as u64);
        offers.push((t1 - t0).as_nanos() as f64 / picks.len() as f64);
        drains.push((t2 - t1).as_nanos() as f64 / 1e3);
        for r in drained {
            frontend.complete(r.tenant, 0.001);
        }
        frontend.advance_tick();
    }
    out.push(metric("tenancy.offer.ns.p50", p50(&offers), "ns"));
    out.push(metric("tenancy.drain_detailed.us.p50", p50(&drains), "us"));
    sp.close(layer);

    // replay::record / replay::log, with the scrape pages rendered while
    // the storm runs.
    let layer = sp.open("layer:replay");
    let storm_dir = measure::Scratch::new(scratch, "trace-storm");
    let live: storm::Live = Mutex::new(None);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let root = inputs.storm_roots[0];
    let recorder = Mutex::new(None);
    let ((rec, _), scrapes) = std::thread::scope(|s| {
        let scraper = s.spawn(|| storm::scraper(&live, &stop));
        let t0 = Instant::now();
        let done = storm::storm_once_with(root, storm::STORM_TICKS, storm_dir.path(), &live, |l| {
            *recorder.lock().expect("recorder slot") = Some(Arc::clone(&l.recorder));
        });
        sp.push(
            "replay::record_overload_storm_observed",
            t0,
            Instant::now(),
            Some(layer),
            0,
        );
        stop.store(true, std::sync::atomic::Ordering::Release);
        (done, scraper.join().expect("scraper thread panicked"))
    });
    let recorder = recorder
        .into_inner()
        .expect("recorder slot")
        .expect("storm hook ran");
    let decisions = sp.each("recorder.decisions", layer, 5, || {
        recorder.decisions().len()
    });
    out.push(metric("recorder.decisions.us", p50(&decisions) * 1e6, "us"));
    out.push(metric("recorder.events", recorder.len() as f64, "count"));
    let to_text = sp.each("runlog.to_text", layer, 5, || rec.log.to_text().len());
    out.push(metric("runlog.to_text.ms", p50(&to_text) * 1e3, "ms"));
    // Collects the output checks of every layer driven below.
    let mut checks = Measured::new(0, 0.0, Samples::Few(Vec::new()));
    let t0 = Instant::now();
    storm::check_storm(&mut checks, 0, &rec);
    let t1 = Instant::now();
    sp.push("replay.overload", t0, t1, Some(layer), 0);
    out.push(metric(
        "replay.overload.ms",
        (t1 - t0).as_secs_f64() * 1e3,
        "ms",
    ));
    out.push(metric(
        "storm.edp_efficiency",
        rec.edp_efficiency(),
        "ratio",
    ));
    out.push(metric(
        "admission.shed_ratio",
        rec.shed as f64 / rec.offered.max(1) as f64,
        "ratio",
    ));
    out.push(metric(
        "metrics.expose.us.p50",
        scrapes.expose.percentile(50.0) / 1e3,
        "us",
    ));
    out.push(metric(
        "metrics.expose.us.p99",
        scrapes.expose.percentile(99.0) / 1e3,
        "us",
    ));
    out.push(metric(
        "slo.render_json.us.p50",
        scrapes.slo.percentile(50.0) / 1e3,
        "us",
    ));
    sp.close(layer);

    // runtime::sim_backend / sim::machine / kernels
    let layer = sp.open("layer:sim+kernels");
    let platform = Platform::haswell_desktop();
    for (abbrev, workload) in [
        ("bfs", suite::bfs_small()),
        ("blackscholes", suite::blackscholes_small()),
        ("mandelbrot", suite::mandelbrot_small()),
    ] {
        let (trace, verification) = record_trace(workload.as_ref());
        checks.check(verification.is_passed(), || {
            format!("{abbrev}: recording failed verification")
        });
        let traits = workload.traits_for(&platform);
        let kernel = kernel_id_of(workload.as_ref());
        let sim = sp.each("sim.replay_trace", layer, 5, || {
            let mut machine = Machine::new(platform.clone());
            replay_trace(
                &mut machine,
                &traits,
                kernel,
                &trace,
                &mut FixedAlpha::new(0.5),
            )
            .invocations
        });
        let mut verified = true;
        let full = sp.each("kernels.run_workload", layer, 5, || {
            let mut machine = Machine::new(platform.clone());
            let (_, v) = run_workload(&mut machine, workload.as_ref(), &mut FixedAlpha::new(0.5));
            verified &= v.is_passed();
        });
        checks.check(verified, || {
            format!("{abbrev}: run_workload failed verification")
        });
        let (sim_us, full_us) = (p50(&sim) * 1e6, p50(&full) * 1e6);
        out.push(metric(
            format!("sim.replay_trace.us.{abbrev}"),
            sim_us,
            "us",
        ));
        out.push(metric(
            format!("kernels.run_workload.us.{abbrev}"),
            full_us,
            "us",
        ));
        out.push(metric(
            format!("kernels.functional.us.{abbrev}"),
            full_us - sim_us,
            "us",
        ));
    }
    sp.close(layer);

    // fleet::replica / fleet::frame / fleet::node
    let layer = sp.open("layer:fleet");
    let stream = apply_stream(8192);
    let mut replica = ReplicaTable::new();
    let apply = sp.batched("fleet.replica_apply", layer, BATCHES, 256, |i| {
        if i % stream.len() == 0 {
            replica = ReplicaTable::new();
        }
        black_box(replica.apply(black_box(&stream[i % stream.len()])));
    });
    out.push(metric("fleet.replica_apply.ns.p50", p50(&apply), "ns"));
    let frame = Frame::entries(0, 1, stream[..MAX_ENTRIES_PER_FRAME].to_vec());
    let encode = sp.each("fleet.frame_encode", layer, BATCHES, || frame.encode());
    out.push(metric(
        "fleet.frame_encode.us.p50",
        p50(&encode) * 1e6,
        "us",
    ));
    let text = frame.encode();
    let decode = sp.each("fleet.frame_decode", layer, BATCHES, || {
        Frame::decode(&text).is_ok()
    });
    out.push(metric(
        "fleet.frame_decode.us.p50",
        p50(&decode) * 1e6,
        "us",
    ));
    let node_dir = measure::Scratch::new(scratch, "trace-node");
    let mut node = FleetNode::start(
        0,
        platform.clone(),
        config.clone(),
        node_dir.path(),
        inputs.seed,
        2,
    )
    .expect("fleet node starts in scratch");
    let peers: Vec<Envelope> = stream.iter().filter(|e| e.origin != 0).cloned().collect();
    let ingest: Vec<f64> = peers
        .chunks(MAX_ENTRIES_PER_FRAME)
        .enumerate()
        .map(|(i, chunk)| {
            let t0 = Instant::now();
            black_box(node.ingest_entries(chunk, i as u64));
            let t1 = Instant::now();
            sp.push("fleet.ingest_entries", t0, t1, Some(layer), i as u64);
            (t1 - t0).as_secs_f64() * 1e6
        })
        .collect();
    out.push(metric("fleet.ingest_entries.us.p50", p50(&ingest), "us"));
    let digest = sp.each("fleet.digest", layer, 20, || node.replica().digest());
    out.push(metric("fleet.digest.us", p50(&digest) * 1e6, "us"));
    let fleet_dir = measure::Scratch::new(scratch, "trace-fleet");
    let (report, _) = fleet::fleet_once(
        inputs.fleet_roots[0],
        fleet::FLEET_NODES,
        fleet::FLEET_TICKS,
        fleet_dir.path(),
    );
    checks.check(report.converged, || {
        "traced fleet run did not converge".into()
    });
    let st = report.nodes.iter().fold((0u64, 0u64, 0u64, 0u64), |a, n| {
        (
            a.0 + n.stats.entries_applied,
            a.1 + n.stats.entries_rejected_stale,
            a.2 + n.stats.entries_deferred_gap,
            a.3 + n.stats.frames_dropped,
        )
    });
    out.push(metric(
        "fleet.apply_useful_ratio",
        st.0 as f64 / (st.0 + st.1 + st.2).max(1) as f64,
        "ratio",
    ));
    out.push(metric("fleet.frames_dropped", st.3 as f64, "count"));
    out.push(metric(
        "fleet.drain_rounds",
        report.drain_rounds as f64,
        "count",
    ));
    sp.close(layer);

    // Tracing overhead, on a loop that can carry a span per call: the
    // median of several pairs, of which only the first keeps its spans.
    // The storm and fleet entry points run a whole storm or fleet per
    // call and offer no per-request hook, so their traced runs report
    // the overhead of the profile-cold call loop.
    let (plain, traced) = match w {
        Workload::ReuseHot => (reuse_2t, reuse_traced),
        Workload::ProfileCold | Workload::Storm | Workload::Fleet => (cold_plain.m, cold_traced.m),
    };
    let pct = |plain: &Measured, traced: &Measured| {
        (plain.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0
    };
    let mut overheads = vec![pct(&plain, &traced)];
    for _ in 1..OVERHEAD_PAIRS {
        let pair = match w {
            Workload::ReuseHot => [false, true].map(|traced| {
                reuse::merge(&reuse::streams(
                    &reuse_state,
                    2,
                    Stop::Calls(REPLAY_CALLS),
                    traced,
                ))
            }),
            Workload::ProfileCold | Workload::Storm | Workload::Fleet => [false, true]
                .map(|traced| cold::replay(&mut cold_state, Stop::Calls(REPLAY_CALLS), traced).m),
        };
        overheads.push(pct(&pair[0], &pair[1]));
        for m in &pair {
            checks.tally(m.attempted, m.failed, || m.failures.join("; "));
        }
    }
    out.push(metric("trace.overhead_pct", stats::median(&overheads), "%"));

    // Write the spans out.
    let path = scratch.parent().unwrap_or(scratch).join(format!(
        "trace-{}-seed{}.jsonl",
        w.name(),
        inputs.seed
    ));
    let written = std::fs::File::create(&path).and_then(|f| {
        let mut f = std::io::BufWriter::new(f);
        sp.write_jsonl(&mut f, "layers")?;
        for (i, s) in reuse_traced_streams.iter().enumerate() {
            if let Some(spans) = &s.spans {
                spans.write_jsonl(&mut f, &format!("reuse-hot-client{i}"))?;
            }
        }
        if let Some(spans) = &cold_traced.spans {
            spans.write_jsonl(&mut f, "profile-cold")?;
        }
        f.flush()
    });
    checks.check(written.is_ok(), || {
        format!("cannot write {}: {written:?}", path.display())
    });

    // Output checks of everything the traced run drove.
    let mut m = plain;
    m.attempted += checks.attempted + traced.attempted;
    m.failed += checks.failed + traced.failed;
    m.failures.extend(checks.failures);
    m.failures.extend(traced.failures);
    m.check(write_errors == 0, || {
        format!("journal reported {write_errors} write errors")
    });
    m.check(hit_reuse >= reuse::MIN_HIT_RATE, || {
        format!("reuse-hot hit rate {hit_reuse}")
    });
    m.check(hit_cold <= cold::MAX_HIT_RATE, || {
        format!("profile-cold hit rate {hit_cold}")
    });
    (m, out)
}

/// Two threads run `f(thread, call index)` in batches of `per_batch` at
/// the same time; returns ns per call of every batch of both.
fn two_threads(
    sp: &mut Spans,
    name: &'static str,
    parent: u32,
    per_batch: usize,
    f: impl Fn(usize, usize) + Sync,
) -> Vec<f64> {
    let start = Barrier::new(2);
    type Batches = (Vec<f64>, Vec<(Instant, Instant)>);
    let results: Vec<Batches> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (f, start) = (&f, &start);
                s.spawn(move || {
                    start.wait();
                    let mut times = Vec::with_capacity(BATCHES);
                    let per: Vec<f64> = (0..BATCHES)
                        .map(|b| {
                            let t0 = Instant::now();
                            for j in 0..per_batch {
                                f(t, b * per_batch + j);
                            }
                            let t1 = Instant::now();
                            times.push((t0, t1));
                            (t1 - t0).as_nanos() as f64 / per_batch as f64
                        })
                        .collect();
                    (per, times)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for (per, times) in results {
        for (b, (t0, t1)) in times.into_iter().enumerate() {
            sp.push(name, t0, t1, Some(parent), b as u64);
        }
        all.extend(per);
    }
    all
}

/// The old `ns_per_apply` lane's stream: watermark-fresh puts from three
/// origins over 128 kernels.
fn apply_stream(len: usize) -> Vec<Envelope> {
    let platforms = ["haswell-desktop", "baytrail-tablet", "skylake-minipc"];
    let mut seqs = [0u64; 3];
    (0..len)
        .map(|i| {
            seqs[i % 3] += 1;
            Envelope {
                origin: (i % 3) as u16,
                platform: platforms[i % 3].to_string(),
                generation: 1,
                seq: seqs[i % 3],
                op: Op::Put {
                    kernel: (i % 128) as u64,
                    alpha: 0.5 + (i % 10) as f64 * 0.01,
                    weight: 10.0,
                    seen: i as u64,
                    tainted: false,
                },
            }
        })
        .collect()
}

/// Bytes of every file directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

//! One fleet node: a persistent [`SharedEas`] scheduler, a simulated
//! machine, and the anti-entropy protocol state around them.
//!
//! A node's journal (`TableStore`) remains the single source of truth for
//! its own platform; replication *streams* that truth outward and pulls
//! everyone else's in. Per origin, the node keeps a `(generation, seq)`
//! watermark (contiguous-prefix admission — exactly-once apply under
//! duplication and reordering), a retransmission log (so knowledge
//! spreads transitively through third nodes across partitions), and the
//! convergent [`ReplicaTable`]. Cross-platform knowledge lands as
//! warm-start priors only; replicated taints quarantine fleet-wide
//! through the batched [`ReprofileScheduler`] (DESIGN.md §15).

use crate::frame::{Envelope, Frame, NodeId, Op};
use crate::replica::{Applied, ReplicaTable};
use crate::reprofile::ReprofileScheduler;
use crate::stats::FleetStats;
use easched_core::{
    characterize, CharacterizationConfig, EasConfig, EasScheduler, SharedEas, StoreError,
    StoreHealth,
};
use easched_runtime::sim_backend::SimBackend;
use easched_runtime::vfs::{StdFs, Vfs};
use easched_runtime::ConcurrentScheduler;
use easched_sim::{KernelTraits, Machine, Platform};
use easched_telemetry::{Span, SpanKind, SpanSink};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Cap on envelopes per entries frame — the batching knob. Leftovers go
/// out on the next pull round.
pub const MAX_ENTRIES_PER_FRAME: usize = 128;

/// Attempts the start-time fencing checkpoint gets under injected I/O
/// faults before the node settles for an in-memory epoch bump.
const START_CHECKPOINT_RETRIES: usize = 8;

/// Last state published for a kernel, used to detect changes worth an
/// envelope (bit-exact float comparison, so re-publishing is silent only
/// when truly nothing moved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PublishedState {
    alpha_bits: u64,
    weight_bits: u64,
    seen: u64,
    tainted: bool,
}

/// One node of the fleet.
pub struct FleetNode {
    /// This node's fleet identity.
    pub id: NodeId,
    /// The node's platform (its truth namespace).
    pub platform: Platform,
    /// Replication counters (protocol side; fabric-side counters are
    /// folded in by the run loop).
    pub stats: FleetStats,
    machine: Machine,
    shared: Arc<SharedEas>,
    store_dir: PathBuf,
    /// Node epoch: strictly increases across restarts (fenced by the
    /// journal's snapshot generation via the start-time checkpoint).
    generation: u64,
    next_seq: u64,
    /// Per-origin retransmission logs (self included), each sorted by
    /// `(generation, seq)` by construction.
    logs: BTreeMap<NodeId, Vec<Envelope>>,
    /// Per-origin contiguous-prefix watermarks.
    watermarks: BTreeMap<NodeId, (u64, u64)>,
    replica: ReplicaTable,
    reprofile: ReprofileScheduler,
    published: HashMap<u64, PublishedState>,
    spans: SpanSink,
    span_count: u64,
}

impl std::fmt::Debug for FleetNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetNode")
            .field("id", &self.id)
            .field("platform", &self.platform.name)
            .field("generation", &self.generation)
            .field("next_seq", &self.next_seq)
            .field("replica_len", &self.replica.len())
            .finish_non_exhaustive()
    }
}

impl FleetNode {
    /// Starts (or restarts) a node over the journal at
    /// `store_root/node<id>`.
    ///
    /// Start always checkpoints first: the snapshot generation strictly
    /// increases, and the node's envelope epoch is that generation — so
    /// a restarted node can never reuse a `(generation, seq)` pair its
    /// previous life already published (epoch fencing). The recovered
    /// table is republished wholesale at the new epoch; peers supersede
    /// the old-generation facts by version order and converge.
    pub fn start(
        id: NodeId,
        platform: Platform,
        config: EasConfig,
        store_root: &Path,
        machine_seed: u64,
        reprofile_budget: usize,
    ) -> Result<FleetNode, StoreError> {
        FleetNode::start_with(
            id,
            platform,
            config,
            store_root,
            machine_seed,
            reprofile_budget,
            Arc::new(StdFs),
        )
    }

    /// [`start`](FleetNode::start) with an explicit [`Vfs`], so a fleet
    /// run can put each node's journal on its own fault-injecting
    /// filesystem (DESIGN.md §16).
    ///
    /// The start-time fencing checkpoint is retried a few times under
    /// injected faults (each attempt advances the chaos op stream). If
    /// the disk stays down the node still starts — degraded, with an
    /// in-memory epoch bump standing in for the durable one, so this
    /// life's envelopes cannot collide with the recovered generation.
    #[allow(clippy::too_many_arguments)]
    pub fn start_with(
        id: NodeId,
        platform: Platform,
        config: EasConfig,
        store_root: &Path,
        machine_seed: u64,
        reprofile_budget: usize,
        vfs: Arc<dyn Vfs>,
    ) -> Result<FleetNode, StoreError> {
        let store_dir = store_root.join(format!("node{id}"));
        let model = characterize(&platform, &CharacterizationConfig::default());
        let shared = EasScheduler::open(model, config, &store_dir, vfs)?.into_shared();
        let mut fenced = false;
        for _ in 0..START_CHECKPOINT_RETRIES {
            if shared.checkpoint().is_ok() {
                fenced = true;
                break;
            }
        }
        let store = shared.store().expect("open attaches a store");
        let generation = if fenced {
            store.generation()
        } else {
            store.generation() + 1
        };
        let machine = Machine::with_seed(platform.clone(), machine_seed);
        let mut node = FleetNode {
            id,
            platform,
            stats: FleetStats::default(),
            machine,
            shared,
            store_dir,
            generation,
            next_seq: 1,
            logs: BTreeMap::new(),
            watermarks: BTreeMap::new(),
            replica: ReplicaTable::new(),
            reprofile: ReprofileScheduler::new(reprofile_budget),
            published: HashMap::new(),
            spans: SpanSink::new(512, machine_seed),
            span_count: 0,
        };
        // Republish the recovered table at the new epoch so peers learn
        // this life's state even if they missed the previous one.
        node.publish_local();
        Ok(node)
    }

    /// The scheduler (for table/health inspection in tests and reports).
    pub fn shared(&self) -> &Arc<SharedEas> {
        &self.shared
    }

    /// The node's journal directory.
    pub fn store_dir(&self) -> &Path {
        &self.store_dir
    }

    /// The node's current epoch.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The convergent replica.
    pub fn replica(&self) -> &ReplicaTable {
        &self.replica
    }

    /// Replication spans recorded so far (kind
    /// [`SpanKind::Replication`], `tenant` = node id).
    pub fn spans(&self) -> Vec<Span> {
        self.spans.snapshot()
    }

    /// Kernels queued for re-profiling after replicated taints.
    pub fn reprofile_pending(&self) -> usize {
        self.reprofile.pending()
    }

    /// Runs one kernel invocation on this node's machine through the
    /// shared scheduler (profiling, α decision, journaling — the full
    /// single-node pipeline, untouched by replication).
    pub fn run_invocation(
        &mut self,
        kernel: u64,
        traits: &KernelTraits,
        items: u64,
        invocation_seed: u64,
    ) {
        let mut backend = SimBackend::new(&mut self.machine, traits, items, None, invocation_seed);
        self.shared.schedule_shared(kernel, &mut backend);
    }

    /// Checkpoints the journal (normal shutdown; a crash skips this).
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        self.shared.checkpoint()
    }

    /// This node's storage-health counters (DESIGN.md §16).
    pub fn store_health(&self) -> StoreHealth {
        self.shared
            .store()
            .expect("fleet nodes always persist")
            .health()
    }

    /// Quarantines a kernel locally (the fault pipeline's taint) so the
    /// next [`publish_local`](FleetNode::publish_local) streams it out.
    pub fn taint_local(&mut self, kernel: u64) {
        self.shared.table().taint(kernel);
    }

    /// Diffs the local table against what was last published and emits
    /// an envelope per change: `Put` when the learned state moved,
    /// `Taint` when only the quarantine flag flipped on. Envelopes
    /// self-apply immediately, so a node's own knowledge is part of its
    /// replica (and digest) without a network round-trip.
    pub fn publish_local(&mut self) {
        let mut snapshot = self.shared.table().snapshot_with_taint();
        // Shard iteration order is not deterministic; the wire order
        // must be.
        snapshot.sort_by_key(|(kernel, _, _)| *kernel);
        for (kernel, stat, tainted) in snapshot {
            let state = PublishedState {
                alpha_bits: stat.alpha.to_bits(),
                weight_bits: stat.weight.to_bits(),
                seen: stat.invocations_seen,
                tainted,
            };
            let prev = self.published.get(&kernel).copied();
            if prev == Some(state) {
                continue;
            }
            let stat_moved = prev.is_none_or(|p| {
                p.alpha_bits != state.alpha_bits
                    || p.weight_bits != state.weight_bits
                    || p.seen != state.seen
            });
            let op = if stat_moved {
                Op::Put {
                    kernel,
                    alpha: stat.alpha,
                    weight: stat.weight,
                    seen: stat.invocations_seen,
                    tainted,
                }
            } else {
                // Only the flag flipped. A flip *off* without a stat move
                // cannot happen (untainting goes through accumulate), but
                // degrade to a Put if it ever does.
                if tainted {
                    Op::Taint { kernel }
                } else {
                    Op::Put {
                        kernel,
                        alpha: stat.alpha,
                        weight: stat.weight,
                        seen: stat.invocations_seen,
                        tainted,
                    }
                }
            };
            self.published.insert(kernel, state);
            let env = Envelope {
                origin: self.id,
                platform: self.platform.name.to_string(),
                generation: self.generation,
                seq: self.next_seq,
                op,
            };
            self.next_seq += 1;
            self.watermarks.insert(self.id, (env.generation, env.seq));
            self.replica.apply(&env);
            self.logs.entry(self.id).or_default().push(env);
        }
    }

    /// The pull request this node sends each peer: its watermark vector.
    pub fn request_frame(&self, to: NodeId) -> Frame {
        let wants = self
            .watermarks
            .iter()
            .map(|(&origin, &(generation, seq))| (origin, generation, seq))
            .collect();
        Frame::request(self.id, to, wants)
    }

    /// Answers a peer's pull: for every origin this node has a log for,
    /// every envelope strictly above the peer's watermark, in
    /// `(generation, seq)` order, capped at [`MAX_ENTRIES_PER_FRAME`].
    pub fn answer_request(&self, from: NodeId, wants: &[(NodeId, u64, u64)]) -> Option<Frame> {
        let want_of = |origin: NodeId| -> (u64, u64) {
            wants
                .iter()
                .find(|(o, _, _)| *o == origin)
                .map(|&(_, g, s)| (g, s))
                .unwrap_or((0, 0))
        };
        let mut batch = Vec::new();
        for (&origin, log) in &self.logs {
            let (g, s) = want_of(origin);
            for env in log {
                if (env.generation, env.seq) > (g, s) {
                    batch.push(env.clone());
                    if batch.len() >= MAX_ENTRIES_PER_FRAME {
                        return Some(Frame::entries(self.id, from, batch));
                    }
                }
            }
        }
        (!batch.is_empty()).then(|| Frame::entries(self.id, from, batch))
    }

    /// Ingests one entries batch: contiguous-prefix admission per origin,
    /// max-merge into the replica, and local integration (priors,
    /// taints, reprofile queue). Returns how many envelopes advanced a
    /// watermark this pass.
    pub fn ingest_entries(&mut self, envelopes: &[Envelope], now_tick: u64) -> u64 {
        let mut advanced = 0u64;
        for env in envelopes {
            let wm = self.watermarks.get(&env.origin).copied().unwrap_or((0, 0));
            let admissible = (env.generation == wm.0 && env.seq == wm.1 + 1)
                || (env.generation > wm.0 && env.seq == 1);
            if !admissible {
                let stale = env.generation < wm.0 || (env.generation == wm.0 && env.seq <= wm.1);
                if stale {
                    self.stats.entries_rejected_stale += 1;
                } else {
                    self.stats.entries_deferred_gap += 1;
                }
                continue;
            }
            self.watermarks
                .insert(env.origin, (env.generation, env.seq));
            self.logs.entry(env.origin).or_default().push(env.clone());
            if let Applied::Advanced { conflict } = self.replica.apply(env) {
                if conflict {
                    self.stats.conflicts_resolved += 1;
                }
            }
            self.stats.entries_applied += 1;
            advanced += 1;
            if env.origin != self.id {
                self.integrate(env);
            }
        }
        self.emit_span(advanced, now_tick);
        advanced
    }

    /// Folds one foreign envelope into local scheduler state. Never
    /// writes learned table entries directly: untainted knowledge becomes
    /// a warm-start prior at most (profiling still runs, DESIGN.md §15);
    /// taints quarantine and queue a batched re-profile.
    fn integrate(&mut self, env: &Envelope) {
        let kernel = env.op.kernel();
        let tainted = match env.op {
            Op::Put { tainted, .. } => tainted,
            Op::Taint { .. } => true,
        };
        if tainted {
            self.stats.taints_replicated += 1;
            // A remote taint invalidates any hint derived from remote
            // knowledge, quarantines the local entry when the platform
            // matches (same silicon, same suspicion), and queues a
            // re-measurement — budgeted, so a taint storm cannot stall
            // the node.
            self.shared.table().clear_prior(kernel);
            if env.platform == self.platform.name {
                self.shared.table().taint(kernel);
            }
            if self.reprofile.enqueue(kernel) {
                self.stats.reprofiles_scheduled += 1;
            }
            return;
        }
        if let Op::Put { alpha, .. } = env.op {
            let table = self.shared.table();
            if alpha.is_finite() && table.stat(kernel).is_none() && table.prior(kernel).is_none() {
                table.set_prior(kernel, alpha);
                self.stats.priors_applied += 1;
            }
        }
    }

    /// Releases this round's reprofile batch: each released kernel's
    /// local entry is tainted so the scheduler re-profiles it on its next
    /// invocation (measurement, never belief transfer).
    pub fn release_reprofiles(&mut self) {
        for kernel in self.reprofile.take_batch() {
            if self.shared.table().stat(kernel).is_some() {
                self.shared.table().taint(kernel);
            }
        }
    }

    fn emit_span(&mut self, applied: u64, now_tick: u64) {
        self.span_count += 1;
        let mut span = [Span {
            seq: 0,
            trace: now_tick,
            kernel: 0,
            id: self.span_count as u16,
            parent: 0,
            kind: SpanKind::Replication,
            tenant: self.id,
            start: now_tick as f64,
            dur: 0.0,
            payload: applied as f64,
        }];
        self.spans.push_batch(now_tick, &mut span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FramePayload;
    use easched_core::Objective;

    fn test_node(id: NodeId, dir: &Path) -> FleetNode {
        FleetNode::start(
            id,
            Platform::haswell_desktop(),
            EasConfig::new(Objective::EnergyDelay),
            dir,
            1000 + u64::from(id),
            2,
        )
        .expect("node starts")
    }

    fn traits() -> KernelTraits {
        KernelTraits::builder("t")
            .cpu_rate(1.0e6)
            .gpu_rate(2.0e6)
            .build()
    }

    #[test]
    fn invocation_learns_and_publishes() {
        let dir = std::env::temp_dir().join(format!("fleet-node-pub-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut n = test_node(0, &dir);
        n.run_invocation(7, &traits(), 120_000, 1);
        n.publish_local();
        assert!(n.shared().learned_alpha(7).is_some());
        let entry = n.replica().entry("haswell-desktop", 7).expect("replica");
        assert_eq!(entry.alpha, n.shared().learned_alpha(7));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_bumps_the_epoch_and_republishes() {
        let dir = std::env::temp_dir().join(format!("fleet-node-epoch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut n = test_node(0, &dir);
        n.run_invocation(7, &traits(), 120_000, 1);
        n.publish_local();
        let gen1 = n.generation();
        let alpha = n.shared().learned_alpha(7);
        drop(n); // crash: no checkpoint
        let n2 = test_node(0, &dir);
        assert!(n2.generation() > gen1, "epoch fencing");
        assert_eq!(n2.shared().learned_alpha(7), alpha, "journal recovery");
        let entry = n2
            .replica()
            .entry("haswell-desktop", 7)
            .expect("republished");
        assert_eq!(entry.alpha, alpha);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pull_round_trip_moves_entries() {
        let base = std::env::temp_dir().join(format!("fleet-node-pull-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let mut a = test_node(0, &base.join("a"));
        let mut b = test_node(1, &base.join("b"));
        a.run_invocation(7, &traits(), 120_000, 1);
        a.publish_local();
        let req = b.request_frame(0);
        let FramePayload::Request(wants) = &req.payload else {
            panic!("request frame");
        };
        let ent = a.answer_request(1, wants).expect("has news");
        let FramePayload::Entries(envs) = &ent.payload else {
            panic!("entries frame");
        };
        let applied = b.ingest_entries(envs, 0);
        assert!(applied > 0);
        assert_eq!(a.replica().digest(), b.replica().digest());
        // Re-ingesting the same batch is a no-op (idempotent).
        let again = b.ingest_entries(envs, 1);
        assert_eq!(again, 0);
        assert!(b.stats.entries_rejected_stale > 0);
        assert_eq!(a.replica().digest(), b.replica().digest());
        // B emitted replication spans, tenant-tagged with its id.
        let spans = b.spans();
        assert!(!spans.is_empty());
        assert!(spans
            .iter()
            .all(|s| s.kind == SpanKind::Replication && s.tenant == 1));
        let _ = std::fs::remove_dir_all(&base);
    }
}

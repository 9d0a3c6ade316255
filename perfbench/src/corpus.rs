//! Seeded inputs, prepared storage directories, server set-up, and the
//! offline estimator replay the correctness checks compare against.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vsj_core::LshSs;
use vsj_sampling::{Rng, Xoshiro256};
use vsj_server::{Server, ServerConfig};
use vsj_service::{
    DurabilityOptions, EstimationEngine, GlobalId, ServiceConfig, ServiceEstimate, Snapshot,
    StorageTier,
};
use vsj_vector::{Cosine, Similarity, SparseVector};

use crate::common::{ms, Ledger, SpanId, Tracer, FSYNC};

/// One write of a WAL tail or of the ingest workload's op log.
#[derive(Clone)]
pub enum WriteOp {
    Insert(SparseVector),
    Upsert(GlobalId, SparseVector),
    Remove(GlobalId),
}

impl WriteOp {
    /// Applies the write; `false` when an upsert or remove found no
    /// live row under its id.
    pub fn apply(&self, engine: &EstimationEngine) -> bool {
        match self {
            Self::Insert(v) => {
                engine.insert(v.clone());
                true
            }
            Self::Upsert(id, v) => engine.upsert(*id, v.clone()),
            Self::Remove(id) => engine.remove(*id),
        }
    }
}

/// A WAL tail of `total` writes over base rows `0..base_rows`: half
/// inserts (drawn from `fresh`), 30% upserts and 20% removes of
/// distinct base rows.
pub fn wal_tail(
    base_rows: usize,
    total: usize,
    fresh: &[SparseVector],
    rng: &mut Xoshiro256,
) -> Vec<WriteOp> {
    let upserts = total * 3 / 10;
    let removes = total / 5;
    let inserts = total - upserts - removes;
    let mut ids: Vec<GlobalId> = (0..base_rows as GlobalId).collect();
    rng.shuffle(&mut ids);
    let mut fresh = fresh.iter().cycle();
    let mut next = || fresh.next().expect("non-empty fresh rows").clone();
    let mut ops: Vec<WriteOp> = (0..inserts).map(|_| WriteOp::Insert(next())).collect();
    for _ in 0..upserts {
        ops.push(WriteOp::Upsert(ids.pop().expect("base rows left"), next()));
    }
    for _ in 0..removes {
        ops.push(WriteOp::Remove(ids.pop().expect("base rows left")));
    }
    rng.shuffle(&mut ops);
    ops
}

pub fn durability(tier: StorageTier) -> DurabilityOptions {
    DurabilityOptions {
        fsync: FSYNC,
        storage_tier: tier,
        ..DurabilityOptions::default()
    }
}

/// Builds a storage directory: base rows, checkpoint, then a WAL tail
/// past the checkpoint and an explicit publish.
pub fn prepare_dir(config: ServiceConfig, dir: &Path, base: &[SparseVector], tail: &[WriteOp]) {
    let engine = EstimationEngine::durable_with(config, dir, durability(StorageTier::Heap))
        .expect("fresh durable engine");
    engine.insert_batch(base.iter().cloned());
    engine.publish();
    engine.checkpoint().expect("checkpoint the base");
    for op in tail {
        assert!(op.apply(&engine), "WAL tail writes target live rows");
    }
    engine.publish();
}

/// Starts a server with every thread knob pinned, shedding off, and a
/// deadline far beyond any op, so that only a program fault fails a
/// request.
pub fn start_server(engine: EstimationEngine, workers: usize) -> Server {
    let config = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .workers(workers)
        .default_deadline(Duration::from_secs(60))
        .checkpoint_on_shutdown(false)
        .build();
    Server::start(Arc::new(engine), config).expect("start the server")
}

/// The offline LSH-SS pass a served batch answer at `snapshot`'s epoch
/// must equal bit for bit.
pub fn replay(engine: &EstimationEngine, snapshot: &Snapshot, tau: f64) -> f64 {
    replay_at(engine, snapshot, snapshot.epoch(), tau)
}

/// [`replay`] over `snapshot`'s rows with the sampling stream of
/// `epoch`: what a later epoch over unchanged rows must answer.
pub fn replay_at(engine: &EstimationEngine, snapshot: &Snapshot, epoch: u64, tau: f64) -> f64 {
    let est = LshSs {
        config: engine.estimator_config(snapshot.len()),
    };
    let mut rng = engine.batch_rng(epoch);
    est.estimate_curve_detailed(snapshot, snapshot, &Cosine, &[tau], &mut rng)[0]
        .estimate
        .value
}

/// A distinct threshold per call, on a 1e-4 grid over `[0.30, 0.95)`.
pub struct Thresholds {
    grid: Vec<f64>,
}

impl Thresholds {
    pub fn new(rng: &mut Xoshiro256) -> Self {
        let mut grid: Vec<f64> = (3000..9500).map(|i| i as f64 / 10_000.0).collect();
        rng.shuffle(&mut grid);
        Self { grid }
    }

    pub fn next(&mut self) -> f64 {
        self.grid.pop().expect("threshold grid exhausted")
    }
}

/// Cosine cost per pair, in ns: median over five timed sweeps of the
/// same seeded pair sample.
pub fn cosine_ns_per_pair(rows: &[SparseVector], rng: &mut Xoshiro256) -> f64 {
    const PAIRS: usize = 20_000;
    let pairs: Vec<(usize, usize)> = (0..PAIRS)
        .map(|_| (rng.below_usize(rows.len()), rng.below_usize(rows.len())))
        .collect();
    let mut sweeps = Vec::new();
    for _ in 0..5 {
        let start = std::time::Instant::now();
        let mut acc = 0.0;
        for &(a, b) in &pairs {
            acc += Cosine.sim(&rows[a], &rows[b]);
        }
        std::hint::black_box(acc);
        sweeps.push(start.elapsed().as_secs_f64() * 1e9 / PAIRS as f64);
    }
    crate::common::median(&sweeps)
}

/// Recovery times of one directory on both tiers, per restart.
#[derive(Default)]
pub struct ReadyTimes {
    pub recover_heap_ms: Vec<f64>,
    pub first_heap_ms: Vec<f64>,
    pub recover_mapped_ms: Vec<f64>,
    pub first_mapped_ms: Vec<f64>,
    /// Pool tasks and steals of the heap engines, summed.
    pub heap_pool_tasks: u64,
    pub heap_pool_steals: u64,
}

impl ReadyTimes {
    /// Median over restarts of recovery plus first answer on the heap tier.
    pub fn heap_ms(&self) -> f64 {
        sums_median(&self.recover_heap_ms, &self.first_heap_ms)
    }

    /// The same on the mapped tier.
    pub fn mapped_ms(&self) -> f64 {
        sums_median(&self.recover_mapped_ms, &self.first_mapped_ms)
    }
}

fn sums_median(a: &[f64], b: &[f64]) -> f64 {
    let sums: Vec<f64> = a.iter().zip(b).map(|(x, y)| x + y).collect();
    crate::common::median(&sums)
}

/// Restarts `dir` on the heap tier, answers `tau`, and drops the engine;
/// then restarts it on the mapped tier and answers `tau` again. The two
/// first answers must be equal. Returns the mapped engine and its answer.
pub fn restart_both(
    dir: &Path,
    tau: f64,
    threads: usize,
    times: &mut ReadyTimes,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Option<(EstimationEngine, ServiceEstimate)> {
    let heap = first_answer(dir, StorageTier::Heap, tau, times, ledger, tracer, parent);
    let (heap, heap_answer) = heap?;
    let stats = heap.stats();
    ledger.check(stats.pool_threads == threads, || {
        format!("engine pool has {} threads", stats.pool_threads)
    });
    times.heap_pool_tasks += stats.pool_tasks;
    times.heap_pool_steals += stats.pool_steals;
    drop(heap);
    let (mapped, answer) =
        first_answer(dir, StorageTier::Mapped, tau, times, ledger, tracer, parent)?;
    ledger.check(mapped.storage_tier() == StorageTier::Mapped, || {
        "recovery did not engage the mapped tier".into()
    });
    ledger.check(!answer.cached && heap_answer == answer, || {
        format!("first answers differ: heap {heap_answer:?}, mapped {answer:?}")
    });
    Some((mapped, answer))
}

fn first_answer(
    dir: &Path,
    tier: StorageTier,
    tau: f64,
    times: &mut ReadyTimes,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Option<(EstimationEngine, ServiceEstimate)> {
    let (op, first) = match tier {
        StorageTier::Heap => ("recover_heap", "first_estimate_heap"),
        StorageTier::Mapped => ("recover_mapped", "first_estimate_mapped"),
    };
    let span = tracer.begin(op, parent);
    let recovered = ledger.timed(op, || EstimationEngine::recover_with(dir, durability(tier)));
    tracer.end(span);
    let (engine, took) = recovered?;
    let start = Instant::now();
    let answer = tracer.span(first, parent, || engine.estimate_batch(&[tau]))[0];
    let first_ms = ms(start.elapsed());
    match tier {
        StorageTier::Heap => {
            times.recover_heap_ms.push(ms(took));
            times.first_heap_ms.push(first_ms);
        }
        StorageTier::Mapped => {
            times.recover_mapped_ms.push(ms(took));
            times.first_mapped_ms.push(first_ms);
        }
    }
    Some((engine, answer))
}

/// Times `engine.compact()`. A compaction publishes a new epoch over
/// unchanged rows; with `check`, the folded base must answer `tau` at
/// that epoch bit-equal to the rows before the fold.
pub fn fold(
    engine: &EstimationEngine,
    tau: f64,
    check: bool,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Option<f64> {
    let before = engine.snapshot();
    let span = tracer.begin("compact", parent);
    let compacted = ledger.timed("compact", || engine.compact());
    tracer.end(span);
    let (_, took) = compacted?;
    if check {
        let after = engine.snapshot();
        let want = tracer.span("core.lshss.pass", parent, || {
            replay_at(engine, &before, after.epoch(), tau)
        });
        let got = replay(engine, &after, tau);
        ledger.check(want.to_bits() == got.to_bits(), || {
            format!(
                "epoch {}: folded base answers {got}, rows before the fold {want}",
                after.epoch()
            )
        });
    }
    Some(ms(took))
}

//! `restart`: cold start and compaction, in-process with no wire, on a
//! directory larger than a core's L2 cache. Checkpoint decode, table
//! rebuild, mmap validation, lazy row materialization and the fold's
//! encode do the work; no server or ingest code runs in the timed
//! cycle.

use std::path::Path;
use std::time::{Duration, Instant};

use vsj_datasets::DblpLike;
use vsj_pool::WorkPool;
use vsj_sampling::Xoshiro256;
use vsj_service::persist::{
    encode_checkpoint_with, read_checkpoint, CheckpointMeta, CHECKPOINT_FILE,
};

use crate::common::{
    copy_dir, derive_seed, median, ms, us, Ledger, Outcome, Settings, Tracer, SETUP_REPS,
};
use crate::corpus::{cosine_ns_per_pair, fold, prepare_dir, restart_both, wal_tail, Thresholds};
use crate::metrics::{EndToEnd, Layers};

const ROWS: usize = 100_000;
/// WAL tail past the checkpoint: 5% of the base.
const TAIL: usize = ROWS / 20;
/// Cached repeats of the first threshold on the mapped engine, timed in
/// batches: one sample is the mean over a batch, because a single hit
/// takes well under a microsecond.
const CACHED_BATCHES: usize = 10;
const CACHED_BATCH: usize = 100;
/// New thresholds asked of the warm mapped engine.
const FRESH_PER_CYCLE: usize = 2;

/// What only the traced cycles record.
#[derive(Default)]
struct Probes {
    decode_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    encoded_bytes_per_row: f64,
    compact_bytes: f64,
    pairs_per_pass: f64,
    pool_tasks: u64,
    pool_steals: u64,
}

/// Restart on both tiers, cached repeats and fresh thresholds on the
/// mapped engine, then a compaction — on a fresh copy of `prepared`.
/// Every copy is identical, so the fold is checked on the first cycle
/// of a phase only. Returns the time spent in timed operations.
#[allow(clippy::too_many_arguments)]
fn cycle(
    s: &Settings,
    prepared: &Path,
    taus: &mut Thresholds,
    e2e: &mut EndToEnd,
    probes: &mut Probes,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    pool: &WorkPool,
) -> Duration {
    let dir = s.work_dir.join("cycle");
    copy_dir(prepared, &dir);
    let root = tracer.begin("cycle", Tracer::root());
    if s.trace {
        let start = Instant::now();
        tracer.span("persist.decode", root, || {
            read_checkpoint(&dir).expect("decode the checkpoint")
        });
        probes.decode_ms.push(ms(start.elapsed()));
    }
    let tau = taus.next();
    let restarted = restart_both(&dir, tau, s.threads, &mut e2e.ready, ledger, tracer, root);
    let Some((mapped, first)) = restarted else {
        return Duration::ZERO;
    };
    let ready = &e2e.ready;
    let mut timed = Duration::from_secs_f64(
        [
            &ready.recover_heap_ms,
            &ready.first_heap_ms,
            &ready.recover_mapped_ms,
            &ready.first_mapped_ms,
        ]
        .iter()
        .map(|v| v.last().copied().unwrap_or(0.0))
        .sum::<f64>()
            / 1e3,
    );

    for _ in 0..CACHED_BATCHES {
        let start = Instant::now();
        let again = tracer.span("service.estimate_batch.hit", root, || {
            let mut again = Vec::new();
            for _ in 0..CACHED_BATCH {
                again = mapped.estimate_batch(&[tau]);
            }
            again
        })[0];
        timed += start.elapsed();
        let at = e2e.seconds + timed.as_secs_f64();
        e2e.cached_us
            .push(at, us(start.elapsed()) / CACHED_BATCH as f64);
        ledger.check(
            again.cached && again.estimate.value.to_bits() == first.estimate.value.to_bits(),
            || format!("repeat of τ={tau} not served from the cache"),
        );
    }
    for _ in 0..FRESH_PER_CYCLE {
        let tau = taus.next();
        let start = Instant::now();
        let fresh = tracer.span("estimate.fresh", root, || mapped.estimate_batch(&[tau]))[0];
        timed += start.elapsed();
        let at = e2e.seconds + timed.as_secs_f64();
        e2e.fresh_ms.push(at, ms(start.elapsed()));
        ledger.check(!fresh.cached, || format!("fresh τ={tau} served from cache"));
    }

    let before = mapped.snapshot();
    if s.trace {
        let meta = CheckpointMeta {
            epoch: before.epoch(),
            ingested: before.ingested(),
            next_id: 0,
            applied_seq: 0,
            publishes: 0,
            config: *mapped.config(),
        };
        let start = Instant::now();
        let bytes = tracer.span("persist.encode", root, || {
            encode_checkpoint_with(&meta, &before, pool)
        });
        probes.encode_ms.push(ms(start.elapsed()));
        probes.encoded_bytes_per_row = bytes.len() as f64 / before.len().max(1) as f64;
    }
    if let Some(took) = fold(&mapped, tau, e2e.ops.len() == 0, ledger, tracer, root) {
        timed += Duration::from_secs_f64(took / 1e3);
        e2e.checkpoint_ms.push(took);
        probes.compact_bytes =
            std::fs::metadata(dir.join(CHECKPOINT_FILE)).map_or(0.0, |m| m.len() as f64);
    }
    let stats = mapped.stats();
    probes.pool_tasks += stats.pool_tasks;
    probes.pairs_per_pass = stats.sampled_pairs as f64 / stats.sampling_passes.max(1) as f64;
    probes.pool_steals += stats.pool_steals;
    drop((mapped, before));
    tracer.end(root);
    std::fs::remove_dir_all(&dir).expect("remove a cycle directory");
    timed
}

/// Cycles until `seconds` of timed work (at least three cycles).
fn cycles(
    s: &Settings,
    prepared: &Path,
    taus: &mut Thresholds,
    e2e: &mut EndToEnd,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) -> Probes {
    let pool = WorkPool::new(s.threads);
    let mut probes = Probes::default();
    while e2e.seconds < s.phase_seconds() || e2e.ops.len() < 3 {
        let timed = cycle(s, prepared, taus, e2e, &mut probes, ledger, tracer, &pool);
        e2e.seconds += timed.as_secs_f64();
        e2e.ops.push(e2e.seconds, 1.0);
    }
    probes
}

pub fn run(s: &Settings) -> Outcome {
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new();
    let mut rng = Xoshiro256::seeded(derive_seed(s.seed, 1));
    let rows = DblpLike::with_size(ROWS + TAIL)
        .generate(derive_seed(s.seed, 2))
        .into_vectors();
    let (base, spare) = rows.split_at(ROWS);
    let tail = wal_tail(ROWS, TAIL, spare, &mut rng);
    let config = s.engine_config(derive_seed(s.seed, 3));
    let mut taus = Thresholds::new(&mut rng);

    let mut e2e = EndToEnd::default();
    for rep in 0..SETUP_REPS {
        let dir = s.fresh_dir(&format!("prepared-{rep}"));
        let start = Instant::now();
        prepare_dir(config, &dir, base, &tail);
        e2e.setup_s.push(start.elapsed().as_secs_f64());
        if rep > 0 {
            std::fs::remove_dir_all(s.work_dir.join(format!("prepared-{}", rep - 1)))
                .expect("remove a set-up directory");
        }
    }
    let prepared = s.work_dir.join(format!("prepared-{}", SETUP_REPS - 1));

    cycles(s, &prepared, &mut taus, &mut e2e, &mut ledger, &mut tracer);
    let mut layers = Layers::new();
    if s.trace {
        let untraced_ready = e2e.ready.mapped_ms();
        let mut traced = EndToEnd::default();
        tracer.set_on(true);
        let probes = cycles(
            s,
            &prepared,
            &mut taus,
            &mut traced,
            &mut ledger,
            &mut tracer,
        );
        let cosine = cosine_ns_per_pair(base, &mut rng);
        layers.set(
            "trace.overhead_pct",
            (traced.ready.mapped_ms() / untraced_ready - 1.0) * 100.0,
        );
        let pairs = probes.pairs_per_pass;
        let per = (CACHED_BATCHES * CACHED_BATCH) as f64;
        layers.set(
            "service.cache.hit_ratio",
            per / (per + 1.0 + FRESH_PER_CYCLE as f64),
        );
        layers.set(
            "service.cache.hit_us_p50",
            median(&traced.cached_us.values()),
        );
        layers.set("core.lshss.pairs_per_pass", pairs);
        layers.set_pass(median(&tracer.durations_ms("core.lshss.pass")));
        layers.set("vector.cosine_ns_per_pair", cosine);
        layers.set(
            "service.mapped.fresh_over_heap",
            median(&traced.ready.first_mapped_ms) / median(&traced.ready.first_heap_ms),
        );
        layers.set("service.persist.encode_ms", median(&probes.encode_ms));
        layers.set(
            "service.persist.checkpoint_bytes_per_row",
            probes.encoded_bytes_per_row,
        );
        layers.set("service.persist.decode_ms", median(&probes.decode_ms));
        layers.set_ready(&traced.ready);
        layers.set("service.compact_bytes_rewritten", probes.compact_bytes);
        let n = traced.ops.len().max(1) as f64;
        layers.set(
            "pool.tasks",
            (probes.pool_tasks + traced.ready.heap_pool_tasks) as f64 / n,
        );
        layers.set(
            "pool.steals",
            (probes.pool_steals + traced.ready.heap_pool_steals) as f64 / n,
        );
    }

    let mut outcome = Outcome::new(ledger);
    outcome.note(
        "corpus",
        format!("dblp-like rows={ROWS} wal_tail={TAIL} (50% insert, 30% upsert, 20% remove)"),
    );
    outcome.note("tier", "heap, then mapped");
    outcome.note(
        "op_mix",
        format!(
            "per cycle on a fresh copy: heap restart + first estimate, mapped restart + first \
             estimate, {} cached repeats, {FRESH_PER_CYCLE} fresh estimates, \
             compact",
            CACHED_BATCHES * CACHED_BATCH
        ),
    );
    outcome.note("samples", format!("cycles={}", e2e.ops.len()));
    e2e.set_tails(&mut layers);
    outcome.metrics = if s.trace {
        outcome.tracer = Some(tracer);
        layers.into_metrics()
    } else {
        e2e.into_metrics()
    };
    outcome
}

//! `ingest_mixed`: durable wire writes beside reads on the heap tier.
//! Sparse DBLP-like rows, so the wire's vector decode, hashing, WAL
//! append, shard apply, both publish paths and checkpoint encode do the
//! work, while fresh reads are cheap sparse heap passes.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use vsj_datasets::DblpLike;
use vsj_lsh::{Composite, SimHashFamily};
use vsj_pool::WorkPool;
use vsj_sampling::{Rng, Xoshiro256};
use vsj_server::Client;
use vsj_service::persist::{encode_checkpoint_with, CheckpointMeta};
use vsj_service::{EstimationEngine, GlobalId, StorageTier};
use vsj_vector::SparseVector;

use crate::common::{
    copy_dir, derive_seed, dir_bytes, is_wal_segment, median, ms, percentile, us, Ledger, Outcome,
    Settings, SpanId, Tracer, HASH_K, SETUP_REPS,
};
use crate::corpus::{
    cosine_ns_per_pair, durability, replay, restart_both, start_server, ReadyTimes, Thresholds,
    WriteOp,
};
use crate::metrics::{EndToEnd, Layers};
use crate::reads::{cache_hits, wire, Reads};

const BASE_ROWS: usize = 20_000;
/// Rows available to inserts and upserts, reused cyclically.
const SPARE_ROWS: usize = 5_000;
/// Append-only round: inserts, then a publish on the delta path.
const APPEND_INSERTS: usize = 100;
/// Churn round: inserts, upserts and removes, then a publish on the
/// full path. Removes balance the inserts of a round pair, so the live
/// row count stays at the base size.
const CHURN_INSERTS: usize = 50;
const CHURN_UPSERTS: usize = 50;
const CHURN_REMOVES: usize = APPEND_INSERTS + CHURN_INSERTS;
/// Cached repeats after each round's fresh estimate.
const CACHED_PER_ROUND: usize = 4;
/// A wire checkpoint after every n-th round.
const CHECKPOINT_EVERY: u64 = 4;
/// Every n-th fresh answer is replayed offline.
const CHECK_EVERY: u64 = 4;
/// Restarts of copies of the live directory on each tier.
const READY_REPS: usize = 15;

/// What the twins replay: every acknowledged write and maintenance op.
#[derive(Clone)]
enum Logged {
    Write(WriteOp),
    Publish,
    Checkpoint,
}

struct Session {
    client: Client,
    dir: PathBuf,
    engine: Arc<EstimationEngine>,
    live: Vec<GlobalId>,
    spare: std::iter::Cycle<std::vec::IntoIter<SparseVector>>,
    log: Vec<Logged>,
    rounds: u64,
    last: Option<crate::reads::Answer>,
}

struct Phase {
    reads: Reads,
    insert_us: Vec<f64>,
    publish_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    /// Length in seconds of timed work.
    seconds: f64,
}

/// One write round over the wire, then its publish, reads and (every
/// few rounds) a checkpoint.
fn round(
    session: &mut Session,
    phase: &mut Phase,
    taus: &mut Thresholds,
    rng: &mut Xoshiro256,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) {
    let churn = session.rounds % 2 == 1;
    let parent = tracer.begin(
        if churn { "round.churn" } else { "round.append" },
        Tracer::root(),
    );
    let mut kinds: Vec<u8> = if churn {
        [0u8; CHURN_INSERTS]
            .into_iter()
            .chain([1u8; CHURN_UPSERTS])
            .chain([2u8; CHURN_REMOVES])
            .collect()
    } else {
        vec![0u8; APPEND_INSERTS]
    };
    rng.shuffle(&mut kinds);
    let client = &mut session.client;
    for kind in kinds {
        let op = match kind {
            0 => {
                let v = session.spare.next().expect("spare rows");
                let Some((id, took)) =
                    wire(ledger, tracer, parent, "wire.insert", || client.insert(&v))
                else {
                    continue;
                };
                phase.insert_us.push(us(took));
                session.live.push(id);
                WriteOp::Insert(v)
            }
            1 => {
                let id = *rng.choose(&session.live);
                let v = session.spare.next().expect("spare rows");
                let Some((replaced, _)) = wire(ledger, tracer, parent, "wire.upsert", || {
                    client.upsert(id, &v)
                }) else {
                    continue;
                };
                ledger.check(replaced, || {
                    format!("upsert of live row {id} replaced nothing")
                });
                WriteOp::Upsert(id, v)
            }
            _ => {
                let id = session
                    .live
                    .swap_remove(rng.below_usize(session.live.len()));
                let Some((removed, _)) =
                    wire(ledger, tracer, parent, "wire.remove", || client.remove(id))
                else {
                    continue;
                };
                ledger.check(removed, || {
                    format!("remove of live row {id} removed nothing")
                });
                WriteOp::Remove(id)
            }
        };
        phase.reads.op();
        session.log.push(Logged::Write(op));
    }
    if let Some((_, took)) = wire(ledger, tracer, parent, "wire.publish", || client.publish()) {
        phase.publish_ms.push(ms(took));
        phase.reads.op();
        session.log.push(Logged::Publish);
    }
    let engine = Arc::clone(&session.engine);
    if let Some(answer) = phase.reads.fresh(
        ledger,
        tracer,
        parent,
        client,
        &engine,
        taus.next(),
        CHECK_EVERY,
    ) {
        for _ in 0..CACHED_PER_ROUND {
            phase.reads.cached(ledger, tracer, parent, client, answer);
        }
        session.last = Some(answer);
    }
    session.rounds += 1;
    if session.rounds.is_multiple_of(CHECKPOINT_EVERY) {
        if let Some((_, took)) = wire(ledger, tracer, parent, "wire.checkpoint", || {
            client.checkpoint()
        }) {
            phase.checkpoint_ms.push(ms(took));
            phase.reads.op();
            session.log.push(Logged::Checkpoint);
        }
    }
    tracer.end(parent);
}

/// One timed phase of rounds. With `ready`, restarts of copies of the
/// live directory are taken between rounds, off the phase clock and
/// spread evenly over the phase so that a burst of outside contention
/// reaches few of them.
#[allow(clippy::too_many_arguments)]
fn phase(
    s: &Settings,
    session: &mut Session,
    mut ready: Option<&mut ReadyTimes>,
    taus: &mut Thresholds,
    rng: &mut Xoshiro256,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) -> Phase {
    let before = session.engine.stats();
    let rounds_before = session.rounds;
    let mut phase = Phase {
        reads: Reads::start(),
        insert_us: Vec::new(),
        publish_ms: Vec::new(),
        checkpoint_ms: Vec::new(),
        seconds: 0.0,
    };
    // End after a churn round two rounds past a checkpoint: the live
    // row count is back at the base size and every phase leaves the same
    // WAL tail behind.
    let mut restarts = 0;
    while phase.reads.now() < s.phase_seconds() || session.rounds % CHECKPOINT_EVERY != 2 {
        round(session, &mut phase, taus, rng, ledger, tracer);
        let due = phase.reads.now() >= s.phase_seconds() * restarts as f64 / READY_REPS as f64;
        // Always at the same point of the checkpoint cycle, so that
        // every restart replays the same WAL tail.
        if restarts < READY_REPS && due && session.rounds % CHECKPOINT_EVERY == 2 {
            if let Some(ready) = ready.as_deref_mut() {
                phase
                    .reads
                    .untimed(|| restart_copy(s, session, ready, ledger, tracer));
                restarts += 1;
            }
        }
    }
    phase.seconds = phase.reads.now();
    if let Some(ready) = ready {
        while restarts < READY_REPS {
            restart_copy(s, session, ready, ledger, tracer);
            restarts += 1;
        }
    }
    let after = session.engine.stats();
    let rounds = session.rounds - rounds_before;
    let fresh = phase.reads.fresh_ms.len() as u64;
    let cached = phase.reads.cached_us.len() as u64;
    let passes = after.sampling_passes - before.sampling_passes;
    ledger.check(passes == fresh, || {
        format!("{passes} sampling passes for {fresh} fresh requests")
    });
    let hits = after.cache_hits - before.cache_hits;
    ledger.check(hits == cached, || {
        format!("{hits} cache hits for {cached} cached requests")
    });
    let full = after.full_publishes - before.full_publishes;
    ledger.check(full == rounds / 2, || {
        format!("{full} full publishes for {} churn rounds", rounds / 2)
    });
    phase
}

/// Restarts a copy of the live directory on both tiers (`ready_*`); each
/// first answer must equal what the live engine answers at that epoch.
fn restart_copy(
    s: &Settings,
    session: &Session,
    ready: &mut ReadyTimes,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) {
    let Some(last) = session.last else { return };
    let copy = s.work_dir.join("ingest-restart");
    copy_dir(&session.dir, &copy);
    let snapshot = session.engine.snapshot();
    let want = replay(&session.engine, &snapshot, last.tau);
    let restarted = restart_both(
        &copy,
        last.tau,
        s.threads,
        ready,
        ledger,
        tracer,
        Tracer::root(),
    );
    if let Some((_, got)) = restarted {
        ledger.check(
            got.epoch == snapshot.epoch() && got.estimate.value.to_bits() == want.to_bits(),
            || {
                format!(
                    "restarted answer {} at epoch {} != live {want} at epoch {}",
                    got.estimate.value,
                    got.epoch,
                    snapshot.epoch()
                )
            },
        );
    }
    std::fs::remove_dir_all(&copy).expect("remove a restart copy");
}

/// In-process replay of the wire log on a twin engine, timing each op.
struct Twin {
    engine: EstimationEngine,
    durable: bool,
    insert_us: Vec<f64>,
    delta_ms: Vec<f64>,
    full_ms: Vec<f64>,
    /// WAL segment bytes logged so far, and present after the last cut.
    wal_bytes: u64,
    wal_base: u64,
}

impl Twin {
    fn new(engine: EstimationEngine, base: &[SparseVector], durable: bool) -> Self {
        engine.insert_batch(base.iter().cloned());
        engine.publish();
        if durable {
            engine.checkpoint().expect("checkpoint the twin's base");
        }
        let mut twin = Self {
            engine,
            durable,
            insert_us: Vec::new(),
            delta_ms: Vec::new(),
            full_ms: Vec::new(),
            wal_bytes: 0,
            wal_base: 0,
        };
        twin.wal_base = twin.wal_now();
        twin
    }

    /// Counts the WAL bytes logged since the last cut.
    fn settle_wal(&mut self) {
        self.wal_bytes += self.wal_now().saturating_sub(self.wal_base);
    }

    fn wal_now(&self) -> u64 {
        self.engine
            .storage_dir()
            .map_or(0, |dir| dir_bytes(dir, is_wal_segment))
    }

    fn apply(&mut self, entry: &Logged, ledger: &mut Ledger, tracer: &mut Tracer, parent: SpanId) {
        let name = if self.durable {
            "twin.durable"
        } else {
            "twin.volatile"
        };
        match entry {
            Logged::Write(op @ WriteOp::Insert(_)) => {
                let start = Instant::now();
                tracer.span(name, parent, || op.apply(&self.engine));
                self.insert_us.push(us(start.elapsed()));
            }
            Logged::Write(op) => {
                let ok = tracer.span(name, parent, || op.apply(&self.engine));
                ledger.check(ok, || "twin replay diverged from the wire".into());
            }
            Logged::Publish => {
                let full = self.engine.stats().full_publishes;
                let start = Instant::now();
                tracer.span("twin.publish", parent, || self.engine.publish());
                let took = ms(start.elapsed());
                if self.engine.stats().full_publishes > full {
                    self.full_ms.push(took);
                } else {
                    self.delta_ms.push(took);
                }
            }
            Logged::Checkpoint if self.durable => {
                // The cut truncates every sealed segment and leaves only
                // fresh active ones behind.
                self.settle_wal();
                self.engine.checkpoint().expect("checkpoint the twin");
                self.wal_base = self.wal_now();
            }
            Logged::Checkpoint => {}
        }
    }
}

pub fn run(s: &Settings) -> Outcome {
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new();
    let mut rng = Xoshiro256::seeded(derive_seed(s.seed, 1));
    let rows = DblpLike::with_size(BASE_ROWS + SPARE_ROWS)
        .generate(derive_seed(s.seed, 2))
        .into_vectors();
    let (base, spare) = rows.split_at(BASE_ROWS);
    let config = s.engine_config(derive_seed(s.seed, 3));
    let mut taus = Thresholds::new(&mut rng);

    let mut e2e = EndToEnd::default();
    let mut served = None;
    for rep in 0..SETUP_REPS {
        let dir = s.fresh_dir(&format!("ingest-{rep}"));
        let start = Instant::now();
        let engine = EstimationEngine::durable_with(config, &dir, durability(StorageTier::Heap))
            .expect("fresh durable engine");
        engine.insert_batch(base.iter().cloned());
        engine.publish();
        engine.checkpoint().expect("checkpoint the base");
        let server = start_server(engine, s.threads);
        e2e.setup_s.push(start.elapsed().as_secs_f64());
        if let Some((old, old_dir)) = served.replace((server, dir)) {
            let old: vsj_server::Server = old;
            old.shutdown().expect("shut a set-up server down");
            std::fs::remove_dir_all(old_dir).expect("remove a set-up directory");
        }
    }
    let (server, dir) = served.expect("at least one set-up");
    let engine = Arc::clone(server.engine());
    ledger.check(engine.stats().pool_threads == s.threads, || {
        format!("engine pool has {} threads", engine.stats().pool_threads)
    });
    let mut session = Session {
        client: Client::connect(server.addr()).expect("connect to the server"),
        dir,
        engine,
        live: (0..BASE_ROWS as GlobalId).collect(),
        spare: Vec::from(spare).into_iter().cycle(),
        log: Vec::new(),
        rounds: 0,
        last: None,
    };

    let untraced = phase(
        s,
        &mut session,
        Some(&mut e2e.ready),
        &mut taus,
        &mut rng,
        &mut ledger,
        &mut tracer,
    );
    let mut layers = Layers::new();
    if s.trace {
        let before = (session.engine.stats(), server.stats());
        tracer.set_on(true);
        let traced = phase(
            s,
            &mut session,
            None,
            &mut taus,
            &mut rng,
            &mut ledger,
            &mut tracer,
        );
        let after = (session.engine.stats(), server.stats());
        let probe = tracer.begin("probes", Tracer::root());

        let hit_us = match session.last {
            Some(last) => cache_hits(&session.engine, || last, &mut ledger, &mut tracer, probe),
            None => Vec::new(),
        };

        // Twins: the same writes, in-process, durable and volatile.
        let twin_dir = s.fresh_dir("ingest-twin");
        let mut durable = Twin::new(
            EstimationEngine::durable_with(config, &twin_dir, durability(StorageTier::Heap))
                .expect("durable twin"),
            base,
            true,
        );
        let mut volatile = Twin::new(EstimationEngine::new(config), base, false);
        for entry in &session.log {
            durable.apply(entry, &mut ledger, &mut tracer, probe);
            volatile.apply(entry, &mut ledger, &mut tracer, probe);
        }
        durable.settle_wal();
        let writes = session
            .log
            .iter()
            .filter(|e| matches!(e, Logged::Write(_)))
            .count();

        let hasher = Composite::derive(SimHashFamily::new(), config.seed, 0, HASH_K);
        let vectors: Vec<&SparseVector> = session
            .log
            .iter()
            .filter_map(|e| match e {
                Logged::Write(WriteOp::Insert(v) | WriteOp::Upsert(_, v)) => Some(v),
                _ => None,
            })
            .collect();
        let hash_start = Instant::now();
        tracer.span("lsh.signature", probe, || {
            for v in &vectors {
                std::hint::black_box(hasher.signature(v));
            }
        });
        let hash_us = us(hash_start.elapsed()) / vectors.len().max(1) as f64;

        let pool = WorkPool::new(s.threads);
        let snapshot = durable.engine.snapshot();
        let meta = CheckpointMeta {
            epoch: snapshot.epoch(),
            ingested: snapshot.ingested(),
            next_id: 0,
            applied_seq: 0,
            publishes: 0,
            config,
        };
        let mut encode_ms = Vec::new();
        let mut encoded_len = 0;
        for _ in 0..3 {
            let start = Instant::now();
            encoded_len = tracer
                .span("persist.encode", probe, || {
                    encode_checkpoint_with(&meta, &snapshot, &pool)
                })
                .len();
            encode_ms.push(ms(start.elapsed()));
        }
        let cosine = tracer.span("vector.cosine", probe, || {
            cosine_ns_per_pair(base, &mut rng)
        });
        tracer.end(probe);
        std::fs::remove_dir_all(&twin_dir).expect("remove the durable twin");

        let hit_p50 = median(&hit_us);
        let insert_traced = median(&traced.insert_us);
        let durable_insert = median(&durable.insert_us);
        layers.set(
            "trace.overhead_pct",
            (insert_traced / median(&untraced.insert_us) - 1.0) * 100.0,
        );
        layers.set_deltas(&before, &after);
        layers.set_pass(median(&tracer.durations_ms("core.lshss.pass")));
        layers.set(
            "server.estimate_overhead_us",
            median(&traced.reads.cached_us.values()) - hit_p50,
        );
        layers.set("server.ingest_overhead_us", insert_traced - durable_insert);
        layers.set("service.cache.hit_us_p50", hit_p50);
        layers.set("vector.cosine_ns_per_pair", cosine);
        layers.set("lsh.hash_us", hash_us);
        layers.set(
            "service.wal.append_us",
            durable_insert - median(&volatile.insert_us),
        );
        layers.set(
            "service.wal.bytes_per_op",
            durable.wal_bytes as f64 / writes.max(1) as f64,
        );
        layers.set(
            "service.snapshot.publish_delta_ms_p50",
            median(&durable.delta_ms),
        );
        layers.set(
            "service.snapshot.publish_full_ms_p50",
            median(&durable.full_ms),
        );
        layers.set("service.persist.encode_ms", median(&encode_ms));
        layers.set(
            "service.persist.checkpoint_bytes_per_row",
            encoded_len as f64 / snapshot.len().max(1) as f64,
        );
    }

    drop(session);
    server.shutdown().expect("shut the server down");
    layers.set_ready(&e2e.ready);
    layers.set(
        "service.ingest_us_p50",
        percentile(&untraced.insert_us, 0.5),
    );
    layers.set(
        "service.ingest_us_p90",
        percentile(&untraced.insert_us, 0.9),
    );

    let mut outcome = Outcome::new(ledger);
    outcome.note(
        "corpus",
        format!("dblp-like base={BASE_ROWS} spare={SPARE_ROWS}"),
    );
    outcome.note("tier", "heap");
    outcome.note(
        "op_mix",
        format!(
            "rounds alternate append ({APPEND_INSERTS} inserts) and churn ({CHURN_INSERTS} \
             inserts, {CHURN_UPSERTS} upserts, {CHURN_REMOVES} removes); each ends with a \
             publish, 1 fresh + {CACHED_PER_ROUND} cached estimates; checkpoint every \
             {CHECKPOINT_EVERY} rounds; offline replay of every {CHECK_EVERY}th fresh"
        ),
    );
    outcome.note(
        "samples",
        format!(
            "inserts={} publishes={} checkpoints={} fresh={} cached={}",
            untraced.insert_us.len(),
            untraced.publish_ms.len(),
            untraced.checkpoint_ms.len(),
            untraced.reads.fresh_ms.len(),
            untraced.reads.cached_us.len()
        ),
    );
    e2e.seconds = untraced.seconds;
    e2e.ops = untraced.reads.ops;
    e2e.fresh_ms = untraced.reads.fresh_ms;
    e2e.cached_us = untraced.reads.cached_us;
    e2e.checkpoint_ms = untraced.checkpoint_ms;
    e2e.set_tails(&mut layers);
    outcome.metrics = if s.trace {
        outcome.tracer = Some(tracer);
        layers.into_metrics()
    } else {
        e2e.into_metrics()
    };
    outcome
}

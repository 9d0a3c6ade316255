//! `serve_mapped`: a read-only server on the mapped tier. Dense
//! NYT-like rows, so LSH-SS sampling and cosine scoring dominate; the
//! mapped view's draw path and the estimate cache are on the path, while
//! hashing, the WAL and publish do no work.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use vsj_datasets::NytLike;
use vsj_sampling::{Rng, Xoshiro256};
use vsj_server::{Client, Server};
use vsj_service::{EstimationEngine, StorageTier};

use crate::common::{
    copy_dir, derive_seed, median, ms, Ledger, Outcome, Settings, Tracer, SETUP_REPS,
};
use crate::corpus::{
    cosine_ns_per_pair, durability, fold, prepare_dir, replay, restart_both, start_server,
    wal_tail, Thresholds,
};
use crate::metrics::{EndToEnd, Layers};
use crate::reads::{cache_hits, Answer, Reads};

const ROWS: usize = 10_000;
/// WAL tail past the checkpoint: 5% of the base.
const TAIL: usize = ROWS / 20;
/// Cached repeats between two fresh thresholds.
const CACHED_PER_FRESH: usize = 20;
/// Every n-th fresh answer is replayed offline.
const CHECK_EVERY: u64 = 8;
/// Restarts of a copy of the served directory on both tiers, and
/// compactions of fresh copies: each this many times, alternating,
/// spread over the untraced phase.
const UPKEEP_REPS: usize = 11;

/// The served mapped engine and the client that drives it.
struct Served {
    server: Server,
    engine: Arc<EstimationEngine>,
    client: Client,
    first: Answer,
}

/// Maps `dir`, checks its first answer against the offline replay, and
/// serves the mapped engine.
fn serve(s: &Settings, dir: &Path, tau: f64, ledger: &mut Ledger) -> Served {
    let engine = EstimationEngine::recover_with(dir, durability(StorageTier::Mapped))
        .expect("recover the served directory");
    let value = engine.estimate_batch(&[tau])[0].estimate.value;
    let want = replay(&engine, &engine.snapshot(), tau);
    ledger.check(want.to_bits() == value.to_bits(), || {
        format!("first answer {value} != offline replay {want}")
    });
    let first = Answer {
        tau,
        value,
        epoch: engine.current_epoch(),
    };
    let server = start_server(engine, s.threads);
    let client = Client::connect(server.addr()).expect("connect to the server");
    let engine = Arc::clone(server.engine());
    Served {
        server,
        engine,
        client,
        first,
    }
}

fn shut_down(served: Served) {
    let Served { server, client, .. } = served;
    drop(client);
    server.shutdown().expect("shut the server down");
}

/// Maintenance samples taken between requests, off the phase clock and
/// spread evenly over the phase so that a burst of outside contention
/// reaches few of them: restarts of a copy of the served directory on
/// both tiers (`ready_*`) alternate with compactions of fresh copies
/// (`checkpoint_ms_p50`).
struct Upkeep<'a> {
    dir: &'a Path,
    tau: f64,
    e2e: &'a mut EndToEnd,
    taken: usize,
}

impl Upkeep<'_> {
    fn due(&self, at: f64, seconds: f64) -> bool {
        self.taken < 2 * UPKEEP_REPS && at >= seconds * self.taken as f64 / (2 * UPKEEP_REPS) as f64
    }

    fn sample(&mut self, s: &Settings, ledger: &mut Ledger, tracer: &mut Tracer) {
        let copy = s.work_dir.join("serve-upkeep");
        if self.taken.is_multiple_of(2) {
            if self.taken == 0 {
                copy_dir(self.dir, &copy);
            }
            restart_both(
                &copy,
                self.tau,
                s.threads,
                &mut self.e2e.ready,
                ledger,
                tracer,
                Tracer::root(),
            );
        } else {
            let fold_copy = s.work_dir.join("serve-fold");
            copy_dir(self.dir, &fold_copy);
            let engine =
                EstimationEngine::recover_with(&fold_copy, durability(StorageTier::Mapped))
                    .expect("recover a copy of the served directory");
            let took = fold(
                &engine,
                self.tau,
                self.taken == 1,
                ledger,
                tracer,
                Tracer::root(),
            );
            self.e2e.checkpoint_ms.extend(took);
            drop(engine);
            std::fs::remove_dir_all(&fold_copy).expect("remove a compaction copy");
        }
        self.taken += 1;
        if self.taken == 2 * UPKEEP_REPS {
            std::fs::remove_dir_all(&copy).expect("remove the restart copy");
        }
    }
}

/// One timed phase of fresh thresholds, each followed by cached repeats.
/// Returns the phase's samples and its length in seconds of timed work.
#[allow(clippy::too_many_arguments)]
fn phase(
    s: &Settings,
    served: &mut Served,
    mut upkeep: Option<&mut Upkeep>,
    taus: &mut Thresholds,
    answered: &mut Vec<Answer>,
    rng: &mut Xoshiro256,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) -> (Reads, f64) {
    let engine = Arc::clone(&served.engine);
    let before = engine.stats();
    let root = tracer.begin("phase", Tracer::root());
    let mut reads = Reads::start();
    while reads.now() < s.phase_seconds() {
        let fresh = reads.fresh(
            ledger,
            tracer,
            root,
            &mut served.client,
            &engine,
            taus.next(),
            CHECK_EVERY,
        );
        answered.extend(fresh);
        for _ in 0..CACHED_PER_FRESH {
            let want = *rng.choose(answered);
            reads.cached(ledger, tracer, root, &mut served.client, want);
        }
        if let Some(upkeep) = upkeep.as_deref_mut() {
            if upkeep.due(reads.now(), s.phase_seconds()) {
                reads.untimed(|| upkeep.sample(s, ledger, tracer));
            }
        }
    }
    let seconds = reads.now();
    if let Some(upkeep) = upkeep {
        while upkeep.taken < 2 * UPKEEP_REPS {
            upkeep.sample(s, ledger, tracer);
        }
    }
    tracer.end(root);
    let after = engine.stats();
    let (fresh, cached) = (reads.fresh_ms.len() as u64, reads.cached_us.len() as u64);
    let passes = after.sampling_passes - before.sampling_passes;
    ledger.check(passes == fresh, || {
        format!("{passes} sampling passes for {fresh} fresh requests")
    });
    let hits = after.cache_hits - before.cache_hits;
    ledger.check(hits == cached, || {
        format!("{hits} cache hits for {cached} cached requests")
    });
    (reads, seconds)
}

pub fn run(s: &Settings) -> Outcome {
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new();
    let mut rng = Xoshiro256::seeded(derive_seed(s.seed, 1));
    let rows = NytLike::with_size(ROWS + TAIL)
        .generate(derive_seed(s.seed, 2))
        .into_vectors();
    let (base, spare) = rows.split_at(ROWS);
    let tail = wal_tail(ROWS, TAIL, spare, &mut rng);
    let mut taus = Thresholds::new(&mut rng);

    let config = s.engine_config(derive_seed(s.seed, 3));
    let mut e2e = EndToEnd::default();
    for rep in 0..SETUP_REPS {
        let dir = s.fresh_dir(&format!("serve-{rep}"));
        let start = Instant::now();
        prepare_dir(config, &dir, base, &tail);
        e2e.setup_s.push(start.elapsed().as_secs_f64());
        if rep > 0 {
            std::fs::remove_dir_all(s.work_dir.join(format!("serve-{}", rep - 1)))
                .expect("remove a set-up directory");
        }
    }
    let dir = s.work_dir.join(format!("serve-{}", SETUP_REPS - 1));
    let tau = taus.next();

    let mut served = serve(s, &dir, tau, &mut ledger);
    let mut answered = vec![served.first];

    let mut upkeep = Upkeep {
        dir: &dir,
        tau,
        e2e: &mut e2e,
        taken: 0,
    };
    let (untraced, untraced_seconds) = phase(
        s,
        &mut served,
        Some(&mut upkeep),
        &mut taus,
        &mut answered,
        &mut rng,
        &mut ledger,
        &mut tracer,
    );
    let mut layers = Layers::new();
    if s.trace {
        let heap_dir = s.work_dir.join("serve-heap-twin");
        copy_dir(&dir, &heap_dir);
        let engine = Arc::clone(&served.engine);
        let before = (engine.stats(), served.server.stats());
        tracer.set_on(true);
        let (traced, _) = phase(
            s,
            &mut served,
            None,
            &mut taus,
            &mut answered,
            &mut rng,
            &mut ledger,
            &mut tracer,
        );
        let after = (engine.stats(), served.server.stats());
        let probe = tracer.begin("probes", Tracer::root());

        // In-process cache hits on thresholds the wire already answered.
        let hit_us = cache_hits(
            &engine,
            || *rng.choose(&answered),
            &mut ledger,
            &mut tracer,
            probe,
        );

        // Same-τ warm passes on the mapped engine and on a heap engine
        // recovered from a copy of the same directory.
        let heap = EstimationEngine::recover_with(&heap_dir, durability(StorageTier::Heap))
            .expect("recover the heap twin");
        let (mapped_snap, heap_snap) = (engine.snapshot(), heap.snapshot());
        let (mut mapped_ms, mut heap_ms) = (Vec::new(), Vec::new());
        for want in answered.iter().take(8) {
            let start = Instant::now();
            let m = tracer.span("mapped.pass", probe, || {
                replay(&engine, &mapped_snap, want.tau)
            });
            mapped_ms.push(ms(start.elapsed()));
            let start = Instant::now();
            let h = tracer.span("heap.pass", probe, || replay(&heap, &heap_snap, want.tau));
            heap_ms.push(ms(start.elapsed()));
            ledger.check(
                m.to_bits() == h.to_bits() && m.to_bits() == want.value.to_bits(),
                || format!("τ={}: mapped {m} heap {h} wire {}", want.tau, want.value),
            );
        }
        drop(heap);
        let cosine = tracer.span("vector.cosine", probe, || {
            cosine_ns_per_pair(base, &mut rng)
        });
        tracer.end(probe);
        std::fs::remove_dir_all(&heap_dir).expect("remove the heap twin");

        let hit_p50 = median(&hit_us);
        let cached_traced = median(&traced.cached_us.values());
        layers.set(
            "trace.overhead_pct",
            (cached_traced / median(&untraced.cached_us.values()) - 1.0) * 100.0,
        );
        layers.set_deltas(&before, &after);
        layers.set_pass(median(&tracer.durations_ms("core.lshss.pass")));
        layers.set("server.estimate_overhead_us", cached_traced - hit_p50);
        layers.set("service.cache.hit_us_p50", hit_p50);
        layers.set("vector.cosine_ns_per_pair", cosine);
        layers.set(
            "service.mapped.fresh_over_heap",
            median(&mapped_ms) / median(&heap_ms),
        );
        layers.set_ready(&e2e.ready);
    }
    shut_down(served);

    let mut outcome = Outcome::new(ledger);
    outcome.note(
        "corpus",
        format!("nyt-like rows={ROWS} wal_tail={TAIL} (50% insert, 30% upsert, 20% remove)"),
    );
    outcome.note("tier", "mapped");
    outcome.note(
        "op_mix",
        format!(
            "1 fresh + {CACHED_PER_FRESH} cached wire estimates; offline replay of every \
             {CHECK_EVERY}th fresh; {UPKEEP_REPS} restarts and {UPKEEP_REPS} compactions of \
             copies of the directory between requests"
        ),
    );
    outcome.note(
        "samples",
        format!(
            "fresh={} cached={} compactions={}",
            untraced.fresh_ms.len(),
            untraced.cached_us.len(),
            e2e.checkpoint_ms.len()
        ),
    );
    e2e.seconds = untraced_seconds;
    e2e.ops = untraced.ops;
    e2e.fresh_ms = untraced.fresh_ms;
    e2e.cached_us = untraced.cached_us;
    e2e.set_tails(&mut layers);
    outcome.metrics = if s.trace {
        outcome.tracer = Some(tracer);
        layers.into_metrics()
    } else {
        e2e.into_metrics()
    };
    outcome
}

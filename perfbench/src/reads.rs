//! Wire estimates with their correctness checks, shared by the two
//! server workloads.

use std::time::{Duration, Instant};

use vsj_server::{Client, ClientError};
use vsj_service::EstimationEngine;

use crate::common::{ms, us, Ledger, SpanId, Tracer};
use crate::corpus::replay;
use crate::metrics::Timeline;

/// Labels a wire error by HTTP status class, for failure accounting.
fn wire_error_kind(e: &ClientError) -> String {
    match e {
        ClientError::Io(_) => "io".into(),
        ClientError::Overloaded { .. } => "429".into(),
        ClientError::DeadlineExceeded => "504".into(),
        ClientError::Status { status, .. } => status.to_string(),
        ClientError::Protocol(_) => "protocol".into(),
    }
}

/// One timed wire request inside a span of the same name; an error
/// answer counts as a failed op, labelled with its status class.
pub fn wire<T>(
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    parent: SpanId,
    op: &'static str,
    f: impl FnOnce() -> Result<T, ClientError>,
) -> Option<(T, Duration)> {
    let span = tracer.begin(op, parent);
    let out = ledger.timed(op, || {
        f().map_err(|e| format!("{} {e}", wire_error_kind(&e)))
    });
    tracer.end(span);
    out
}

/// A served answer, as the cached repeats must reproduce it.
#[derive(Clone, Copy)]
pub struct Answer {
    pub tau: f64,
    pub value: f64,
    pub epoch: u64,
}

/// The clock and the read samples of one timed phase.
pub struct Reads {
    pub fresh_ms: Timeline,
    pub cached_us: Timeline,
    /// Every completed request of the phase, read or not.
    pub ops: Timeline,
    start: Instant,
    /// Time spent in correctness checks, excluded from the phase clock.
    paused: Duration,
    fresh_seen: u64,
}

impl Reads {
    pub fn start() -> Self {
        Self {
            fresh_ms: Timeline::default(),
            cached_us: Timeline::default(),
            ops: Timeline::default(),
            start: Instant::now(),
            paused: Duration::ZERO,
            fresh_seen: 0,
        }
    }

    /// Seconds of timed work since the phase started.
    pub fn now(&self) -> f64 {
        self.start
            .elapsed()
            .saturating_sub(self.paused)
            .as_secs_f64()
    }

    /// Runs `f` off the phase clock.
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.paused += start.elapsed();
        out
    }

    /// Counts one completed request.
    pub fn op(&mut self) {
        let at = self.now();
        self.ops.push(at, 1.0);
    }

    /// Asks a threshold that has no cached answer; every
    /// `check_every`-th answer is compared with the offline replay on
    /// the engine's current snapshot.
    #[allow(clippy::too_many_arguments)]
    pub fn fresh(
        &mut self,
        ledger: &mut Ledger,
        tracer: &mut Tracer,
        parent: SpanId,
        client: &mut Client,
        engine: &EstimationEngine,
        tau: f64,
        check_every: u64,
    ) -> Option<Answer> {
        let (est, took) = wire(ledger, tracer, parent, "wire.estimate_fresh", || {
            client.estimate(tau)
        })?;
        self.fresh_ms.push(self.now(), ms(took));
        self.op();
        let check = self.fresh_seen.is_multiple_of(check_every);
        self.untimed(|| {
            ledger.check(!est.cached, || format!("fresh τ={tau} served from cache"));
            if check {
                let snapshot = engine.snapshot();
                ledger.check(snapshot.epoch() == est.epoch, || {
                    format!(
                        "τ={tau}: answer epoch {} != engine epoch {}",
                        est.epoch,
                        snapshot.epoch()
                    )
                });
                let want =
                    tracer.span("core.lshss.pass", parent, || replay(engine, &snapshot, tau));
                ledger.check(want.to_bits() == est.value.to_bits(), || {
                    format!("τ={tau}: wire {} != offline replay {want}", est.value)
                });
            }
        });
        self.fresh_seen += 1;
        Some(Answer {
            tau,
            value: est.value,
            epoch: est.epoch,
        })
    }

    /// Repeats an answered threshold; the answer must come from the
    /// cache and equal the first one bit for bit.
    pub fn cached(
        &mut self,
        ledger: &mut Ledger,
        tracer: &mut Tracer,
        parent: SpanId,
        client: &mut Client,
        want: Answer,
    ) {
        let result = wire(ledger, tracer, parent, "wire.estimate_cached", || {
            client.estimate(want.tau)
        });
        let Some((est, took)) = result else { return };
        self.cached_us.push(self.now(), us(took));
        self.op();
        ledger.check(
            est.cached && est.value.to_bits() == want.value.to_bits() && est.epoch == want.epoch,
            || {
                format!(
                    "repeat τ={}: cached={} value {} epoch {} != first {} epoch {}",
                    want.tau, est.cached, est.value, est.epoch, want.value, want.epoch
                )
            },
        );
    }
}

/// In-process cache hits on answered thresholds, picked by `pick`: the
/// time of each `estimate_batch`, in µs. Each must equal the wire answer.
pub fn cache_hits(
    engine: &EstimationEngine,
    mut pick: impl FnMut() -> Answer,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Vec<f64> {
    (0..400)
        .map(|_| {
            let want = pick();
            let start = Instant::now();
            let got = tracer.span("service.estimate_batch.hit", parent, || {
                engine.estimate_batch(&[want.tau])
            })[0];
            let took = us(start.elapsed());
            ledger.check(
                got.cached && got.estimate.value.to_bits() == want.value.to_bits(),
                || {
                    format!(
                        "in-process repeat of τ={} disagrees with the wire",
                        want.tau
                    )
                },
            );
            took
        })
        .collect()
}

//! The metric catalogs. Every untraced run reports every end-to-end
//! metric; every traced run reports every per-layer metric, where a
//! layer the workload does not exercise reads 0.

use vsj_server::ServerStats;
use vsj_service::EngineStats;

use crate::common::{median, peak_rss_mb, percentile};
use crate::corpus::ReadyTimes;

/// Equal time segments a timed phase is split into. A phase statistic
/// is the median over segments of the statistic within each, so a burst
/// of contention from outside the process that spans fewer than half of
/// the segments cannot move it.
const SEGMENTS: usize = 5;

/// Samples of one timed phase, each stamped with the phase time (in
/// seconds of timed work) at which it was taken.
#[derive(Default)]
pub struct Timeline {
    samples: Vec<(f64, f64)>,
}

impl Timeline {
    pub fn push(&mut self, at: f64, value: f64) {
        self.samples.push((at, value));
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, v)| v).collect()
    }

    /// The samples of each segment of a phase `seconds` long.
    fn segments(&self, seconds: f64) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); SEGMENTS];
        for &(at, v) in &self.samples {
            let i = ((at / seconds * SEGMENTS as f64) as usize).min(SEGMENTS - 1);
            out[i].push(v);
        }
        out
    }

    /// Median over segments of the `q`-percentile within each.
    pub fn percentile(&self, q: f64, seconds: f64) -> f64 {
        let per: Vec<f64> = self
            .segments(seconds)
            .iter()
            .filter(|seg| !seg.is_empty())
            .map(|seg| percentile(seg, q))
            .collect();
        median(&per)
    }

    /// Median over segments of samples per second; the plain rate when
    /// segments would hold too few samples to give more than a few
    /// distinct values.
    pub fn rate(&self, seconds: f64) -> f64 {
        if self.samples.len() < 50 * SEGMENTS {
            return self.samples.len() as f64 / seconds;
        }
        let per: Vec<f64> = self
            .segments(seconds)
            .iter()
            .map(|seg| seg.len() as f64 * SEGMENTS as f64 / seconds)
            .collect();
        median(&per)
    }
}

/// Samples behind the end-to-end metrics of one run.
#[derive(Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    /// Operations completed in the timed phase, and its length in
    /// seconds of timed work.
    pub ops: Timeline,
    pub seconds: f64,
    pub fresh_ms: Timeline,
    pub cached_us: Timeline,
    pub checkpoint_ms: Vec<f64>,
    pub ready: ReadyTimes,
}

impl EndToEnd {
    /// The end-to-end tails, which are too noisy on small shared hosts
    /// to bound, go out with the per-layer metrics.
    pub fn set_tails(&self, layers: &mut Layers) {
        let fresh = self.fresh_ms.percentile(0.9, self.seconds);
        layers.set("e2e.estimate_fresh_ms_p90", fresh);
        let cached = self.cached_us.percentile(0.9, self.seconds);
        layers.set("e2e.estimate_cached_us_p90", cached);
    }

    pub fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", median(&self.setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("ops_per_s", self.ops.rate(self.seconds), "1/s"),
            (
                "estimate_fresh_ms_p50",
                self.fresh_ms.percentile(0.5, self.seconds),
                "ms",
            ),
            (
                "estimate_cached_us_p50",
                self.cached_us.percentile(0.5, self.seconds),
                "us",
            ),
            ("checkpoint_ms_p50", median(&self.checkpoint_ms), "ms"),
            ("ready_heap_ms", self.ready.heap_ms(), "ms"),
            ("ready_mapped_ms", self.ready.mapped_ms(), "ms"),
        ]
    }
}

/// Name and unit of each per-layer metric, in report order.
pub const LAYERS: &[(&str, &str)] = &[
    ("trace.overhead_pct", "%"),
    ("e2e.estimate_fresh_ms_p90", "ms"),
    ("e2e.estimate_cached_us_p90", "us"),
    ("server.estimate_overhead_us", "us"),
    ("server.ingest_overhead_us", "us"),
    ("server.merge_ratio", "ratio"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.hit_us_p50", "us"),
    ("core.lshss.pass_ms_p50", "ms"),
    ("core.lshss.pairs_per_pass", "count"),
    ("core.lshss.ns_per_pair", "ns"),
    ("vector.cosine_ns_per_pair", "ns"),
    ("service.mapped.fresh_over_heap", "ratio"),
    ("lsh.hash_us", "us"),
    ("service.ingest_us_p50", "us"),
    ("service.ingest_us_p90", "us"),
    ("service.wal.append_us", "us"),
    ("service.wal.fsyncs", "count"),
    ("service.wal.rotations", "count"),
    ("service.wal.bytes_per_op", "B"),
    ("service.snapshot.publish_delta_ms_p50", "ms"),
    ("service.snapshot.publish_full_ms_p50", "ms"),
    ("service.snapshot.publish_delta_count", "count"),
    ("service.snapshot.publish_full_count", "count"),
    ("service.persist.encode_ms", "ms"),
    ("service.persist.checkpoint_bytes_per_row", "B"),
    ("service.persist.decode_ms", "ms"),
    ("service.recover_heap_ms", "ms"),
    ("service.recover_mapped_ms", "ms"),
    ("service.first_estimate_heap_ms", "ms"),
    ("service.first_estimate_mapped_ms", "ms"),
    ("service.compact_bytes_rewritten", "B"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
];

pub struct Layers {
    values: Vec<f64>,
}

impl Layers {
    pub fn new() -> Self {
        Self {
            values: vec![0.0; LAYERS.len()],
        }
    }

    fn index(name: &str) -> usize {
        LAYERS
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values[Self::index(name)] = value;
    }

    /// The exact counts an engine and its server kept over a traced phase.
    pub fn set_deltas(
        &mut self,
        before: &(EngineStats, ServerStats),
        after: &(EngineStats, ServerStats),
    ) {
        let ((e0, s0), (e1, s1)) = (before, after);
        let d = |a: u64, b: u64| (b - a) as f64;
        let batches = d(s0.batches, s1.batches).max(1.0);
        let merged = d(s0.batched_estimates, s1.batched_estimates);
        self.set("server.merge_ratio", merged / batches);
        let hits = d(e0.cache_hits, e1.cache_hits);
        let lookups = hits + d(e0.cache_misses, e1.cache_misses);
        self.set("service.cache.hit_ratio", hits / lookups.max(1.0));
        let passes = d(e0.sampling_passes, e1.sampling_passes).max(1.0);
        let pairs = d(e0.sampled_pairs, e1.sampled_pairs);
        self.set("core.lshss.pairs_per_pass", pairs / passes);
        self.set("service.wal.fsyncs", d(e0.wal_fsyncs, e1.wal_fsyncs));
        self.set(
            "service.wal.rotations",
            d(e0.wal_rotations, e1.wal_rotations),
        );
        let delta = d(e0.delta_publishes, e1.delta_publishes);
        self.set("service.snapshot.publish_delta_count", delta);
        let full = d(e0.full_publishes, e1.full_publishes);
        self.set("service.snapshot.publish_full_count", full);
        self.set("pool.tasks", d(e0.pool_tasks, e1.pool_tasks));
        self.set("pool.steals", d(e0.pool_steals, e1.pool_steals));
    }

    /// Pass time and its cost per sampled pair (set the pair count first).
    pub fn set_pass(&mut self, pass_ms: f64) {
        self.set("core.lshss.pass_ms_p50", pass_ms);
        let pairs = self.values[Self::index("core.lshss.pairs_per_pass")];
        self.set("core.lshss.ns_per_pair", pass_ms * 1e6 / pairs.max(1.0));
    }

    /// The two parts of each `ready_*` metric.
    pub fn set_ready(&mut self, ready: &ReadyTimes) {
        self.set("service.recover_heap_ms", median(&ready.recover_heap_ms));
        self.set(
            "service.first_estimate_heap_ms",
            median(&ready.first_heap_ms),
        );
        self.set(
            "service.recover_mapped_ms",
            median(&ready.recover_mapped_ms),
        );
        self.set(
            "service.first_estimate_mapped_ms",
            median(&ready.first_mapped_ms),
        );
    }

    pub fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        LAYERS
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }
}

//! Shared pieces of the workloads: run settings, op accounting, span
//! recording, percentiles, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vsj_service::{FsyncPolicy, IndexFamily, ServiceConfig};

/// Settings of one benchmark run, parsed from the command line.
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Engine `pool_threads` and server `workers`: the host's core count,
    /// read once by the runner and passed in.
    pub threads: usize,
    /// Scratch directory for this run's storage directories.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_file: PathBuf,
    pub rustc: String,
}

/// Hash functions per bucket key: the paper's `k` for DBLP and NYT.
pub const HASH_K: usize = 20;
/// Shards of every engine.
pub const SHARDS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// The fsync policy of every durable engine (the engine default).
pub const FSYNC: FsyncPolicy = FsyncPolicy::Never;

impl Settings {
    /// The engine configuration every workload uses: explicit pool size,
    /// ε = 0, no auto-publish, the paper's estimator defaults.
    pub fn engine_config(&self, seed: u64) -> ServiceConfig {
        ServiceConfig::builder()
            .shards(SHARDS)
            .k(HASH_K)
            .family(IndexFamily::SimHash)
            .seed(seed)
            .cache_epsilon(0)
            .pool_threads(self.threads)
            .build()
    }

    /// Length of one timed phase: the whole run, or half of it in a
    /// traced run, which times an untraced and a traced phase.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// A fresh, empty directory under the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work_dir.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("remove a stale scratch directory");
        }
        std::fs::create_dir_all(&dir).expect("create a scratch directory");
        dir
    }
}

/// Per-seed derivation of independent input streams.
pub fn derive_seed(seed: u64, label: u64) -> u64 {
    vsj_sampling::SplitMix64::mix3(seed, label, 0x5EED)
}

/// Attempted and failed counts per op type, plus correctness checks.
#[derive(Default)]
pub struct Ledger {
    ops: BTreeMap<&'static str, (u64, u64)>,
    errors: BTreeMap<String, u64>,
    checks: u64,
    pub mismatches: Vec<String>,
}

impl Ledger {
    /// Runs one timed op; a returned error counts as a failed op.
    pub fn timed<T, E: std::fmt::Display>(
        &mut self,
        op: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<(T, Duration)> {
        let start = Instant::now();
        let result = f();
        let took = start.elapsed();
        let entry = self.ops.entry(op).or_default();
        entry.0 += 1;
        match result {
            Ok(value) => Some((value, took)),
            Err(e) => {
                entry.1 += 1;
                *self.errors.entry(format!("{op}: {e}")).or_default() += 1;
                None
            }
        }
    }

    /// Records a correctness check; a mismatch counts as a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.mismatches.push(what());
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|&(a, _)| a).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.values().map(|&(_, f)| f).sum::<u64>() + self.mismatches.len() as u64
    }

    /// `op=attempted/failed` pairs for the run record.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (op, (a, f)) in &self.ops {
            let _ = write!(out, "{}{op}={a}/{f}", if out.is_empty() { "" } else { " " });
        }
        let _ = write!(out, " checks={}/{}", self.checks, self.mismatches.len());
        out
    }

    pub fn report_problems(&self) {
        for (e, n) in &self.errors {
            eprintln!("failed op ({n}x): {e}");
        }
        for m in &self.mismatches {
            eprintln!("check failed: {m}");
        }
    }
}

/// One recorded span: a named interval and the span that caused it.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Handle of an open span (a no-op handle when tracing is off).
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder; written out once when the run ends.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn root() -> SpanId {
        SpanId(None)
    }

    /// Durations, in ms, of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time per span name: duration minus the part its children
    /// cover, summed over the run (ms), with the span count.
    fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 / 1e6;
            e.2 += total.saturating_sub(child) as f64 / 1e6;
        }
        out
    }

    /// Writes every span (one JSON object per line) and a per-name
    /// summary of counts, total and self time.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (name, (count, total, own)) in self.self_times() {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{count},\"total_ms\":{total:.3},\"self_ms\":{own:.3}}}"
            );
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the files in `dir` whose names satisfy `keep`.
pub fn dir_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| keep(&e.file_name().to_string_lossy()))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn is_wal_segment(name: &str) -> bool {
    name.starts_with("wal-") && name.ends_with(".vsjw")
}

/// Copies the regular files of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) {
    if to.exists() {
        std::fs::remove_dir_all(to).expect("remove a stale directory copy");
    }
    std::fs::create_dir_all(to).expect("create a directory copy");
    for entry in std::fs::read_dir(from).expect("list a storage directory") {
        let entry = entry.expect("read a storage directory entry");
        if entry.file_type().expect("stat a storage file").is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy a storage file");
        }
    }
}

/// What a workload hands back: metrics by name, the run record, and
/// the accounting.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub record: Vec<(&'static str, String)>,
    pub ledger: Ledger,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn new(ledger: Ledger) -> Self {
        Self {
            metrics: Vec::new(),
            record: Vec::new(),
            ledger,
            tracer: None,
        }
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.record.push((key, value.to_string()));
    }
}

/// JSON string literal with the characters that need escaping escaped.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

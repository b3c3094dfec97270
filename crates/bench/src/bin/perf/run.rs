//! One run of one workload: several set-ups (median reported), each
//! followed by measured passes over the workload's fixed op list until the
//! asked number of seconds is used up — or, traced, the per-layer pass —
//! and the result checks.

use crate::catalog;
use crate::layers::Layers;
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use tale::QueryMatch;

static START: OnceLock<Instant> = OnceLock::new();
static LAST_BEAT_MS: AtomicU64 = AtomicU64::new(0);
static BEATS: AtomicU64 = AtomicU64::new(0);

fn now_ms() -> u64 {
    START.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// Marks progress. Called between operations, never inside a timed one.
pub fn beat() {
    LAST_BEAT_MS.store(now_ms(), Ordering::Relaxed);
    BEATS.fetch_add(1, Ordering::Relaxed);
}

/// How long ago the last [`beat`] was, and how many there have been.
pub fn quiet() -> (Duration, u64) {
    let since = now_ms().saturating_sub(LAST_BEAT_MS.load(Ordering::Relaxed));
    (Duration::from_millis(since), BEATS.load(Ordering::Relaxed))
}

/// Fresh set-ups per run: `setup_s` is their median, and each is measured
/// for a third of the run's seconds.
pub const SETUPS: usize = 3;
/// Measured passes a run makes at least, however short it is asked to be
/// (a median needs them).
const MIN_PASSES: usize = 3;

/// Generated inputs of one workload, ready to be set up any number of
/// times.
pub trait Workload {
    /// Checksum of everything the program will be given (graphs, queries,
    /// op list): same seed, same checksum.
    fn input_checksum(&self) -> u64;
    /// Builds the program's state under `dir` and runs the warm-up ops.
    /// Returns the instance and the seconds that count as set-up (input
    /// copies are left out).
    fn setup(&self, dir: &Path) -> Result<(Box<dyn Instance + '_>, f64), String>;
}

pub trait Instance {
    /// One closed-loop pass over the whole op list by one caller.
    fn pass(&mut self) -> Pass;
    fn sizes(&self) -> Sizes;
    /// The traced pass and layer replays, sized to about `seconds`.
    fn trace(&mut self, seconds: f64, tr: &mut Tracer) -> Result<Layers, String>;
}

pub struct Pass {
    /// Latency of every query op, in list order.
    pub query_ms: Vec<f64>,
    /// Ops attempted (queries and mutations).
    pub ops: usize,
    pub failed: usize,
    /// Summed op time: the pass's wall clock without the checks between
    /// ops.
    pub busy_s: f64,
    /// Checksum of every result of the pass.
    pub checksum: u64,
    pub quality: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub graphs: usize,
    pub nodes: u64,
    pub index_bytes: u64,
    pub pool_frames: usize,
    pub ops_per_pass: usize,
}

/// FNV-1a over a stream of integers and bytes.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds a ranked result list into `h`, bit for bit. Graphs go in by
/// name: a graph inserted anew in every pass gets a new id each time.
pub fn hash_matches(h: &mut Fnv, matches: &[QueryMatch]) {
    h.u64(matches.len() as u64);
    for m in matches {
        h.bytes(m.graph_name.as_bytes());
        h.u64(m.score.to_bits());
        h.u64(m.matched_nodes as u64);
        h.u64(m.matched_edges as u64);
        for p in &m.m.pairs {
            h.u64(u64::from(p.query.0));
            h.u64(u64::from(p.target.0));
            h.u64(p.quality.to_bits());
        }
    }
}

/// A directory of this process under `.bench_work/` in the current
/// directory, removed on drop. Everything the benchmark writes goes here,
/// so a run stays inside its checkout.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new() -> std::io::Result<WorkDir> {
        let dir = std::env::current_dir()?
            .join(".bench_work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only when empty
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What one run reports.
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
    pub sizes: Sizes,
    pub passes: usize,
    /// Query operations in one pass.
    pub queries: usize,
    /// Query latencies taken over all passes.
    pub latency_samples: usize,
    pub setup_all_s: Vec<f64>,
    /// `ops_per_s` of each measured pass, in the order they ran.
    pub pass_ops_per_s: Vec<f64>,
    /// Checksum of the first pass's results (0 for a traced run).
    pub checksum: u64,
    pub input_checksum: u64,
}

/// The latency of each query of the op list: its median over the passes
/// (every pass sends the same list in the same order), so that a pass the
/// machine disturbed does not reach the percentiles.
fn per_query_medians(passes: &[Pass]) -> Vec<f64> {
    (0..passes[0].query_ms.len())
        .map(|i| stats::median(&passes.iter().map(|p| p.query_ms[i]).collect::<Vec<_>>()))
        .collect()
}

/// Untraced run: the end-to-end metrics.
pub fn measure(
    w: &dyn Workload,
    work: &Path,
    seconds: f64,
    setups: usize,
) -> Result<Report, String> {
    // Every set-up is measured for its share of the time, so that what
    // differs from one instance to the next (thread and socket placement,
    // heap layout) is averaged inside a run instead of between runs.
    let share = seconds / setups as f64;
    let mut setup_all_s = Vec::with_capacity(setups);
    let mut passes: Vec<Pass> = Vec::new();
    let mut sizes = None;
    for i in 0..setups {
        let dir = work.join(format!("setup-{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let (mut inst, s) = w.setup(&dir)?;
        setup_all_s.push(s);
        let (mut busy, mut n) = (0.0, 0);
        loop {
            beat();
            let pass = inst.pass();
            busy += pass.busy_s;
            n += 1;
            passes.push(pass);
            // Whole passes only; stop once another would overshoot the
            // share by more than it undershoots.
            if n * setups >= MIN_PASSES && busy + 0.5 * busy / n as f64 >= share {
                break;
            }
        }
        sizes = Some(inst.sizes());
        drop(inst);
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    let sizes = sizes.ok_or("no set-up ran")?;

    let mut problems = Vec::new();
    let attempted: usize = passes.iter().map(|p| p.ops).sum();
    let mut failed: usize = passes.iter().map(|p| p.failed).sum();
    if failed > 0 {
        problems.push(format!("{failed} operations failed their check"));
    }
    let checksum = passes[0].checksum;
    let drifted = passes.iter().filter(|p| p.checksum != checksum).count();
    if drifted > 0 {
        failed += drifted;
        problems.push(format!(
            "{drifted} passes answered differently from the first"
        ));
    }

    let mut latencies = per_query_medians(&passes);
    latencies.sort_by(f64::total_cmp);
    let per_pass_rate: Vec<f64> = passes.iter().map(|p| p.ops as f64 / p.busy_s).collect();

    let mut metrics = BTreeMap::new();
    metrics.insert("query_p50_ms", stats::percentile(&latencies, 50.0));
    metrics.insert("query_p90_ms", stats::percentile(&latencies, 90.0));
    metrics.insert("ops_per_s", stats::median(&per_pass_rate));
    metrics.insert("setup_s", stats::median(&setup_all_s));
    metrics.insert("peak_rss_mb", peak_rss_mb());
    metrics.insert(
        "index_bytes_per_node",
        sizes.index_bytes as f64 / sizes.nodes.max(1) as f64,
    );
    metrics.insert("match_quality", passes[0].quality);
    for (name, v) in &metrics {
        if !v.is_finite() || *v <= 0.0 {
            problems.push(format!("{name} = {v} is not a positive number"));
        }
    }
    Ok(Report {
        correct: problems.is_empty(),
        metrics,
        attempted,
        failed,
        problems,
        sizes,
        passes: passes.len(),
        queries: latencies.len(),
        latency_samples: latencies.len() * passes.len(),
        setup_all_s,
        pass_ops_per_s: per_pass_rate,
        checksum,
        input_checksum: w.input_checksum(),
    })
}

/// Traced run: the per-layer metrics, and the spans written to
/// `trace_out`.
pub fn traced(
    w: &dyn Workload,
    work: &Path,
    seconds: f64,
    trace_out: &Path,
) -> Result<Report, String> {
    std::fs::create_dir_all(work).map_err(|e| e.to_string())?;
    let (mut inst, setup_s) = w.setup(work)?;
    beat();
    let sizes = inst.sizes();
    let mut tr = Tracer::new();
    let layers = inst.trace(seconds, &mut tr)?;
    let json = serde_json::to_string(&tr.to_json()).map_err(|e| e.to_string())?;
    std::fs::write(trace_out, json).map_err(|e| e.to_string())?;

    let mut problems = Vec::new();
    let mut metrics = BTreeMap::new();
    for m in catalog::PER_LAYER {
        // A layer the workload does not run reports 0.
        let v = layers.get(m.name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            problems.push(format!("{} = {v} is not a number", m.name));
        }
        metrics.insert(m.name, v);
    }
    Ok(Report {
        correct: problems.is_empty(),
        metrics,
        attempted: tr.spans().iter().map(|s| s.op).max().unwrap_or(0).max(1) as usize,
        failed: 0,
        problems,
        sizes,
        passes: 1,
        queries: 0,
        latency_samples: 0,
        setup_all_s: vec![setup_s],
        pass_ops_per_s: Vec::new(),
        checksum: 0,
        input_checksum: w.input_checksum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disturbed_pass_does_not_reach_the_latencies() {
        let pass = |query_ms: &[f64]| Pass {
            query_ms: query_ms.to_vec(),
            ops: query_ms.len(),
            failed: 0,
            busy_s: 1.0,
            checksum: 0,
            quality: 1.0,
        };
        let passes = [
            pass(&[1.0, 20.0, 3.0]),
            pass(&[1.2, 21.0, 90.0]),
            pass(&[70.0, 22.0, 3.2]),
        ];
        assert_eq!(per_query_medians(&passes), [1.2, 21.0, 3.2]);
    }
}

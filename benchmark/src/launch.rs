//! One launch: a fresh process that generates a workload's inputs, sets
//! the program up, warms it, times a window of ops, makes the count pass
//! and prints one JSON record for the parent to aggregate.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::json::Json;
use crate::probes::Probes;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workloads::{self, Counts, Op};

/// Ops of the untimed count pass.
pub const COUNT_PASS_OPS: usize = 32;
/// The reference loop runs between ops once this much time has passed
/// since its last run: often enough to see the host's weather, rarely
/// enough to cost under 2 % of the window.
const REF_EVERY: Duration = Duration::from_millis(25);
/// Process CPU time is sampled around every this-many-th op.
const CPU_EVERY: usize = 8;
/// Failures kept verbatim in the record (all are counted).
const FAILURES_KEPT: usize = 8;
/// Ops whose spans the trace file lists one by one.
const TRACE_OPS_LISTED: u64 = 64;

pub struct LaunchCfg {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
    pub smoke: bool,
    pub traced: bool,
    pub crew: usize,
    /// Where a traced launch writes its spans.
    pub trace_out: Option<String>,
}

/// Crew width of the pooled cluster: the dispatcher sleeps while the
/// crew runs, so at most this many threads are runnable at once.
pub fn crew_width() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Verifies every op after its timer stops and keeps the tally.
struct Tally {
    expected: Counts,
    digest: Option<u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<Json>,
}

impl Tally {
    fn fail(&mut self, name: &str, detail: String) {
        self.failed += 1;
        if self.failures.len() < FAILURES_KEPT {
            self.failures
                .push(Json::obj().set("name", name).set("detail", detail));
        }
    }

    fn verify(&mut self, op: &dyn Op, counts: Counts) {
        self.attempted += 1;
        let digest = match op.check() {
            Ok(d) => d,
            Err(detail) => return self.fail("output-mismatch", detail),
        };
        if counts != self.expected {
            return self.fail(
                "nondeterministic-count",
                format!("op counted {counts:?}, the reference {:?}", self.expected),
            );
        }
        if *self.digest.get_or_insert(digest) != digest {
            self.fail(
                "nondeterministic-count",
                "output digest differs between ops of one launch".into(),
            );
        }
    }
}

/// A fixed 512 KiB scatter-add: the machine's weather. Reported beside
/// the op times, never used to rescale them.
struct RefLoop {
    cells: Vec<u64>,
}

impl RefLoop {
    const CELLS: usize = 512 * 1024 / 8;

    fn new() -> RefLoop {
        RefLoop {
            cells: vec![0; Self::CELLS],
        }
    }

    fn run(&mut self) -> Duration {
        let start = Instant::now();
        for pass in 0..4u64 {
            for i in 0..Self::CELLS as u64 {
                // An odd multiplier permutes the power-of-two index space.
                let at = (i.wrapping_mul(40_503) + pass) as usize & (Self::CELLS - 1);
                self.cells[at] = self.cells[at].wrapping_add(i);
            }
        }
        black_box(&self.cells);
        start.elapsed()
    }
}

/// On-CPU nanoseconds of every thread alive now (client and crew);
/// threads that start and end inside one op are not seen.
fn cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Window {
    op_ns: Vec<f64>,
    ref_ns: Vec<f64>,
    cpu_ms_per_op: f64,
    allocs_per_op: f64,
    alloc_kb_per_op: f64,
    layers: Vec<(&'static str, f64)>,
    trace: Option<Json>,
}

/// Warm-up, timed window and count pass on a set-up op.
fn measure(op: &mut dyn Op, cfg: &LaunchCfg, tally: &mut Tally) -> Window {
    let mut off = Tracer::new(false);
    let warm_for = Duration::from_millis(if cfg.smoke { 50 } else { 500 });
    let warm_start = Instant::now();
    let mut warmed = 0;
    while warmed < 3 || warm_start.elapsed() < warm_for {
        op.stage();
        let counts = op.run(&mut off);
        tally.verify(op, counts);
        warmed += 1;
    }

    let mut tr = Tracer::new(cfg.traced);
    let mut reference = RefLoop::new();
    reference.run();
    let (mut op_ns, mut ref_ns, mut cpu_samples) = (Vec::new(), Vec::new(), Vec::new());
    let window_start = Instant::now();
    let mut last_ref = window_start;
    while window_start.elapsed() < cfg.window || op_ns.is_empty() {
        op.stage();
        tr.next_op();
        let sample_cpu = op_ns.len() % CPU_EVERY == 0;
        let cpu_before = if sample_cpu { cpu_ns() } else { 0 };
        let start = Instant::now();
        let counts = op.run(&mut tr);
        op_ns.push(start.elapsed().as_nanos() as f64);
        if sample_cpu {
            cpu_samples.push((cpu_ns() - cpu_before) as f64 / 1e6);
        }
        tally.verify(op, counts);
        if last_ref.elapsed() >= REF_EVERY {
            ref_ns.push(reference.run().as_nanos() as f64);
            last_ref = Instant::now();
        }
    }

    let (mut allocs, mut bytes) = (0u64, 0u64);
    for _ in 0..COUNT_PASS_OPS {
        op.stage();
        let (counts, a, b) = alloc::count(|| op.run(&mut off));
        allocs += a;
        bytes += b;
        tally.verify(op, counts);
    }

    // Rates are quiet at the top of their distribution, times at the bottom.
    let layers = tr
        .observations()
        .into_iter()
        .map(|(name, per_op)| {
            let q = if name.ends_with("_per_s") {
                1.0 - stats::QUIET_Q
            } else {
                stats::QUIET_Q
            };
            (name, stats::quantile_of(&per_op, q))
        })
        .collect();
    let trace = cfg.traced.then(|| {
        Json::obj()
            .set("ops", op_ns.len())
            .set("summary", trace::summary(tr.spans()))
            .set("spans_listed_for_ops", TRACE_OPS_LISTED)
            .set("spans", trace::spans_json(tr.spans(), TRACE_OPS_LISTED))
    });
    Window {
        op_ns,
        ref_ns,
        cpu_ms_per_op: stats::mean(&cpu_samples),
        allocs_per_op: allocs as f64 / COUNT_PASS_OPS as f64,
        alloc_kb_per_op: bytes as f64 / 1024.0 / COUNT_PASS_OPS as f64,
        layers,
        trace,
    }
}

/// Run one launch and return its record.
pub fn launch(cfg: &LaunchCfg) -> Result<Json, String> {
    let workload = workloads::build(&cfg.workload, cfg.seed, cfg.smoke)
        .ok_or_else(|| format!("unknown workload `{}`", cfg.workload))?;
    let mut tally = Tally {
        expected: workload.expected(),
        digest: None,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };

    // Set-up is timed several times a launch (its median is steadier
    // than one reading): at least three times, and for a set-up of a few
    // milliseconds as often as fits in a quarter of a second. The last
    // instance is the one measured.
    let mut setup_reps = if cfg.smoke { 1 } else { 3 };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut window = None;
    let mut rep = 0;
    while rep < setup_reps {
        if rep == 1 && !cfg.smoke {
            setup_reps = ((0.25 / setup_s[0]) as usize).clamp(3, 15);
        }
        rep += 1;
        let start = Instant::now();
        workload.setup_then(cfg.crew, &mut |op| {
            op.stage();
            let counts = op.run(&mut Tracer::new(false));
            setup_s.push(start.elapsed().as_secs_f64());
            tally.verify(op, counts);
            if rep == setup_reps {
                window = Some(measure(op, cfg, &mut tally));
            }
        });
    }
    let window = window.ok_or("set-up never ran the op")?;

    let mut layers = window.layers;
    if cfg.traced {
        let mut probes = Probes::default();
        workload.probes(cfg.crew, &mut probes);
        layers.extend_from_slice(probes.metrics());
        if let (Some(path), Some(trace)) = (&cfg.trace_out, &window.trace) {
            let doc = Json::obj()
                .set("workload", cfg.workload.as_str())
                .set("seed", cfg.seed)
                .set("crew", cfg.crew)
                .set("trace", trace.clone());
            std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("write {path}: {e}"))?;
        }
    }
    let mut layers_json = Json::obj();
    for (name, value) in layers {
        layers_json = layers_json.set(name, value);
    }

    Ok(Json::obj()
        .set("workload", cfg.workload.as_str())
        .set("seed", cfg.seed)
        .set("traced", cfg.traced)
        .set("crew", cfg.crew)
        .set("window_s", cfg.window.as_secs_f64())
        .set("attempted", tally.attempted)
        .set("failed", tally.failed)
        .set("failures", tally.failures)
        .set("counts", tally.expected.to_json())
        .set("digest", format!("{:016x}", tally.digest.unwrap_or(0)))
        .set("setup_s", &setup_s[..])
        .set("generate_ms", workload.generate_ms())
        .set("op_ns", &window.op_ns[..])
        .set("ref_ns", &window.ref_ns[..])
        .set("cpu_ms_per_op", window.cpu_ms_per_op)
        .set("allocs_per_op", window.allocs_per_op)
        .set("alloc_kb_per_op", window.alloc_kb_per_op)
        .set("peak_rss_mb", peak_rss_mb())
        .set("layers", layers_json)
        .set("sizes", workload.sizes()))
}

//! The simulator benchmark: one closed-loop client runs a workload's cells
//! back to back on the default engine, checks every cell's output, and
//! prints host-time metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload ddt_unpack --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced iterations, times each layer's public functions,
//! and prints the per-layer metrics. See `simbench/README.md` for the
//! metric definitions.

mod layers;
mod workloads;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workloads::{Cell, Workload};

/// Engine knobs the simulator reads from the environment deep inside a run.
/// A stray value would silently measure another engine, so the benchmark
/// refuses to start when any is set.
const ENGINE_ENV: [&str; 5] = [
    "SPIN_SHARDS",
    "SPIN_SHARD_MODE",
    "SPIN_BATCH_DISPATCH",
    "SPIN_EVENT_QUEUE",
    "SPIN_JOBS",
];

/// What the benchmark measures when none of [`ENGINE_ENV`] is set.
const DEFAULTS: &str = "engine=serial queue=calendar batch_dispatch=on";

/// Host-time budget of one cell; a cell that overruns it fails the run by
/// name instead of hanging it.
const CELL_BUDGET: Duration = Duration::from_secs(30);

/// Timed rounds at minimum, after the warm-up iteration.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace,
    })
}

fn main() {
    if let Some(var) = ENGINE_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "simbench: refusing to start: {var} is set; the benchmark measures the \
             default engine ({DEFAULTS}), unset it"
        );
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let mut bench = Bench::new(args.workload, args.seed);
    let metrics = if args.trace {
        traced_run(&mut bench, args.seconds)
    } else {
        let mut runs = Vec::new();
        bench.repeat_for(args.seconds, |b| runs.push(b.iterate(None)));
        end_to_end(&runs)
    };
    println!(
        "simbench: workload={} seed={} defaults: {DEFAULTS} iterations={} cells={} failed_cells={}",
        args.workload.name(),
        args.seed,
        bench.iterations,
        bench.attempted,
        bench.failed
    );
    for (name, value, unit) in &metrics {
        println!("simbench: {} {name} = {value} {unit}", args.workload.name());
    }
    println!("{}", result_json(&bench, &metrics));
    bench.finish();
}

/// One metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

/// Host time and work of one workload iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct IterTimes {
    /// Seconds in set-up: scenario parse and compile plus `World::new`.
    pub setup: f64,
    /// Seconds in the simulator entry points.
    pub run: f64,
    /// Simulated events executed (packets on `app_replay`, see README).
    pub events: u64,
}

/// One span of the traced run: a benchmark-side call into one layer.
pub struct Span {
    iter: usize,
    cell: usize,
    phase: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// The in-memory span recorder of the traced run.
pub struct Trace {
    origin: Instant,
    iter: usize,
    spans: Vec<Span>,
}

impl Trace {
    fn new() -> Self {
        Trace {
            origin: Instant::now(),
            iter: 0,
            spans: Vec::new(),
        }
    }

    /// Record that `phase` of `cell` ran from `start` for `dur`.
    pub fn record(&mut self, cell: usize, phase: &'static str, start: Instant, dur: Duration) {
        self.spans.push(Span {
            iter: self.iter,
            cell,
            phase,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    /// Per iteration, the summed (or, with `max`, the largest) duration of
    /// the spans named `phase`, in ms.
    fn per_iter_ms(&self, phase: &str, max: bool) -> Vec<f64> {
        let iters = self.spans.iter().map(|s| s.iter + 1).max().unwrap_or(0);
        let mut out = vec![0.0f64; iters];
        for s in self.spans.iter().filter(|s| s.phase == phase) {
            let ms = s.dur_ns as f64 / 1e6;
            let slot = &mut out[s.iter];
            *slot = if max { slot.max(ms) } else { *slot + ms };
        }
        out
    }
}

/// The closed-loop client state: the workload's cells plus the failure
/// ledger and the per-cell digests of the first iteration.
pub struct Bench {
    workload: Workload,
    seed: u64,
    cells: Vec<Cell>,
    first_digest: Vec<Option<u64>>,
    iterations: usize,
    attempted: u64,
    failed: u64,
    watchdog: mpsc::Sender<Armed>,
    watchdog_thread: std::thread::JoinHandle<()>,
}

impl Bench {
    fn new(workload: Workload, seed: u64) -> Self {
        let cells = workload.cells(seed);
        let first_digest = vec![None; cells.len()];
        let (watchdog, watchdog_thread) = spawn_watchdog();
        Bench {
            workload,
            seed,
            cells,
            first_digest,
            iterations: 0,
            attempted: 0,
            failed: 0,
            watchdog,
            watchdog_thread,
        }
    }

    /// Stop the watchdog and wait for it.
    fn finish(self) {
        drop(self.watchdog);
        self.watchdog_thread
            .join()
            .expect("the watchdog thread never panics");
    }

    /// Warm up with one iteration, then repeat `round` until `seconds`
    /// (warm-up included) are used up, at least [`MIN_ROUNDS`] times.
    fn repeat_for(&mut self, seconds: f64, mut round: impl FnMut(&mut Bench)) {
        let start = Instant::now();
        self.iterate(None);
        let mut rounds = 0;
        loop {
            let t = Instant::now();
            round(self);
            rounds += 1;
            let projected = start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64();
            if rounds >= MIN_ROUNDS && projected > seconds {
                break;
            }
        }
    }

    /// One pass over every cell: set up, run, check.
    fn iterate(&mut self, mut trace: Option<&mut Trace>) -> IterTimes {
        let mut total = IterTimes::default();
        for i in 0..self.cells.len() {
            let name = self.cells[i].name.clone();
            self.attempted += 1;
            self.arm(Some(name.clone()));
            let cell = &mut self.cells[i];
            let result = catch_unwind(AssertUnwindSafe(|| cell.execute(i, trace.as_deref_mut())));
            self.arm(None);
            let failure = match result {
                Ok(Ok(out)) => {
                    total.setup += out.times.setup;
                    total.run += out.times.run;
                    total.events += out.times.events;
                    let first = self.first_digest[i].get_or_insert(out.digest);
                    (*first != out.digest).then(|| {
                        format!(
                            "digest {:#x} differs from the first iteration's {:#x}",
                            out.digest, first
                        )
                    })
                }
                Ok(Err(e)) => Some(e),
                Err(panic) => Some(panic_message(&panic)),
            };
            if let Some(why) = failure {
                self.failed += 1;
                eprintln!("simbench: cell {name} failed: {why}");
            }
        }
        self.iterations += 1;
        if let Some(t) = trace {
            t.iter += 1;
        }
        total
    }

    /// Tell the watchdog which cell is running (None: between cells).
    fn arm(&self, cell: Option<String>) {
        let msg = cell.map(|c| (c, self.attempted, self.failed));
        self.watchdog
            .send(msg)
            .expect("the watchdog thread outlives the benchmark");
    }
}

/// What the watchdog is told: the running cell with the attempted and
/// failed counts so far, or `None` between cells.
type Armed = Option<(String, u64, u64)>;

/// A thread that only waits: when a cell overruns [`CELL_BUDGET`] it names
/// the cell, prints a failed result and ends the process, since a running
/// simulation cannot be interrupted from outside.
fn spawn_watchdog() -> (mpsc::Sender<Armed>, std::thread::JoinHandle<()>) {
    let (tx, rx) = mpsc::channel::<Armed>();
    let handle = std::thread::spawn(move || {
        let mut current: Option<((String, u64, u64), Instant)> = None;
        loop {
            let msg = match &current {
                None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
                Some((_, deadline)) => {
                    rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
                }
            };
            match msg {
                Ok(m) => current = m.map(|c| (c, Instant::now() + CELL_BUDGET)),
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    let ((cell, attempted, failed), _) = current.expect("armed");
                    eprintln!("simbench: cell {cell} overran its {CELL_BUDGET:?} budget");
                    println!(
                        "{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{}}}}",
                        failed + 1
                    );
                    std::process::exit(1);
                }
            }
        }
    });
    (tx, handle)
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_string()
    }
}

/// Median of a sample; NaN (printed as `null`) when it is empty, which
/// only a run whose cells all failed produces.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn end_to_end(runs: &[IterTimes]) -> Vec<Metric> {
    let wall: Vec<f64> = runs.iter().map(|r| r.setup + r.run).collect();
    let setup: Vec<f64> = runs.iter().map(|r| r.setup).collect();
    let rate: Vec<f64> = runs.iter().map(|r| r.events as f64 / r.run).collect();
    let (min, max) = wall.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| {
        (lo.min(w), hi.max(w))
    });
    println!(
        "simbench: wall_s over {} timed iterations: min {min} median {} max {max}",
        wall.len(),
        median(&wall)
    );
    vec![
        ("wall_s".into(), median(&wall), "s"),
        ("setup_s".into(), median(&setup), "s"),
        ("events_per_s".into(), median(&rate), "1/s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ]
}

/// The traced run: untraced and traced iterations alternate, the traced
/// ones recording spans and exact counts; then the per-layer timings.
fn traced_run(bench: &mut Bench, seconds: f64) -> Vec<Metric> {
    let mut trace = Trace::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    bench.repeat_for(seconds, |b| {
        untraced.push(b.iterate(None));
        traced.push(b.iterate(Some(&mut trace)));
    });
    let wall =
        |runs: &[IterTimes]| median(&runs.iter().map(|r| r.setup + r.run).collect::<Vec<_>>());
    let overhead_pct = (wall(&traced) / wall(&untraced) - 1.0) * 100.0;
    let events: u64 = traced.iter().map(|r| r.events).sum();
    let run_s: f64 = traced.iter().map(|r| r.run).sum();

    let mut metrics = Vec::new();
    match layers::exact_counts(&bench.cells) {
        Ok(counts) => metrics.extend(counts),
        Err(e) => {
            bench.failed += 1;
            eprintln!("simbench: traced counts failed: {e}");
        }
    }
    metrics.push((
        "sim.events".into(),
        events as f64 / traced.len() as f64,
        "count",
    ));
    metrics.push((
        "core.run_ns_per_event".into(),
        run_s * 1e9 / events as f64,
        "ns",
    ));
    metrics.push((
        "core.world_new_ms".into(),
        median(&trace.per_iter_ms("world_new", true)),
        "ms",
    ));
    metrics.push((
        "scenario.compile_ms".into(),
        median(&trace.per_iter_ms("compile", false)),
        "ms",
    ));
    metrics.extend(layers::timings(bench.seed));
    match layers::shard_speedups(bench) {
        Ok(s) => metrics.extend(s),
        Err(e) => {
            bench.failed += 1;
            eprintln!("simbench: shard comparison failed: {e}");
        }
    }
    metrics.push(("trace.overhead_pct".into(), overhead_pct, "%"));
    if let Err(e) = write_spans(bench, &trace) {
        eprintln!("simbench: could not write spans: {e}");
    }
    metrics
}

/// Write the traced run's spans as JSON next to the build output.
fn write_spans(bench: &Bench, trace: &Trace) -> std::io::Result<()> {
    let dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "simbench/target".into()),
    )
    .join("simbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.json", bench.workload.name(), bench.seed));
    let mut out = String::from("[\n");
    for (k, s) in trace.spans.iter().enumerate() {
        let sep = if k + 1 == trace.spans.len() { "" } else { "," };
        writeln!(
            out,
            "  {{\"iter\": {}, \"cell\": \"{}\", \"phase\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}}}{sep}",
            s.iter, bench.cells[s.cell].name, s.phase, s.start_ns, s.dur_ns
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]\n");
    std::fs::write(&path, out)?;
    eprintln!(
        "simbench: {} spans written to {}",
        trace.spans.len(),
        path.display()
    );
    Ok(())
}

fn result_json(bench: &Bench, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        bench.failed == 0,
        bench.attempted,
        bench.failed,
        body.join(", ")
    )
}

/// A finite f64 in full precision (JSON has no NaN or infinity).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// Peak resident set size of this process, in MB (10^6 bytes).
fn peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
    /// which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux; RUSAGE_SELF (0) fills it and
    // touches nothing else.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    usage.maxrss as f64 * 1024.0 / 1e6
}

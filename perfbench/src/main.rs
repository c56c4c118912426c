//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the world and trains the model (set-up), generates the seeded
//! city trace and its reference labels (a synchronous 1-shard replay),
//! then drives the named workload through the layers' public APIs for
//! `--seconds`. Every final label is checked against the reference. The
//! last stdout line is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md for
//! the workloads and what each metric should move.

mod alloc;
mod fleet;
mod host;
mod kernels;
mod paced;
mod spans;
mod stats;
mod world;

use spans::Spans;
use std::process::ExitCode;
use world::{Corpus, Setup};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

type Workload = fn(&Setup, &Corpus, f64, &mut Spans) -> Measured;

const WORKLOADS: [(&str, Workload); 3] = [
    ("fleet_replay", fleet::fleet_replay),
    ("paced_ingest", paced::paced_ingest),
    ("idle_fleet", fleet::idle_fleet),
];

/// A slice of a timed window: the points it carried, its length, the
/// program's CPU time in it, and its label latency quantiles (p50, p90,
/// p99 in µs) if it saw any label.
#[derive(Clone, Copy)]
pub struct Trial {
    pub points: u64,
    pub secs: f64,
    pub cpu_ns: u64,
    pub latency_us: Option<[f64; 3]>,
}

/// The fastest repetition seen of each step of a closed loop's repeating
/// cycle: wall and CPU time of the whole step, and the `observe_batch`
/// call that delivered its labels. Every step recurs many times in a
/// window, so each needs only one repetition in a quiet moment of the
/// host; the sum of the steps is the cycle as the program runs it
/// uncontended.
pub struct Cycle {
    steps: Vec<Step>,
}

#[derive(Clone, Copy)]
struct Step {
    wall_ns: u64,
    cpu_ns: u64,
    label_ns: u64,
    points: u64,
}

impl Cycle {
    pub fn new(len: usize) -> Cycle {
        let unseen = Step {
            wall_ns: u64::MAX,
            cpu_ns: u64::MAX,
            label_ns: u64::MAX,
            points: 0,
        };
        Cycle {
            steps: vec![unseen; len],
        }
    }

    /// One repetition of step `pos`, carrying `points` points.
    pub fn record(&mut self, pos: usize, wall_ns: u64, cpu_ns: u64, label_ns: u64, points: u64) {
        let s = &mut self.steps[pos];
        s.wall_ns = s.wall_ns.min(wall_ns);
        s.cpu_ns = s.cpu_ns.min(cpu_ns);
        s.label_ns = s.label_ns.min(label_ns);
        s.points = s.points.max(points);
    }
}

/// Everything one timed window produced.
#[derive(Default)]
pub struct Measured {
    /// Points observed in the window, and its length.
    pub points: u64,
    pub window_s: f64,
    /// The window's trials, in order.
    pub trials: Vec<Trial>,
    /// Points passed to `observe_batch`, warm-up included (the points
    /// the engine spans cover).
    pub observed: u64,
    /// Label latency samples taken in all trials.
    pub label_samples: u64,
    /// Label latency samples of the current trial (a closed loop's whole
    /// window): `(ns, points it stands for)`.
    pub latency: Vec<(u64, u64)>,
    /// Opens, submits and closes attempted, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Sessions whose final labels were compared with the reference, and
    /// how many differed (or broke an accounting identity).
    pub checked: u64,
    pub mismatched: u64,
    /// Per-layer metrics by name (units are in [`PER_LAYER`]).
    pub layers: Vec<(&'static str, f64)>,
}

impl Measured {
    /// Ends an open-loop trial of the window.
    pub fn trial(&mut self, points: u64, secs: f64, cpu_ns: u64) {
        self.points += points;
        self.window_s += secs;
        self.push_trial(points, secs, cpu_ns);
    }

    fn push_trial(&mut self, points: u64, secs: f64, cpu_ns: u64) {
        let latency_us = (!self.latency.is_empty())
            .then(|| [0.5, 0.9, 0.99].map(|q| stats::quantile(&mut self.latency, q) as f64 / 1e3));
        self.label_samples += self.latency.len() as u64;
        self.latency.clear();
        self.trials.push(Trial {
            points,
            secs,
            cpu_ns,
            latency_us,
        });
    }

    pub fn check(&mut self, got: &[u8], want: &[u8]) {
        self.checked += 1;
        self.mismatched += u64::from(got != want);
    }

    pub fn check_all(&mut self, got: &[Vec<u8>], want: &[Vec<u8>]) {
        for (g, w) in got.iter().zip(want) {
            self.check(g, w);
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Ends a closed-loop window: its one trial is the cycle's fastest
    /// repetitions, step by step, except that its p99 stays the p99 of
    /// every label of the window (the tail is what the fastest
    /// repetitions hide).
    pub fn best_cycle(&mut self, cycle: &Cycle) {
        let raw_p99 = stats::quantile(&mut self.latency, 0.99) as f64 / 1e3;
        self.latency.clear();
        let seen = cycle.steps.iter().filter(|s| s.wall_ns != u64::MAX);
        self.latency.extend(
            seen.clone()
                .filter(|s| s.points > 0)
                .map(|s| (s.label_ns, s.points)),
        );
        let (points, wall, cpu) = seen.fold((0, 0, 0), |(p, w, c), s| {
            (p + s.points, w + s.wall_ns, c + s.cpu_ns)
        });
        self.push_trial(points, wall as f64 / 1e9, cpu);
        if let Some(Trial {
            latency_us: Some(l),
            ..
        }) = self.trials.last_mut()
        {
            l[2] = raw_p99;
        }
    }

    /// Adds `other`'s operation and label-check counts to these.
    fn absorb(&mut self, other: &Measured) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checked += other.checked;
        self.mismatched += other.mismatched;
    }

    /// The engine-layer metrics of a closed-loop run.
    pub fn engine(&mut self, spans: &Spans, stats: &rl4oasd::EngineStats, policy_calls: usize) {
        let s = spans.summary();
        let observe = s.get("engine.observe_batch").copied().unwrap_or_default();
        let decisions = stats.observe_events.max(1) as f64;
        let traced_points = self.observed.max(1) as f64;
        self.layer(
            "engine.observe_ns_per_point",
            observe.self_ns as f64 / traced_points,
        );
        self.layer("engine.observe_ns_per_point.n", observe.count as f64);
        self.layer(
            "engine.allocs_per_point",
            observe.allocs as f64 / traced_points,
        );
        self.layer(
            "engine.batched_share",
            stats.batched_events as f64 / decisions,
        );
        self.layer("engine.policy_share", policy_calls as f64 / decisions);
        for (name, metric) in [
            ("engine.open", "engine.open_ns"),
            ("engine.close", "engine.close_ns"),
        ] {
            let t = s.get(name).copied().unwrap_or_default();
            self.layer(metric, t.mean_ns());
        }
        let n = |name| s.get(name).map_or(0, |t: &spans::Total| t.count) as f64;
        self.layer("engine.open_ns.n", n("engine.open"));
        self.layer("engine.close_ns.n", n("engine.close"));
    }
}

struct Args {
    workload: &'static str,
    drive: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    let &(workload, drive) = WORKLOADS
        .iter()
        .find(|w| w.0 == workload)
        .ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    Ok(Args {
        workload,
        drive,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> ExitCode {
    if args.trace {
        alloc::enable();
    }
    let ref_before = host::ref_ns();
    let setup = world::setup();
    let corpus = world::corpus(&setup, args.seed);
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let m = if !args.trace {
        let m = (args.drive)(&setup, &corpus, args.seconds, &mut Spans::new(false));
        end_to_end(&m, &setup, &corpus, &mut metrics);
        m
    } else {
        traced(args, &setup, &corpus, &mut metrics)
    };
    let ref_after = host::ref_ns();
    if let Some(m) = metrics.iter_mut().find(|m| m.0 == "host.ref_ns") {
        m.1 = (ref_before + ref_after) / 2.0;
    }
    let correct = m.mismatched == 0 && m.checked > 0;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Threads the program runs (generator included) and loopback
    // connections; the traced paced_ingest run adds a wire pass with one
    // connection and four threads.
    let (threads, connections) = match args.workload {
        "paced_ingest" => (2, 0),
        _ => (1, 0),
    };
    println!(
        "{{\"shape\": {{\"workload\": \"{}\", \"seed\": {}, \"trips\": {}, \"points\": {}, \
         \"rate_pts_per_s\": {}, \"threads\": {threads}, \"connections\": {connections}, \
         \"host_cores\": {cores}, \"window_s\": {}, \"window_points\": {}, \"window_points_per_s\": {}, \"trials\": {}, \"label_samples\": {}, \"checked_sessions\": {}, \"host_ref_ns\": [{ref_before}, {ref_after}]}}}}",
        args.workload,
        args.seed,
        corpus.trips.len(),
        corpus.points,
        if args.workload == "paced_ingest" { paced::RATE } else { 0.0 },
        m.window_s,
        m.points,
        m.points as f64 / m.window_s,
        m.trials.len(),
        m.label_samples,
        m.checked,
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted.max(1),
        m.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// The per-layer metrics every traced run prints, with their units; a
/// metric a workload does not exercise reads 0. `.n` is the sample count
/// behind the metric before it.
const PER_LAYER: [(&str, &str); 37] = [
    ("nn.lstm_step_ns", "ns"),
    ("nn.lstm_step_ns.n", "count"),
    ("nn.policy_head_ns", "ns"),
    ("nn.policy_head_ns.n", "count"),
    ("engine.observe_ns_per_point", "ns"),
    ("engine.observe_ns_per_point.n", "count"),
    ("engine.allocs_per_point", "count"),
    ("engine.batched_share", "ratio"),
    ("engine.policy_share", "ratio"),
    ("engine.open_ns", "ns"),
    ("engine.open_ns.n", "count"),
    ("engine.close_ns", "ns"),
    ("engine.close_ns.n", "count"),
    ("store.freezes_per_point", "count"),
    ("store.thaws_per_point", "count"),
    ("store.frozen_bytes_per_session", "B"),
    ("store.resident_bytes_per_session", "B"),
    ("ingest.submit_ns", "ns"),
    ("ingest.submit_ns.n", "count"),
    ("ingest.events_per_flush", "count"),
    ("ingest.flushes_per_kpoint", "count"),
    ("ingest.queue_full_retries", "count"),
    ("ingest.close_wait_us", "us"),
    ("ingest.close_wait_us.n", "count"),
    ("ingest.allocs_per_point", "count"),
    ("serve.send_ns", "ns"),
    ("serve.send_ns.n", "count"),
    ("serve.polls_per_frame", "count"),
    ("serve.wire_gap_us", "us"),
    ("serve.server_cpu_us_per_point", "us"),
    ("setup.world_s", "s"),
    ("setup.train_s", "s"),
    ("gen.late_max_us", "us"),
    ("gen.late_share", "ratio"),
    ("tail.label_p99_us", "us"),
    ("host.ref_ns", "ns"),
    ("trace.overhead_pct", "%"),
];

/// The window's end-to-end figures. Cost and latency come from the best
/// trial. A closed loop has one trial, its [`Cycle`] of fastest steps;
/// the open loop has one per quarter second. Contention from other
/// tenants of a shared host only ever makes a step or trial slower, and
/// its slow phases last seconds to minutes, so the best repeats across
/// runs where a window's mean or median does not. Throughput is the
/// trials' points over their time: the cycle's rate in a closed loop, the
/// delivered rate in the open loop (the offered rate unless the program
/// falls behind).
struct Figures {
    points_per_s: f64,
    cpu_us_per_point: f64,
    label_p50_us: f64,
    label_p90_us: f64,
}

fn figures(m: &Measured) -> Figures {
    let (mut cpu, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    let (mut points, mut secs) = (0, 0.0);
    for t in &m.trials {
        points += t.points;
        secs += t.secs;
        cpu.push(t.cpu_ns as f64 / 1e3 / t.points.max(1) as f64);
        if let Some([a, b, _]) = t.latency_us {
            p50.push(a);
            p90.push(b);
        }
    }
    let best = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    Figures {
        points_per_s: points as f64 / secs,
        cpu_us_per_point: best(&cpu),
        label_p50_us: best(&p50),
        label_p90_us: best(&p90),
    }
}

fn end_to_end(
    m: &Measured,
    setup: &Setup,
    corpus: &Corpus,
    out: &mut Vec<(&'static str, f64, &'static str)>,
) {
    let f = figures(m);
    let quality = eval::evaluate(&corpus.reference, &corpus.truth);
    out.push(("setup_s", setup.setup_s, "s"));
    out.push(("points_per_s", f.points_per_s, "pts/s"));
    out.push(("label_p50_us", f.label_p50_us, "us"));
    out.push(("label_p90_us", f.label_p90_us, "us"));
    out.push(("cpu_us_per_point", f.cpu_us_per_point, "us"));
    out.push(("rss_peak_mb", host::rss_peak_mb(), "MB"));
    out.push(("f1", quality.f1, "ratio"));
    out.push(("tf1", quality.tf1, "ratio"));
    out.push((
        "ok_ratio",
        (m.attempted - m.failed) as f64 / m.attempted.max(1) as f64,
        "ratio",
    ));
}

/// Program CPU microseconds per point over all trials.
fn cpu_per_point(m: &Measured) -> f64 {
    let cpu: u64 = m.trials.iter().map(|t| t.cpu_ns).sum();
    let points: u64 = m.trials.iter().map(|t| t.points).sum();
    cpu as f64 / 1e3 / points.max(1) as f64
}

/// A traced run: the workload untraced, then traced, for half the time
/// each. The traced half gives the spans and counters; the cost
/// difference between the halves is the tracing overhead. `paced_ingest`
/// quarters the time instead and also runs its generator over the wire
/// (`oasd-serve` on loopback), untraced then traced, to price the wire.
fn traced(
    args: &Args,
    setup: &Setup,
    corpus: &Corpus,
    out: &mut Vec<(&'static str, f64, &'static str)>,
) -> Measured {
    let drive = args.drive;
    let wire = args.workload == "paced_ingest";
    let part = args.seconds / if wire { 4.0 } else { 2.0 };
    let plain = drive(setup, corpus, part, &mut Spans::new(false));
    let mut spans = Spans::new(true);
    let mut m = drive(setup, corpus, part, &mut spans);
    m.absorb(&plain);
    let mut layers: Vec<(&str, f64)> = Vec::new();
    if wire {
        let wire_plain = paced::paced_wire(setup, corpus, part, &mut Spans::new(false));
        let wire_traced = paced::paced_wire(setup, corpus, part, &mut Spans::new(true));
        layers.push((
            "serve.wire_gap_us",
            figures(&wire_plain).label_p50_us - figures(&plain).label_p50_us,
        ));
        layers.extend(
            wire_traced
                .layers
                .iter()
                .filter(|l| l.0.starts_with("serve.")),
        );
        m.absorb(&wire_plain);
        m.absorb(&wire_traced);
    }
    let (lstm, head, calls) = kernels::step_ns(&setup.model);
    let mut p99: Vec<f64> = plain
        .trials
        .iter()
        .filter_map(|t| t.latency_us)
        .map(|l| l[2])
        .collect();
    layers.extend([
        ("nn.lstm_step_ns", lstm),
        ("nn.lstm_step_ns.n", calls as f64),
        ("nn.policy_head_ns", head),
        ("nn.policy_head_ns.n", calls as f64),
        ("setup.world_s", setup.world_s),
        ("setup.train_s", setup.train_s),
        ("tail.label_p99_us", stats::median(&mut p99)),
        (
            "trace.overhead_pct",
            (cpu_per_point(&m) / cpu_per_point(&plain) - 1.0) * 100.0,
        ),
    ]);
    layers.extend(&m.layers);
    for &(name, _) in &layers {
        assert!(
            PER_LAYER.iter().any(|p| p.0 == name),
            "per-layer metric {name} is not in PER_LAYER"
        );
    }
    for (name, unit) in PER_LAYER {
        let value = layers.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1);
        out.push((name, value, unit));
    }
    m
}

//! The simulator's end-to-end benchmark.
//!
//! Three workloads drive the engine only through its public calls:
//! `paper_figures` (the paper's own Fig 2–12 suite on `Sim`),
//! `scale_discovery` (1e3 brokers / 1e4 entities, boot to a fully
//! attached fleet on `ShardedSim`) and `scale_pubsub` (a 1e2-broker
//! mesh under an open-loop publish schedule). Each invocation runs one
//! workload; with tracing on it runs a second copy alongside, with
//! every actor wrapped in a timing [`tap::Tap`], and checks that the
//! engine digest and every virtual metric came out identical.
//!
//! `run.py` drives the binary, reads host wall time at the phase
//! markers, and prints the result line (see `README.md`).

pub mod clock;
pub mod figures;
pub mod fleet;
pub mod report;
pub mod tap;

use fleet::Faults;
use report::{ratio, Check, Marks, Metric, Report};
use tap::{Kind, Role};

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["paper_figures", "scale_discovery", "scale_pubsub"];

/// Paper protocol: 120 runs per figure (§9).
const FIGURE_RUNS: usize = 120;
/// Measured suite passes per second of `--seconds` (one pass is about
/// 0.17 s of host time at two workers on a 2-core host).
const FIGURE_PASSES_PER_SECOND: f64 = 5.0;
/// Measured 0.1 s publish windows per second of `--seconds` (one
/// window is about 0.08 s of host time on a 2-core host).
const PUBSUB_WINDOWS_PER_SECOND: f64 = 10.0;
/// Set-up repetitions of the scale workloads (the set-up metric is the
/// time of one; `paper_figures` sets up once, with one cold pass). A
/// traced invocation reports no set-up time, so it sets up each copy
/// once. `scale_discovery` set-up is the deployment build alone
/// (~0.05 s), so it takes more repetitions.
const DISCOVERY_SETUP_REPS: usize = 9;
/// Host seconds of one `scale_discovery` pass on a 2-core host; the
/// budget buys whole passes, at least one.
const DISCOVERY_PASS_SECONDS: f64 = 16.0;
/// `scale_pubsub` set-up includes the attach of the whole fleet, the
/// costliest set-up of the three.
const PUBSUB_SETUP_REPS: usize = 2;

/// One invocation.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny populations, for the benchmark's own tests.
    pub tiny: bool,
    pub faults: Faults,
}

fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// A workload's measured phase, run one step at a time so a traced
/// invocation can alternate the untraced and the traced copy step by
/// step: both then see the same host speed, which drifts on a shared
/// machine.
pub trait Measured {
    /// Runs the next step between `label` markers; false when the
    /// measured phase is over (no markers then).
    fn step(&mut self, marks: &mut Marks, label: &str) -> bool;
    /// Harvests the metrics once every step has run.
    fn finish(self: Box<Self>) -> RunOut;
}

/// What one run of a workload measured. `virt` holds the virtual-time
/// and counter metrics, which the traced run must reproduce exactly.
#[derive(Debug, Default)]
pub struct RunOut {
    pub virt: Vec<Metric>,
    /// End-to-end host readings (memory). Only an untraced invocation
    /// reports them: a traced one keeps both copies alive at once.
    pub host: Vec<Metric>,
    /// Per-layer host times the workload takes itself (deployment
    /// build and run, security costs).
    pub layer_times: Vec<Metric>,
    pub checks: Vec<Check>,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub layers: tap::LayerStats,
    /// Measured phase: engine events, thread CPU ns, CPU ns inside
    /// `run_for`, allocations.
    pub events: u64,
    pub cpu_ns: u64,
    pub run_for_ns: u64,
    pub allocs: u64,
}

impl RunOut {
    fn virt(&mut self, name: &str, value: f64, unit: &'static str) {
        self.virt.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Sets up one copy of the workload (untraced or traced).
fn setup(cfg: &Config, traced: bool, marks: &mut Marks, prefix: &str) -> Box<dyn Measured> {
    let reps = |n: usize| if cfg.tiny || cfg.trace { 1 } else { n };
    // A traced invocation measures both copies, each for half the
    // budget, so both kinds of invocation take about as long.
    let budget = if cfg.trace {
        cfg.seconds as f64 / 2.0
    } else {
        cfg.seconds as f64
    }
    .max(1.0);
    match cfg.workload.as_str() {
        "paper_figures" => {
            let (runs, passes) = if cfg.tiny {
                (24, 2)
            } else {
                (
                    FIGURE_RUNS,
                    (budget * FIGURE_PASSES_PER_SECOND).ceil() as usize,
                )
            };
            Box::new(figures::FiguresRun::setup(
                cfg.seed,
                runs,
                passes,
                workers(),
                traced,
                cfg.faults,
                marks,
                prefix,
            ))
        }
        "scale_discovery" => {
            let (spec, passes) = if cfg.tiny {
                (fleet::discovery_spec(300, 60), 1)
            } else {
                let passes = (budget / DISCOVERY_PASS_SECONDS).round().max(1.0) as usize;
                (fleet::discovery_spec(10_000, 1_000), passes)
            };
            Box::new(fleet::DiscoveryRun::setup(
                spec,
                cfg.seed,
                traced,
                reps(DISCOVERY_SETUP_REPS),
                passes,
                cfg.faults,
                marks,
                prefix,
            ))
        }
        "scale_pubsub" => {
            let (spec, windows) = if cfg.tiny {
                (fleet::pubsub_spec(200, 20), 20)
            } else {
                let windows = (budget * PUBSUB_WINDOWS_PER_SECOND).ceil() as usize;
                (fleet::pubsub_spec(2_000, 100), windows)
            };
            Box::new(fleet::PubsubRun::setup(
                spec,
                cfg.seed,
                traced,
                reps(PUBSUB_SETUP_REPS),
                windows,
                cfg.faults,
                marks,
                prefix,
            ))
        }
        other => panic!("unknown workload {other}"),
    }
}

/// The per-layer metrics of a traced run. Every name is always
/// emitted; layers a workload does not exercise read 0 (`paper_figures`
/// runs its actors inside `ScenarioBuilder`, so only its scenario,
/// security and counter layers are measured).
fn layer_metrics(t: &RunOut) -> Vec<Metric> {
    let l = &t.layers;
    let mut m = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        m.push(Metric {
            name: name.into(),
            value,
            unit,
        })
    };
    // The engine's share is what `run_for` spent outside the dispatches
    // and outside the wrappers' own work.
    let shard_self = t
        .run_for_ns
        .saturating_sub(l.total_dispatch_ns() + l.tap_ns);
    let scale = l.total_dispatch_ns() > 0;
    push(
        "shard.self_ns_per_event",
        if scale {
            ratio(shard_self, t.events)
        } else {
            0.0
        },
        "ns",
    );
    push(
        "harness.self_ns_per_event",
        if scale {
            ratio(t.cpu_ns - t.run_for_ns, t.events)
        } else {
            0.0
        },
        "ns",
    );
    push("trace.self_ns_per_event", ratio(l.tap_ns, t.events), "ns");
    push("net.sends", l.total_sends() as f64, "count");
    push(
        "net.send_ns",
        if l.total_sends() > 0 {
            l.total_send_ns() / l.total_sends() as f64
        } else {
            0.0
        },
        "ns",
    );
    for (name, kinds) in [
        ("timer", &[Kind::Timer][..]),
        ("response", &[Kind::Response]),
        ("ping", &[Kind::Ping]),
        ("event", &[Kind::Event]),
    ] {
        push(
            &format!("entity.self_ns.{name}"),
            l.self_ns_per_dispatch(Role::Entity, kinds),
            "ns",
        );
    }
    push(
        "entity.dispatches",
        l.role_dispatches(Role::Entity) as f64,
        "count",
    );
    let all = [
        Kind::Timer,
        Kind::Response,
        Kind::Ping,
        Kind::Event,
        Kind::Discovery,
        Kind::Link,
        Kind::Client,
        Kind::Other,
    ];
    push("bdn.self_ns", l.self_ns_per_dispatch(Role::Bdn, &all), "ns");
    push(
        "bdn.dispatches",
        l.role_dispatches(Role::Bdn) as f64,
        "count",
    );
    for (name, kinds) in [
        (
            "discovery",
            &[Kind::Discovery, Kind::Response, Kind::Ping][..],
        ),
        ("event", &[Kind::Event]),
        ("link", &[Kind::Link]),
    ] {
        push(
            &format!("broker.self_ns.{name}"),
            l.self_ns_per_dispatch(Role::Broker, kinds),
            "ns",
        );
    }
    push(
        "broker.dispatches",
        l.role_dispatches(Role::Broker) as f64,
        "count",
    );
    for (name, role) in [
        ("entity", Role::Entity),
        ("broker", Role::Broker),
        ("bdn", Role::Bdn),
    ] {
        push(
            &format!("alloc.per_dispatch.{name}"),
            ratio(l.allocs[role as usize], l.role_dispatches(role)),
            "count",
        );
    }
    m.extend(t.layer_times.iter().cloned());
    m
}

fn same_metrics(a: &[Metric], b: &[Metric]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} vs {} virtual metrics", a.len(), b.len()));
    }
    a.iter()
        .zip(b)
        .find(|(x, y)| x.name != y.name || x.value.to_bits() != y.value.to_bits())
        .map(|(x, y)| {
            format!(
                "{} = {} untraced vs {} = {} traced",
                x.name, x.value, y.name, y.value
            )
        })
}

/// Runs one invocation: the untraced copy, and with tracing the traced
/// copy step for step alongside it, then the equivalence checks.
pub fn run(cfg: &Config, marks: &mut Marks) -> Report {
    let mut plain = setup(cfg, false, marks, "");
    let mut traced = cfg.trace.then(|| setup(cfg, true, marks, "traced."));
    for k in 0.. {
        let a = plain.step(marks, &format!("measure.{k}"));
        let b = traced
            .as_mut()
            .is_some_and(|t| t.step(marks, &format!("traced.measure.{k}")));
        if !a && !b {
            break;
        }
    }
    let plain = plain.finish();
    let mut report = Report {
        workload: cfg.workload.clone(),
        ..Report::default()
    };
    report.metrics.extend(plain.virt.iter().cloned());
    report.metrics.extend(plain.host.iter().cloned());
    report.metric(
        "alloc.per_event",
        ratio(plain.allocs, plain.events),
        "count",
    );
    report.attempted = plain.attempted;
    report.failed = plain.failed;
    report.checks.extend(plain.checks.iter().cloned());
    if let Some(traced) = traced.map(|t| t.finish()) {
        report.checks.push(Check {
            name: "traced run reproduces the engine digest".into(),
            ok: traced.digest == plain.digest,
            detail: format!(
                "{:016x} untraced, {:016x} traced",
                plain.digest, traced.digest
            ),
        });
        let diff = same_metrics(&plain.virt, &traced.virt);
        report.checks.push(Check {
            name: "traced run reproduces every virtual metric".into(),
            ok: diff.is_none(),
            detail: diff.unwrap_or_else(|| format!("{} metrics identical", plain.virt.len())),
        });
        report
            .checks
            .extend(traced.checks.iter().filter(|c| !c.ok).cloned());
        report.metrics.extend(layer_metrics(&traced));
        report
            .raw
            .push(("traced_measure_cpu_ns".into(), traced.cpu_ns as f64));
        report
            .raw
            .push(("traced_tap_ns".into(), traced.layers.tap_ns as f64));
    }
    report.metric("peak_rss_mib", report::peak_rss_mib(), "MiB");
    report
}

/// Parses `<workload> --seed N --seconds S --trace 0|1 [--sync] [--tiny]`.
pub fn parse_args(args: &[String]) -> Result<(Config, bool), String> {
    let mut it = args.iter();
    let workload = it.next().ok_or("missing workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let mut cfg = Config {
        workload,
        seed: 1,
        seconds: 10,
        trace: false,
        tiny: false,
        faults: Faults::default(),
    };
    let mut sync = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => cfg.seed = value()?.parse().map_err(|_| "--seed needs a number")?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--sync" => sync = true,
            "--tiny" => cfg.tiny = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((cfg, sync))
}

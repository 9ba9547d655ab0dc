//! `paper_figures`: the Fig 2–12 discovery suite on the Table-1
//! five-site WAN, every run a fresh `Sim` deployment built by
//! `ScenarioBuilder` and run by `ParallelExecutor`, plus the Fig 13/14
//! security costs once.

use nb_bench::parallel::ParallelExecutor;
use nb_broker::TopologyKind;
use nb_discovery::scenario::ScenarioBuilder;
use nb_discovery::{DiscoveryBrokerActor, DiscoveryOutcome, PhaseTimes};
use nb_net::wan::{SiteIdx, BLOOMINGTON, CARDIFF, FSU, NCSA, UMN};
use nb_util::stats::Summary;

use crate::clock::thread_cpu_ns;
use crate::fleet::Faults;
use crate::report::{mix, percentile, phase_p50s, ratio, Check, Marks, Metric, FNV_OFFSET};
use crate::{Measured, RunOut};

/// One figure of the suite: `None` topology is the Fig 12
/// multicast-only setup (two brokers in the client's lab).
struct Figure {
    fig: u32,
    kind: Option<TopologyKind>,
    site: SiteIdx,
}

const SUITE: [Figure; 9] = [
    Figure {
        fig: 2,
        kind: Some(TopologyKind::Unconnected),
        site: BLOOMINGTON,
    },
    Figure {
        fig: 3,
        kind: Some(TopologyKind::Unconnected),
        site: FSU,
    },
    Figure {
        fig: 4,
        kind: Some(TopologyKind::Unconnected),
        site: CARDIFF,
    },
    Figure {
        fig: 5,
        kind: Some(TopologyKind::Unconnected),
        site: UMN,
    },
    Figure {
        fig: 6,
        kind: Some(TopologyKind::Unconnected),
        site: NCSA,
    },
    Figure {
        fig: 7,
        kind: Some(TopologyKind::Unconnected),
        site: BLOOMINGTON,
    },
    Figure {
        fig: 9,
        kind: Some(TopologyKind::Star),
        site: BLOOMINGTON,
    },
    Figure {
        fig: 11,
        kind: Some(TopologyKind::Linear),
        site: BLOOMINGTON,
    },
    Figure {
        fig: 12,
        kind: None,
        site: BLOOMINGTON,
    },
];

/// Figures 3–7 in order, with the client site each one varies.
const SITE_FIGS: [(u32, &str); 5] = [
    (3, "FSU"),
    (4, "Cardiff"),
    (5, "UMN"),
    (6, "NCSA"),
    (7, "Bloomington"),
];

fn builder(f: &Figure, seed: u64) -> ScenarioBuilder {
    match f.kind {
        Some(kind) => ScenarioBuilder::new(kind, f.site, seed),
        None => ScenarioBuilder::multicast(seed, 2),
    }
}

/// Figure `f`'s first run seed: figures draw disjoint seed ranges.
fn figure_seed(seed: u64, fig: u32) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(fig as u64 * 1_000_003)
}

/// One run's harvest.
struct RunRec {
    fig: u32,
    outcome: DiscoveryOutcome,
    /// Client start, virtual ns (warm-up plus the 1 ms trigger delay).
    start_ns: u64,
    events: u64,
    bytes: u64,
    responses_sent: u64,
    responder_dups: u64,
    responder_rejected: u64,
    routed: u64,
    event_dups: u64,
    build_ns: u64,
    run_ns: u64,
}

/// One pass of the whole suite.
struct Pass {
    runs: Vec<RunRec>,
    digest: u64,
    events: u64,
}

/// With `faults.crash_one_broker`, the suite's first run crashes every
/// broker of its deployment before the discovery, so its client has no
/// broker to find.
fn run_pass(seed: u64, runs: usize, workers: usize, traced: bool, faults: Faults) -> Pass {
    let builders: Vec<ScenarioBuilder> = SUITE
        .iter()
        .map(|f| builder(f, figure_seed(seed, f.fig)))
        .collect();
    let ex = ParallelExecutor::with_workers(workers);
    let recs = ex.run(SUITE.len() * runs, |j| {
        let (f, i) = (j / runs, j % runs);
        let mut b = builders[f].clone();
        b.seed = b.seed.wrapping_add(i as u64);
        let start_ns = (b.warmup + std::time::Duration::from_millis(1)).as_nanos() as u64;
        let t0 = if traced { thread_cpu_ns() } else { 0 };
        let mut scenario = b.build();
        if faults.crash_one_broker && j == 0 {
            for &node in &scenario.brokers {
                scenario.sim.crash(node);
            }
        }
        let t1 = if traced { thread_cpu_ns() } else { 0 };
        let outcome = scenario.run_discovery_once();
        let t2 = if traced { thread_cpu_ns() } else { 0 };
        let mut rec = RunRec {
            fig: SUITE[f].fig,
            outcome,
            start_ns,
            events: scenario.sim.events_processed(),
            bytes: scenario.sim.stats().bytes_delivered,
            responses_sent: 0,
            responder_dups: 0,
            responder_rejected: 0,
            routed: 0,
            event_dups: 0,
            build_ns: t1 - t0,
            run_ns: t2 - t1,
        };
        for &node in &scenario.brokers {
            if let Some(a) = scenario.sim.actor::<DiscoveryBrokerActor>(node) {
                rec.responses_sent += a.responder.responses_sent;
                rec.responder_dups += a.responder.duplicates_suppressed;
                rec.responder_rejected += a.responder.rejected_by_policy;
                rec.routed += a.broker.events_routed;
                rec.event_dups += a.broker.duplicates_suppressed;
            }
        }
        rec
    });
    let mut digest = FNV_OFFSET;
    for r in &recs {
        let o = &r.outcome;
        mix(&mut digest, r.fig as u64);
        mix(&mut digest, o.chosen.map_or(u64::MAX, |n| n.0 as u64));
        mix(&mut digest, o.phases.total().as_nanos() as u64);
        mix(&mut digest, o.responses_received as u64);
        mix(&mut digest, r.events);
        mix(&mut digest, r.bytes);
    }
    let events = recs.iter().map(|r| r.events).sum();
    Pass {
        runs: recs,
        digest,
        events,
    }
}

fn mean_ms(v: impl Iterator<Item = std::time::Duration>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for d in v {
        sum += d.as_secs_f64() * 1e3;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// The paper's sample protocol (§9), as `nb_util::stats::paper_protocol`
/// applies it, keeping the runs rather than their totals: drop runs more
/// than 3 sample σ from the mean total (not with fewer than 3 runs or
/// no spread), keep the first 100.
fn paper_kept<'a>(runs: impl Iterator<Item = &'a RunRec>) -> Vec<&'a RunRec> {
    let runs: Vec<&RunRec> = runs.collect();
    let totals: Vec<f64> = runs
        .iter()
        .map(|r| r.outcome.phases.total().as_secs_f64())
        .collect();
    let trim = Summary::of(&totals).filter(|s| totals.len() >= 3 && s.std_dev > 0.0);
    runs.into_iter()
        .zip(totals)
        .filter(|(_, t)| trim.is_none_or(|s| (t - s.mean).abs() <= 3.0 * s.std_dev))
        .map(|(r, _)| r)
        .take(nb_bench::PAPER_KEEP)
        .collect()
}

/// Virtual metrics and paper-shape checks from one pass.
fn evaluate(pass: &Pass, out: &mut RunOut) {
    let ok: Vec<&RunRec> = pass
        .runs
        .iter()
        .filter(|r| r.outcome.chosen.is_some())
        .collect();
    let failed = (pass.runs.len() - ok.len()) as u64;
    let mut totals: Vec<u64> = ok
        .iter()
        .map(|r| r.outcome.phases.total().as_nanos() as u64)
        .collect();
    totals.sort_unstable();
    let attach_max = ok
        .iter()
        .map(|r| r.start_ns + r.outcome.phases.total().as_nanos() as u64)
        .max();
    let sum = |f: fn(&RunRec) -> u64| pass.runs.iter().map(f).sum::<u64>();
    let (sent, dups, rejected) = (
        sum(|r| r.responses_sent),
        sum(|r| r.responder_dups),
        sum(|r| r.responder_rejected),
    );
    let (routed, event_dups) = (sum(|r| r.routed), sum(|r| r.event_dups));
    let bytes = sum(|r| r.bytes);
    let received: u64 = pass
        .runs
        .iter()
        .map(|r| r.outcome.responses_received as u64)
        .sum();
    let n = pass.runs.len();
    let mut v = |name: &str, value: f64, unit: &'static str| {
        out.virt.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    };
    v(
        "discovery_p50_ms",
        percentile(&totals, 50, 100) as f64 / 1e6,
        "ms",
    );
    v(
        "discovery_p99_ms",
        percentile(&totals, 99, 100) as f64 / 1e6,
        "ms",
    );
    v("discovery.samples", totals.len() as f64, "count");
    v("discovery_fail_frac", ratio(failed, n as u64), "frac");
    v(
        "time_to_all_attached_s",
        attach_max.map_or(f64::NAN, |t| t as f64 / 1e9),
        "s",
    );
    v("wire_bytes_per_entity", bytes as f64 / n as f64, "B");
    v("net.bytes_per_event", ratio(bytes, pass.events), "B");
    v(
        "responder.dup_frac",
        ratio(dups, dups + sent + rejected),
        "frac",
    );
    v("discovery.response_use_frac", ratio(received, sent), "frac");
    v(
        "broker.event_dup_frac",
        ratio(event_dups, event_dups + routed),
        "frac",
    );
    v("delivery_p50_ms", 0.0, "ms");
    v("delivery_p99_ms", 0.0, "ms");
    v("delivery.samples", 0.0, "count");
    v("delivery_miss_frac", 0.0, "frac");
    v("shard.events", 0.0, "count");
    let phases: Vec<PhaseTimes> = ok.iter().map(|r| r.outcome.phases).collect();
    out.virt.extend(phase_p50s(&phases));
    out.attempted += n as u64;
    out.failed += failed;
    out.checks.push(Check {
        name: "every discovery chose a broker".into(),
        ok: failed == 0,
        detail: format!("{failed} of {n} discoveries failed"),
    });

    // Paper shape, over the paper's kept samples: awaiting responses is
    // the largest slice of the Fig 2/9/11 breakdowns.
    for fig in [2, 9, 11] {
        let p: Vec<PhaseTimes> = paper_kept(ok.iter().copied().filter(|r| r.fig == fig))
            .iter()
            .map(|r| r.outcome.phases)
            .collect();
        let slices = [
            ("issue", mean_ms(p.iter().map(|x| x.issue))),
            ("await responses", mean_ms(p.iter().map(|x| x.collect))),
            ("selection", mean_ms(p.iter().map(|x| x.select))),
            ("ping", mean_ms(p.iter().map(|x| x.ping))),
            ("connect", mean_ms(p.iter().map(|x| x.connect))),
        ];
        let largest = slices
            .iter()
            .fold(slices[0], |a, &b| if b.1 > a.1 { b } else { a });
        out.checks.push(Check {
            name: format!("Fig {fig}: awaiting responses is the largest slice"),
            ok: largest.0 == "await responses",
            detail: format!("largest slice {} at {:.1} ms mean", largest.0, largest.1),
        });
    }
    // Paper shape: the transatlantic client (Cardiff) is slowest in
    // Figs 3–7.
    let means: Vec<(&str, f64)> = SITE_FIGS
        .iter()
        .map(|&(fig, name)| {
            let kept = paper_kept(ok.iter().copied().filter(|r| r.fig == fig));
            (name, mean_ms(kept.iter().map(|r| r.outcome.phases.total())))
        })
        .collect();
    let slowest = means
        .iter()
        .fold(means[0], |a, &b| if b.1 > a.1 { b } else { a });
    out.checks.push(Check {
        name: "Figs 3-7: Cardiff is slowest".into(),
        ok: slowest.0 == "Cardiff",
        detail: format!("slowest {} at {:.1} ms mean", slowest.0, slowest.1),
    });
    let mc = pass.runs.iter().filter(|r| r.fig == 12);
    out.checks.push(Check {
        name: "Fig 12 runs on the multicast path".into(),
        ok: mc.clone().all(|r| r.outcome.used_multicast),
        detail: format!(
            "{} of {} runs used multicast",
            mc.clone().filter(|r| r.outcome.used_multicast).count(),
            mc.count()
        ),
    });
}

/// Live heap one finished Fig 2 deployment retains (its single client
/// entity is the denominator).
fn retained_bytes(seed: u64) -> f64 {
    let live0 = nb_bench::codec::live_bytes();
    let mut scenario = builder(&SUITE[0], figure_seed(seed, 2)).build();
    scenario.run_discovery_once();
    let retained = nb_bench::codec::live_bytes().saturating_sub(live0);
    drop(scenario);
    retained as f64
}

/// `paper_figures`: set-up is one warm-up pass of the suite, the
/// process's first (cold heap, first executor threads); each measured
/// step is one pass, checked against the first measured pass's digest.
pub struct FiguresRun {
    seed: u64,
    runs: usize,
    workers: usize,
    traced: bool,
    faults: Faults,
    passes_left: usize,
    first: Option<Pass>,
    mismatched: usize,
    retained: f64,
    out: RunOut,
}

impl FiguresRun {
    #[allow(clippy::too_many_arguments)]
    pub fn setup(
        seed: u64,
        runs: usize,
        passes: usize,
        workers: usize,
        traced: bool,
        faults: Faults,
        marks: &mut Marks,
        prefix: &str,
    ) -> FiguresRun {
        let label = format!("{prefix}setup.0");
        marks.begin(&label);
        let warm = run_pass(seed, runs, workers, false, faults);
        marks.end(&label, warm.events);
        let retained = retained_bytes(seed);
        FiguresRun {
            seed,
            runs,
            workers,
            traced,
            faults,
            passes_left: passes.max(1),
            first: None,
            mismatched: 0,
            retained,
            out: RunOut::default(),
        }
    }
}

impl Measured for FiguresRun {
    fn step(&mut self, marks: &mut Marks, label: &str) -> bool {
        if self.passes_left == 0 {
            return false;
        }
        self.passes_left -= 1;
        marks.begin(label);
        let (cpu0, allocs0) = (thread_cpu_ns(), nb_bench::codec::alloc_count());
        let pass = run_pass(self.seed, self.runs, self.workers, self.traced, self.faults);
        self.out.cpu_ns += thread_cpu_ns() - cpu0;
        self.out.allocs += nb_bench::codec::alloc_count() - allocs0;
        marks.end(label, pass.events);
        self.out.events += pass.events;
        self.out.run_for_ns += pass.runs.iter().map(|r| r.run_ns).sum::<u64>();
        match &self.first {
            None => self.first = Some(pass),
            Some(f) => self.mismatched += usize::from(f.digest != pass.digest),
        }
        true
    }

    fn finish(self: Box<Self>) -> RunOut {
        let mut out = self.out;
        let first = self.first.expect("at least one pass");
        out.digest = first.digest;
        out.checks.push(Check {
            name: "every pass reproduces the first pass's digest".into(),
            ok: self.mismatched == 0,
            detail: format!("{} later passes differed", self.mismatched),
        });
        evaluate(&first, &mut out);
        let n = first.runs.len() as f64;
        let mean_us =
            |f: fn(&RunRec) -> u64| first.runs.iter().map(f).sum::<u64>() as f64 / n / 1e3;
        out.host.push(Metric {
            name: "retained_bytes_per_entity".into(),
            value: self.retained,
            unit: "B",
        });
        out.layer_times.push(Metric {
            name: "scenario.build_us".into(),
            value: mean_us(|r| r.build_ns),
            unit: "us",
        });
        out.layer_times.push(Metric {
            name: "scenario.run_us".into(),
            value: mean_us(|r| r.run_ns),
            unit: "us",
        });
        // Figs 13/14, once: wall-clock costs measured by nb-bench itself.
        let validate = nb_bench::figure_cert_validation(self.seed, 100);
        let seal = nb_bench::figure_sign_encrypt(self.seed, 100);
        out.layer_times.push(Metric {
            name: "security.validate_us".into(),
            value: validate.mean * 1e3,
            unit: "us",
        });
        out.layer_times.push(Metric {
            name: "security.seal_open_us".into(),
            value: seal.mean * 1e3,
            unit: "us",
        });
        out
    }
}

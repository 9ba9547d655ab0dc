//! Machine-readable perf baseline for the discovery engine.
//!
//! `repro bench` times the multi-run figure suite twice — once on the
//! serial reference executor, once sharded — and emits the result as
//! `BENCH_discovery.json`: engine events/sec, wall time per figure, and
//! the parallel speedup. The serial and parallel outcome vectors are
//! compared while timing, so a baseline is only ever produced from a
//! run that also witnessed the determinism contract.

use std::time::Instant;

use nb_broker::TopologyKind;
use nb_discovery::scenario::ScenarioBuilder;
use nb_net::wan::{BLOOMINGTON, CARDIFF, FSU, NCSA, UMN};

use crate::parallel::{seeded, ParallelExecutor};

/// One figure workload timed serial vs parallel.
#[derive(Debug, Clone)]
pub struct FigureBench {
    /// Workload name (`fig3_fsu`, `fig12_multicast`, …).
    pub name: &'static str,
    /// Discovery runs performed (per executor).
    pub runs: usize,
    /// Engine events processed across all runs (identical serial and
    /// parallel — checked).
    pub events: u64,
    /// Serial wall time, milliseconds.
    pub serial_ms: f64,
    /// Parallel wall time, milliseconds.
    pub parallel_ms: f64,
}

impl FigureBench {
    /// Serial-over-parallel wall-time ratio.
    pub fn speedup(&self) -> f64 {
        if self.parallel_ms > 0.0 { self.serial_ms / self.parallel_ms } else { 0.0 }
    }
}

/// One row of the shard-scaling A/B: the sharded engine timed at a
/// fixed intra-run worker count.
#[derive(Debug, Clone)]
pub struct ShardScalePoint {
    /// Event workers inside each simulated run.
    pub workers: usize,
    /// Best-of-3 wall time for the whole workload, milliseconds.
    pub wall_ms: f64,
    /// FNV-1a fold of every run's engine digest. The determinism
    /// witness: identical on every row or the baseline is invalid.
    pub digest: u64,
}

/// Shard-scaling A/B: the same figure workload re-timed on the
/// conservative-lookahead sharded engine at increasing intra-run
/// worker counts, shard count held fixed. Wall time may move with the
/// worker count; the digest column must not.
#[derive(Debug, Clone)]
pub struct ShardScaling {
    /// Workload the rows share (one of [`bench_workloads`]).
    pub workload: &'static str,
    /// Discovery runs per row.
    pub runs: usize,
    /// LP groups the topology is partitioned into (fixed across rows).
    pub shards: usize,
    /// Engine events per row (identical across rows — checked).
    pub events: u64,
    /// One row per worker count, ascending.
    pub points: Vec<ShardScalePoint>,
}

impl ShardScaling {
    /// Do all rows agree on the digest? `repro bench` and the
    /// `repro shards` gate treat `false` as a hard failure.
    pub fn digests_equal(&self) -> bool {
        self.points.windows(2).all(|w| w[0].digest == w[1].digest)
    }

    /// Wall-time speedup of the `workers`-worker row over the 1-worker
    /// row. Recorded, never gated: on a 1-core box it sits below 1.
    pub fn speedup_at(&self, workers: usize) -> Option<f64> {
        let base = self.points.iter().find(|p| p.workers == 1)?;
        let row = self.points.iter().find(|p| p.workers == workers)?;
        if row.wall_ms > 0.0 { Some(base.wall_ms / row.wall_ms) } else { None }
    }
}

/// The full baseline: every figure workload plus suite totals.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Root seed the suite ran under.
    pub seed: u64,
    /// Runs per figure.
    pub runs: usize,
    /// Worker threads used by the parallel executor.
    pub workers: usize,
    /// CPU cores visible to this process (parallel speedup is bounded
    /// by this — on a 1-core box the sharded path cannot beat serial).
    pub cores: usize,
    /// `"parallel"` when the sharded executor was timed; `"serial-fallback"`
    /// when `workers == 1` and the serial numbers were reused (a 1-worker
    /// executor runs the identical serial path, so timing it separately
    /// only reports scheduler noise as a phantom 0.94–0.99x regression).
    pub mode: &'static str,
    /// Per-figure timings.
    pub figures: Vec<FigureBench>,
    /// Intra-run shard-scaling A/B on the sharded engine.
    pub shard_scaling: ShardScaling,
    /// The scale probe: one small `repro scale` tier driven end to end
    /// (the full campaign lives behind `repro scale`).
    pub scale: ScaleProbe,
}

/// A miniature scale-campaign tier run inside `repro bench`, heading
/// the report with the population it drove. Wall numbers are fine here:
/// BENCH_discovery.json is never byte-compared across invocations.
#[derive(Debug, Clone)]
pub struct ScaleProbe {
    /// Brokers in the probe overlay.
    pub brokers: usize,
    /// Entities driven through discovery → attach → steady state.
    pub entities: usize,
    /// Subscriptions held by the fleet (one filter per entity).
    pub subscriptions: usize,
    /// Topology regions (== BDNs).
    pub regions: usize,
    /// Engine events processed.
    pub events: u64,
    /// Engine run digest.
    pub digest: u64,
    /// Entities attached at the end (must equal `entities`).
    pub attached: usize,
    /// Wall milliseconds for the probe.
    pub wall_ms: f64,
}

impl ScaleProbe {
    /// Engine throughput of the probe.
    pub fn events_per_sec(&self) -> f64 {
        rate(self.events, self.wall_ms)
    }
}

/// Runs the miniature scale tier (random-geometric, 50 brokers, 1000
/// entities) that heads BENCH_discovery.json with a `population` row.
pub fn run_scale_probe(seed: u64) -> ScaleProbe {
    use crate::scale::{run_tier, TierSpec};
    use nb_net::topogen::TopologyKind as WanKind;
    let spec = TierSpec {
        name: "bench_probe",
        kind: WanKind::RandomGeometric,
        brokers: 50,
        entities: 1_000,
    };
    let t = run_tier(&spec, seed, 1);
    ScaleProbe {
        brokers: t.brokers,
        entities: t.entities,
        subscriptions: t.entities,
        regions: t.regions,
        events: t.events,
        digest: t.digest,
        attached: t.attached,
        wall_ms: t.wall_ms,
    }
}

impl BenchReport {
    /// Total serial wall time (ms).
    pub fn serial_ms(&self) -> f64 {
        self.figures.iter().map(|f| f.serial_ms).sum()
    }

    /// Total parallel wall time (ms).
    pub fn parallel_ms(&self) -> f64 {
        self.figures.iter().map(|f| f.parallel_ms).sum()
    }

    /// Total engine events across the suite (one executor's worth).
    pub fn events(&self) -> u64 {
        self.figures.iter().map(|f| f.events).sum()
    }

    /// Suite-level speedup of parallel over serial.
    pub fn speedup(&self) -> f64 {
        let p = self.parallel_ms();
        if p > 0.0 { self.serial_ms() / p } else { 0.0 }
    }

    /// Engine events per second under the serial executor.
    pub fn events_per_sec_serial(&self) -> f64 {
        rate(self.events(), self.serial_ms())
    }

    /// Engine events per second under the parallel executor.
    pub fn events_per_sec_parallel(&self) -> f64 {
        rate(self.events(), self.parallel_ms())
    }

    /// Renders the report as JSON (hand-rolled; the tree is flat enough
    /// that a serializer would be overkill).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"suite\": \"discovery-figures\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"runs_per_figure\": {},\n", self.runs));
        out.push_str(&format!("  \"cores_detected\": {},\n", self.cores));
        out.push_str(&format!("  \"workers_used\": {},\n", self.workers));
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str(&format!(
            "  \"population\": {{\"brokers\": {}, \"entities\": {}, \"subscriptions\": {}}},\n",
            self.scale.brokers, self.scale.entities, self.scale.subscriptions
        ));
        out.push_str(&format!("  \"events\": {},\n", self.events()));
        out.push_str(&format!("  \"serial_wall_ms\": {:.1},\n", self.serial_ms()));
        out.push_str(&format!("  \"parallel_wall_ms\": {:.1},\n", self.parallel_ms()));
        out.push_str(&format!("  \"speedup\": {:.2},\n", self.speedup()));
        out.push_str(&format!(
            "  \"events_per_sec_serial\": {:.0},\n",
            self.events_per_sec_serial()
        ));
        out.push_str(&format!(
            "  \"events_per_sec_parallel\": {:.0},\n",
            self.events_per_sec_parallel()
        ));
        out.push_str("  \"figures\": [\n");
        for (i, f) in self.figures.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"runs\": {}, \"events\": {}, \
                 \"serial_wall_ms\": {:.1}, \"parallel_wall_ms\": {:.1}, \
                 \"speedup\": {:.2}}}{}\n",
                f.name,
                f.runs,
                f.events,
                f.serial_ms,
                f.parallel_ms,
                f.speedup(),
                if i + 1 < self.figures.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"shard_scaling\": {{\"workload\": \"{}\", \"runs\": {}, \"shards\": {}, \
             \"events\": {}, \"digests_equal\": {},\n",
            self.shard_scaling.workload,
            self.shard_scaling.runs,
            self.shard_scaling.shards,
            self.shard_scaling.events,
            self.shard_scaling.digests_equal(),
        ));
        out.push_str("    \"points\": [\n");
        for (i, p) in self.shard_scaling.points.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"workers\": {}, \"wall_ms\": {:.1}, \"digest\": \"{:016x}\", \
                 \"speedup\": {:.2}}}{}\n",
                p.workers,
                p.wall_ms,
                p.digest,
                self.shard_scaling.speedup_at(p.workers).unwrap_or(0.0),
                if i + 1 < self.shard_scaling.points.len() { "," } else { "" },
            ));
        }
        out.push_str("    ]},\n");
        out.push_str(&format!(
            "  \"scale\": {{\"regions\": {}, \"events\": {}, \"digest\": \"{:016x}\", \
             \"attached\": {}, \"events_per_sec\": {:.0}}}\n",
            self.scale.regions,
            self.scale.events,
            self.scale.digest,
            self.scale.attached,
            self.scale.events_per_sec(),
        ));
        out.push_str("}\n");
        out
    }
}

fn rate(events: u64, wall_ms: f64) -> f64 {
    if wall_ms > 0.0 { events as f64 / (wall_ms / 1e3) } else { 0.0 }
}

/// The multi-run figure workloads, paper order. Figures 1/8/10 (static
/// diagrams) and 13/14 (crypto microcosts) involve no event-loop runs
/// and are excluded.
pub fn bench_workloads() -> Vec<(&'static str, ScenarioBuilder)> {
    let topo =
        |kind, site, seed| ScenarioBuilder::new(kind, site, seed);
    vec![
        ("fig2_unconnected_breakdown", topo(TopologyKind::Unconnected, BLOOMINGTON, 0)),
        ("fig3_fsu", topo(TopologyKind::Unconnected, FSU, 0)),
        ("fig4_cardiff", topo(TopologyKind::Unconnected, CARDIFF, 0)),
        ("fig5_umn", topo(TopologyKind::Unconnected, UMN, 0)),
        ("fig6_ncsa", topo(TopologyKind::Unconnected, NCSA, 0)),
        ("fig7_bloomington", topo(TopologyKind::Unconnected, BLOOMINGTON, 0)),
        ("fig9_star_breakdown", topo(TopologyKind::Star, BLOOMINGTON, 0)),
        ("fig11_linear_breakdown", topo(TopologyKind::Linear, BLOOMINGTON, 0)),
        ("fig12_multicast", ScenarioBuilder::multicast(0, 2)),
    ]
}

/// Intra-run worker counts the shard-scaling A/B samples.
pub const SHARD_SCALE_WORKERS: [usize; 3] = [1, 2, 4];
/// LP groups the shard-scaling A/B partitions each run into. Fixed so
/// every row times the same partition; the digest is invariant to it
/// regardless (RNG streams key on node id, not group id).
pub const SHARD_SCALE_SHARDS: usize = 4;

/// Times one figure workload on the sharded engine at each of
/// [`SHARD_SCALE_WORKERS`] intra-run worker counts (best of 3, outer
/// executor serial so only intra-run parallelism is measured).
///
/// Panics if the rows disagree on outcomes or event counts; digest
/// agreement is *recorded* (`digests_equal`) and gated by the callers,
/// so the report can still be inspected when the contract breaks.
pub fn run_shard_scaling(seed: u64, runs: usize) -> ShardScaling {
    let workload = "fig9_star_breakdown";
    let builder = bench_workloads()
        .into_iter()
        .find(|(n, _)| *n == workload)
        .expect("star workload present")
        .1;
    let outer = ParallelExecutor::serial();
    let mut points = Vec::new();
    let mut events = 0u64;
    let mut reference: Option<Vec<nb_discovery::DiscoveryOutcome>> = None;
    for &w in &SHARD_SCALE_WORKERS {
        let mut best_ms = f64::INFINITY;
        let mut last = None;
        for _ in 0..3 {
            let t = Instant::now();
            let r = outer.run_discoveries_sharded(seed, runs, w, SHARD_SCALE_SHARDS, &builder);
            best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
            last = Some(r);
        }
        let (outcomes, row_events, digest) = last.expect("three samples taken");
        match &reference {
            None => {
                events = row_events;
                reference = Some(outcomes);
            }
            Some(r) => {
                assert_eq!(r, &outcomes, "{w}-worker outcomes diverged from 1-worker");
                assert_eq!(events, row_events, "{w}-worker event count diverged");
            }
        }
        points.push(ShardScalePoint { workers: w, wall_ms: best_ms, digest });
    }
    ShardScaling { workload, runs, shards: SHARD_SCALE_SHARDS, events, points }
}

/// Times the figure suite serial vs parallel and assembles the report.
///
/// Panics if any workload's parallel outcomes diverge from serial —
/// a baseline must never be published off a non-deterministic run.
pub fn run_bench(seed: u64, runs: usize, workers: Option<usize>) -> BenchReport {
    let parallel = match workers {
        Some(w) => ParallelExecutor::with_workers(w),
        None => ParallelExecutor::new(),
    };
    let serial = ParallelExecutor::serial();
    // Best-of-3 per executor: the workloads are short enough that a
    // single sample is scheduler-noise-dominated.
    let time_best = |ex: &ParallelExecutor, builder: &ScenarioBuilder| {
        let mut best_ms = f64::INFINITY;
        let mut last = None;
        for _ in 0..3 {
            let t = Instant::now();
            let r = ex.run_discoveries_counted(seed, runs, seeded(builder));
            best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
            last = Some(r);
        }
        let (outcomes, events) = last.expect("three samples taken");
        (outcomes, events, best_ms)
    };
    // With a single worker `ParallelExecutor::run` already short-circuits
    // to the serial path, so timing it against the serial executor measures
    // the same code twice and publishes scheduler noise as a regression.
    // Reuse the serial numbers and say so in the report.
    let serial_fallback = parallel.workers() == 1;
    let mut figures = Vec::new();
    for (name, builder) in bench_workloads() {
        let (outcomes_s, events_s, serial_ms) = time_best(&serial, &builder);
        let parallel_ms = if serial_fallback {
            serial_ms
        } else {
            let (outcomes_p, events_p, parallel_ms) = time_best(&parallel, &builder);
            assert_eq!(outcomes_s, outcomes_p, "{name}: parallel diverged from serial");
            assert_eq!(events_s, events_p, "{name}: event counts diverged");
            parallel_ms
        };
        figures.push(FigureBench { name, runs, events: events_s, serial_ms, parallel_ms });
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shard_scaling = run_shard_scaling(seed, runs);
    let scale = run_scale_probe(seed);
    let mode = if serial_fallback { "serial-fallback" } else { "parallel" };
    BenchReport {
        seed,
        runs,
        workers: parallel.workers(),
        cores,
        mode,
        figures,
        shard_scaling,
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_cover_every_multirun_figure() {
        let names: Vec<_> = bench_workloads().iter().map(|(n, _)| *n).collect();
        for fig in ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig9", "fig11", "fig12"] {
            assert!(
                names.iter().any(|n| n.starts_with(fig)),
                "figure suite missing {fig}"
            );
        }
    }

    #[test]
    fn small_bench_produces_consistent_report() {
        let report = run_bench(2005, 3, Some(2));
        assert_eq!(report.figures.len(), bench_workloads().len());
        assert_eq!(report.mode, "parallel");
        assert!(report.events() > 0);
        assert!(report.serial_ms() > 0.0);
        assert_eq!(report.shard_scaling.points.len(), SHARD_SCALE_WORKERS.len());
        assert!(
            report.shard_scaling.digests_equal(),
            "shard digests diverged across worker counts"
        );
        assert!(report.shard_scaling.speedup_at(4).is_some());
        let json = report.to_json();
        assert!(json.contains("\"suite\": \"discovery-figures\""));
        assert!(json.contains("\"mode\": \"parallel\""));
        assert!(json.contains("\"cores_detected\""));
        assert!(json.contains("\"workers_used\": 2"));
        assert!(json.contains("\"shard_scaling\""));
        assert!(json.contains("\"digests_equal\": true"));
        assert!(json.contains("fig12_multicast"));
        // Balanced braces — cheap structural sanity for the hand-rolled JSON.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn one_worker_reports_serial_fallback() {
        let report = run_bench(2005, 2, Some(1));
        assert_eq!(report.mode, "serial-fallback");
        assert_eq!(report.workers, 1);
        for f in &report.figures {
            assert_eq!(
                f.parallel_ms, f.serial_ms,
                "{}: 1-worker runs must reuse the serial timing, not re-time it",
                f.name
            );
            assert!((f.speedup() - 1.0).abs() < f64::EPSILON);
        }
        assert!(report.to_json().contains("\"mode\": \"serial-fallback\""));
    }
}

//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro all                 # everything, paper protocol (120 runs)
//! repro table1              # machine inventory
//! repro fig1|fig8|fig10     # topology diagrams
//! repro fig2|fig9|fig11     # sub-activity breakdowns
//! repro fig3..fig7          # per-site discovery time stats
//! repro fig12               # multicast-only discovery
//! repro fig13|fig14         # security costs
//! repro ablation-timeout | ablation-maxresp | ablation-weights
//! repro ablation-scale | ablation-loss | ablation-clock
//! repro check               # self-verify every qualitative claim (exit 1 on failure)
//! repro trace               # message-flow trace of one discovery
//! repro bench               # perf baseline: figure suite serial vs parallel plus the
//!                           # intra-run shard-scaling A/B, writes BENCH_discovery.json
//!                           # (see --bench-json/--workers); hard-fails if the sharded
//!                           # engine's digests diverge across worker counts
//! repro shards              # the shard-scaling gate alone: times the sharded engine at
//!                           # 1/2/4 intra-run workers, exit 1 unless every worker count
//!                           # produces byte-identical digests (speedup recorded, not gated)
//! repro chaos               # seeded fault-injection campaign (scripted BDN state-loss
//!                           # restart + randomized scenarios), writes CHAOS_campaign.json
//!                           # (see --scenarios/--chaos-json); exit 1 if any invariant fails
//! repro federation          # seeded anti-entropy campaign over three federated BDNs
//!                           # (scripted n-1 BDN loss + stale-replica rejoin + randomized
//!                           # scenarios), writes BENCH_federation.json (see
//!                           # --scenarios/--federation-json); exit 1 if any invariant fails
//! repro lint                # nb-lint static analysis (determinism + protocol-safety
//!                           # rules D001–D011 and wire-conformance W001–W004), writes
//!                           # LINT_report.json (see --lint-json); exit 1 on new findings
//! repro lint --rules        # print the machine-readable rule table and exit
//! repro routing             # routing micro-bench: trie+memo vs linear-scan oracle at
//!                           # 1e3/1e4/1e5 filters, writes BENCH_routing.json (see
//!                           # --routing-json); with --min-speedup X, exit 1 unless the
//!                           # trie is ≥ Xx (and memo-warm ≥ 10x) at 1e4 filters
//! repro codec               # codec micro-bench: header peek vs full decode, byte
//!                           # forwarding vs re-encode, allocations per fan-out delivery,
//!                           # writes BENCH_codec.json (see --codec-json); with
//!                           # --min-peek-speedup / --min-forward-speedup, exit 1 when
//!                           # the zero-copy path falls below either gate
//! repro scale               # seeded WAN scale campaign: generated topologies at
//!                           # 1e2–1e3 brokers / 1e3–1e5 entities through the sharded
//!                           # engine (discovery → attach → pub/sub steady state) plus
//!                           # the slab A/B columns, writes BENCH_scale.json (see
//!                           # --tier small|large|all, --scale-json, --workers); the
//!                           # JSON is byte-identical at any worker count; gates:
//!                           # --min-events-per-sec, --max-bytes-per-entity,
//!                           # --min-ab-speedup (≥2 of 3 A/B columns must clear it);
//!                           # --brokers/--entities/--topology define one custom tier
//! repro all --runs 30 --seed 7    # faster smoke reproduction
//! repro all --csv out/            # also write machine-readable CSVs
//! ```

use nb_bench::*;
use nb_broker::TopologyKind;

/// Counts allocations so `repro codec` can report allocations per
/// delivered copy. Library tests run without it (their per-delivery
/// numbers read 0 and are flagged `alloc_counting: false`).
#[global_allocator]
static ALLOC: nb_bench::codec::CountingAlloc = nb_bench::codec::CountingAlloc;

struct Args {
    cmd: String,
    runs: usize,
    seed: u64,
    csv: Option<std::path::PathBuf>,
    bench_json: std::path::PathBuf,
    threads: Option<usize>,
    scenarios: usize,
    chaos_json: std::path::PathBuf,
    federation_json: std::path::PathBuf,
    lint_json: std::path::PathBuf,
    routing_json: std::path::PathBuf,
    min_speedup: Option<f64>,
    codec_json: std::path::PathBuf,
    min_peek_speedup: Option<f64>,
    min_forward_speedup: Option<f64>,
    min_bytes_reduction: Option<f64>,
    lint_rules: bool,
    tier: String,
    scale_json: std::path::PathBuf,
    min_events_per_sec: Option<f64>,
    max_bytes_per_entity: Option<u64>,
    min_ab_speedup: Option<f64>,
    brokers: Option<usize>,
    entities: Option<usize>,
    topology: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        cmd: "all".to_string(),
        runs: PAPER_RUNS,
        seed: 2005,
        csv: None,
        bench_json: std::path::PathBuf::from("BENCH_discovery.json"),
        threads: None,
        scenarios: 10,
        chaos_json: std::path::PathBuf::from("CHAOS_campaign.json"),
        federation_json: std::path::PathBuf::from("BENCH_federation.json"),
        lint_json: std::path::PathBuf::from("LINT_report.json"),
        routing_json: std::path::PathBuf::from("BENCH_routing.json"),
        min_speedup: None,
        codec_json: std::path::PathBuf::from("BENCH_codec.json"),
        min_peek_speedup: None,
        min_forward_speedup: None,
        min_bytes_reduction: None,
        lint_rules: false,
        tier: "all".to_string(),
        scale_json: std::path::PathBuf::from("BENCH_scale.json"),
        min_events_per_sec: None,
        max_bytes_per_entity: None,
        min_ab_speedup: None,
        brokers: None,
        entities: None,
        topology: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--runs" => {
                i += 1;
                args.runs = argv.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--runs needs a number");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                i += 1;
                args.seed = argv.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs a number");
                    std::process::exit(2);
                });
            }
            "--csv" => {
                i += 1;
                let dir = argv.get(i).unwrap_or_else(|| {
                    eprintln!("--csv needs a directory");
                    std::process::exit(2);
                });
                args.csv = Some(std::path::PathBuf::from(dir));
            }
            "--bench-json" => {
                i += 1;
                let path = argv.get(i).unwrap_or_else(|| {
                    eprintln!("--bench-json needs a path");
                    std::process::exit(2);
                });
                args.bench_json = std::path::PathBuf::from(path);
            }
            "--scenarios" => {
                i += 1;
                args.scenarios = argv.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--scenarios needs a number");
                    std::process::exit(2);
                });
            }
            "--chaos-json" => {
                i += 1;
                let path = argv.get(i).unwrap_or_else(|| {
                    eprintln!("--chaos-json needs a path");
                    std::process::exit(2);
                });
                args.chaos_json = std::path::PathBuf::from(path);
            }
            "--federation-json" => {
                i += 1;
                let Some(path) = argv.get(i) else {
                    eprintln!("--federation-json needs a path");
                    std::process::exit(2);
                };
                args.federation_json = std::path::PathBuf::from(path);
            }
            "--rules" => {
                args.lint_rules = true;
            }
            "--lint-json" => {
                i += 1;
                let Some(path) = argv.get(i) else {
                    eprintln!("--lint-json needs a path");
                    std::process::exit(2);
                };
                args.lint_json = std::path::PathBuf::from(path);
            }
            "--routing-json" => {
                i += 1;
                let Some(path) = argv.get(i) else {
                    eprintln!("--routing-json needs a path");
                    std::process::exit(2);
                };
                args.routing_json = std::path::PathBuf::from(path);
            }
            "--codec-json" => {
                i += 1;
                let Some(path) = argv.get(i) else {
                    eprintln!("--codec-json needs a path");
                    std::process::exit(2);
                };
                args.codec_json = std::path::PathBuf::from(path);
            }
            "--min-peek-speedup" => {
                i += 1;
                args.min_peek_speedup = argv.get(i).and_then(|v| v.parse().ok()).or_else(|| {
                    eprintln!("--min-peek-speedup needs a number");
                    std::process::exit(2);
                });
            }
            "--min-forward-speedup" => {
                i += 1;
                args.min_forward_speedup = argv.get(i).and_then(|v| v.parse().ok()).or_else(|| {
                    eprintln!("--min-forward-speedup needs a number");
                    std::process::exit(2);
                });
            }
            "--min-bytes-reduction" => {
                i += 1;
                args.min_bytes_reduction = argv.get(i).and_then(|v| v.parse().ok()).or_else(|| {
                    eprintln!("--min-bytes-reduction needs a number");
                    std::process::exit(2);
                });
            }
            "--min-speedup" => {
                i += 1;
                args.min_speedup = argv.get(i).and_then(|v| v.parse().ok()).or_else(|| {
                    eprintln!("--min-speedup needs a number");
                    std::process::exit(2);
                });
            }
            "--tier" => {
                i += 1;
                let Some(t) = argv.get(i) else {
                    eprintln!("--tier needs small|large|all");
                    std::process::exit(2);
                };
                args.tier = t.clone();
            }
            "--scale-json" => {
                i += 1;
                let Some(path) = argv.get(i) else {
                    eprintln!("--scale-json needs a path");
                    std::process::exit(2);
                };
                args.scale_json = std::path::PathBuf::from(path);
            }
            "--min-events-per-sec" => {
                i += 1;
                args.min_events_per_sec =
                    argv.get(i).and_then(|v| v.parse().ok()).or_else(|| {
                        eprintln!("--min-events-per-sec needs a number");
                        std::process::exit(2);
                    });
            }
            "--max-bytes-per-entity" => {
                i += 1;
                args.max_bytes_per_entity =
                    argv.get(i).and_then(|v| v.parse().ok()).or_else(|| {
                        eprintln!("--max-bytes-per-entity needs a number");
                        std::process::exit(2);
                    });
            }
            "--min-ab-speedup" => {
                i += 1;
                args.min_ab_speedup = argv.get(i).and_then(|v| v.parse().ok()).or_else(|| {
                    eprintln!("--min-ab-speedup needs a number");
                    std::process::exit(2);
                });
            }
            "--brokers" => {
                i += 1;
                args.brokers = argv.get(i).and_then(|v| v.parse().ok()).or_else(|| {
                    eprintln!("--brokers needs a number");
                    std::process::exit(2);
                });
            }
            "--entities" => {
                i += 1;
                args.entities = argv.get(i).and_then(|v| v.parse().ok()).or_else(|| {
                    eprintln!("--entities needs a number");
                    std::process::exit(2);
                });
            }
            "--topology" => {
                i += 1;
                let Some(t) = argv.get(i) else {
                    eprintln!("--topology needs star|linear|geo|isp");
                    std::process::exit(2);
                };
                args.topology = Some(t.clone());
            }
            // `--workers` is the documented spelling; `--threads` stays
            // as a compatibility alias for older scripts.
            flag @ ("--workers" | "--threads") => {
                i += 1;
                args.threads = argv.get(i).and_then(|v| v.parse().ok()).or_else(|| {
                    eprintln!("{flag} needs a number");
                    std::process::exit(2);
                });
            }
            other if !other.starts_with("--") => args.cmd = other.to_string(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

/// Writes `rows` as `<dir>/<name>.csv` when CSV export is active.
fn write_csv(csv: &Option<std::path::PathBuf>, name: &str, header: &str, rows: &[String]) {
    let Some(dir) = csv else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let path = dir.join(format!("{name}.csv"));
    let body = std::iter::once(header.to_string())
        .chain(rows.iter().cloned())
        .collect::<Vec<_>>()
        .join("\n");
    if let Err(e) = std::fs::write(&path, body + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
    println!("wrote {}", path.display());
}

fn summary_csv_row(s: &nb_util::Summary) -> String {
    format!("{},{},{},{},{},{}", s.n, s.mean, s.std_dev, s.max, s.min, s.error)
}

fn run(cmd: &str, runs: usize, seed: u64, csv: &Option<std::path::PathBuf>) {
    match cmd {
        "table1" => {
            println!("=== Table 1: machines used in the testing process ===");
            println!("{}", table1());
        }
        "fig1" => {
            println!("=== Figure 1: unconnected topology ===");
            println!("{}", topology_figure(TopologyKind::Unconnected));
        }
        "fig8" => {
            println!("=== Figure 8: star topology ===");
            println!("{}", topology_figure(TopologyKind::Star));
        }
        "fig10" => {
            println!("=== Figure 10: linear topology ===");
            println!("{}", topology_figure(TopologyKind::Linear));
        }
        "fig2" | "fig9" | "fig11" => {
            let (kind, figno) = match cmd {
                "fig2" => (TopologyKind::Unconnected, 2),
                "fig9" => (TopologyKind::Star, 9),
                _ => (TopologyKind::Linear, 11),
            };
            let rows = figure_breakdown(kind, seed, runs);
            write_csv(
                csv,
                cmd,
                "phase,share",
                &rows.iter().map(|(l, s)| format!("{l},{s}")).collect::<Vec<_>>(),
            );
            println!(
                "{}",
                format_breakdown(
                    &format!(
                        "=== Figure {figno}: % time per discovery sub-activity, {} topology \
                         (client in Bloomington, {runs} runs, seed {seed}) ===",
                        kind.label()
                    ),
                    &rows
                )
            );
        }
        "fig3" | "fig4" | "fig5" | "fig6" | "fig7" => {
            let figno: u32 = cmd[3..].parse().unwrap();
            let (_, site, label) =
                site_figures().into_iter().find(|(f, _, _)| *f == figno).unwrap();
            let s = figure_site_times(site, seed, runs);
            write_csv(csv, cmd, "n,mean_ms,std_dev,max,min,error", &[summary_csv_row(&s)]);
            println!(
                "{}",
                format_summary(
                    &format!(
                        "=== Figure {figno}: discovery time, client in {label} \
                         (unconnected topology, {runs} runs, seed {seed}) ==="
                    ),
                    &s
                )
            );
        }
        "fig12" => {
            let s = figure_multicast(seed, runs, 2);
            write_csv(csv, cmd, "n,mean_ms,std_dev,max,min,error", &[summary_csv_row(&s)]);
            println!(
                "{}",
                format_summary(
                    &format!(
                        "=== Figure 12: broker discovery using ONLY multicast \
                         (2 lab brokers reachable, {runs} runs, seed {seed}) ==="
                    ),
                    &s
                )
            );
        }
        "fig13" => {
            let s = figure_cert_validation(seed, runs.max(PAPER_RUNS));
            write_csv(csv, cmd, "n,mean_ms,std_dev,max,min,error", &[summary_csv_row(&s)]);
            println!(
                "{}",
                format_summary(
                    &format!(
                        "=== Figure 13: time to validate an X.509-style certificate \
                         ({} iterations) ===",
                        runs.max(PAPER_RUNS)
                    ),
                    &s
                )
            );
        }
        "fig14" => {
            let s = figure_sign_encrypt(seed, runs.max(PAPER_RUNS));
            write_csv(csv, cmd, "n,mean_ms,std_dev,max,min,error", &[summary_csv_row(&s)]);
            println!(
                "{}",
                format_summary(
                    &format!(
                        "=== Figure 14: time to sign+encrypt and later extract the \
                         BrokerDiscoveryRequest ({} iterations) ===",
                        runs.max(PAPER_RUNS)
                    ),
                    &s
                )
            );
        }
        "ablation-timeout" => {
            println!("=== Ablation: collection-timeout sweep (star topology) ===");
            println!("{:>12} {:>14} {:>16}", "timeout (ms)", "total (ms)", "responses");
            let rows = ablation_timeout(seed, runs.min(30));
            write_csv(
                csv,
                cmd,
                "timeout_ms,total_ms,responses",
                &rows.iter().map(|(t, x, y)| format!("{t},{x},{y}")).collect::<Vec<_>>(),
            );
            for (t, total, resp) in rows {
                println!("{t:>12} {total:>14.1} {resp:>16.2}");
            }
            println!();
        }
        "ablation-maxresp" => {
            println!("=== Ablation: max-responses cap sweep (star topology) ===");
            println!("{:>12} {:>14} {:>16}", "cap", "total (ms)", "responses");
            let rows = ablation_max_responses(seed, runs.min(30));
            write_csv(
                csv,
                cmd,
                "cap,total_ms,responses",
                &rows.iter().map(|(c, x, y)| format!("{c},{x},{y}")).collect::<Vec<_>>(),
            );
            for (cap, total, resp) in rows {
                println!("{cap:>12} {total:>14.1} {resp:>16.2}");
            }
            println!();
        }
        "ablation-weights" => {
            println!("=== Ablation: selection-weight presets (winning site, star) ===");
            for (preset, wins) in ablation_weights(seed, runs.min(30)) {
                let row: Vec<String> =
                    wins.iter().map(|(site, c)| format!("{site}:{c}")).collect();
                println!("  {preset:<16} {}", row.join("  "));
            }
            println!();
        }
        "ablation-loss" => {
            println!("=== Ablation: UDP loss sensitivity (unconnected topology) ===");
            println!(
                "{:>12} {:>10} {:>12} {:>12}",
                "loss factor", "success", "responses", "total (ms)"
            );
            let rows = ablation_loss(seed, runs.min(30));
            write_csv(
                csv,
                cmd,
                "loss_factor,success_rate,responses,total_ms",
                &rows.iter().map(|(f, s, r2, t)| format!("{f},{s},{r2},{t}")).collect::<Vec<_>>(),
            );
            for (f, succ, resp, total) in rows {
                println!("{f:>12.1} {:>9.0}% {resp:>12.2} {total:>12.1}", succ * 100.0);
            }
            println!();
        }
        "ablation-clock" => {
            println!(
                "=== Ablation: NTP residual sensitivity (proximity-only selection, \
                 target set of 1 — no ping disambiguation) ==="
            );
            println!(
                "{:>16} {:>16} {:>20}",
                "residual", "nearest chosen", "extra distance (ms)"
            );
            let rows = ablation_clock(seed, runs.min(40) as u64);
            write_csv(
                csv,
                cmd,
                "residual,nearest_rate,extra_distance_ms",
                &rows.iter().map(|(l, r2, e)| format!("{l},{r2},{e}")).collect::<Vec<_>>(),
            );
            for (label, rate, err) in rows {
                println!("{label:>16} {:>15.0}% {err:>20.1}", rate * 100.0);
            }
            println!();
        }
        "ablation-bulk" => {
            println!(
                "=== Ablation: bulk transfer across the overlay \
                 (10 Mbit/s WAN, fragmentation + optional LZSS) ==="
            );
            println!(
                "{:>12} {:>12} {:>12} {:>14}",
                "size (KiB)", "compressed", "fragments", "virtual (ms)"
            );
            let rows = ablation_bulk(seed);
            write_csv(
                csv,
                cmd,
                "size_bytes,compressed,fragments,virtual_ms",
                &rows.iter().map(|(s, c, f, t)| format!("{s},{c},{f},{t}")).collect::<Vec<_>>(),
            );
            for (size, compressed, frags, t) in rows {
                println!(
                    "{:>12} {:>12} {frags:>12} {t:>14.1}",
                    size / 1024,
                    if compressed { "lzss" } else { "raw" }
                );
            }
            println!();
        }
        "ablation-topology" => {
            println!("=== Ablation: overlay shapes at 10 brokers ===");
            println!(
                "{:>14} {:>12} {:>12} {:>10}",
                "topology", "total (ms)", "wait share", "diameter"
            );
            let rows = ablation_topology(seed, runs.min(20));
            write_csv(
                csv,
                cmd,
                "topology,total_ms,wait_share,diameter",
                &rows
                    .iter()
                    .map(|(k, t, w, d)| {
                        format!("{k},{t},{w},{}", d.map(|d| d.to_string()).unwrap_or_default())
                    })
                    .collect::<Vec<_>>(),
            );
            for (kind, total, wait, diam) in rows {
                let d = diam.map(|d| d.to_string()).unwrap_or_else(|| "-".into());
                println!("{kind:>14} {total:>12.1} {:>11.0}% {d:>10}", wait * 100.0);
            }
            println!();
        }
        "ablation-scale" => {
            println!("=== Ablation: broker-count scaling (mean total ms) ===");
            println!("{:>10} {:>14} {:>14}", "brokers", "topology", "total (ms)");
            let rows = ablation_scale(seed, runs.min(20));
            write_csv(
                csv,
                cmd,
                "brokers,topology,total_ms",
                &rows.iter().map(|(n, k, t)| format!("{n},{k},{t}")).collect::<Vec<_>>(),
            );
            for (n, kind, total) in rows {
                println!("{n:>10} {kind:>14} {total:>14.1}");
            }
            println!();
        }
        "trace" => {
            use nb_discovery::scenario::ScenarioBuilder;
            use nb_net::wan::BLOOMINGTON;
            let mut scenario =
                ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, seed).build();
            scenario.sim.enable_trace();
            let outcome = scenario.run_discovery_once();
            let trace = scenario.sim.take_trace();
            println!(
                "=== Message flow of one discovery (star topology, seed {seed}) ===\n\
                 {:<12} {:<22} {:<24} {:<8} {:>6}",
                "t (ms)", "from", "to", "via", "bytes"
            );
            let t0 = trace.first().map(|r| r.at).unwrap_or_default();
            let name = |n: nb_wire::NodeId| scenario.sim.node_name(n).to_string();
            for rec in &trace {
                println!(
                    "{:<12.2} {:<22} {:<24} {:<8} {:>6}  {}",
                    (rec.at - t0).as_secs_f64() * 1e3,
                    name(rec.from.node),
                    name(rec.to.node),
                    if rec.stream { "stream" } else { "udp" },
                    rec.bytes,
                    rec.kind,
                );
            }
            println!(
                "\n{} messages; discovered {:?} in {:?}",
                trace.len(),
                outcome.chosen.map(name),
                outcome.phases.total()
            );
        }
        "check" => {
            println!(
                "=== Self-verification: the paper's qualitative claims \
                 ({runs} runs per experiment, seed {seed}) ==="
            );
            let checks = shape_checks(seed, runs.clamp(10, 40));
            let mut failed = 0;
            for c in &checks {
                let mark = if c.passed { "PASS" } else { "FAIL" };
                if !c.passed {
                    failed += 1;
                }
                println!("  [{mark}] {}", c.claim);
                println!("         {}", c.evidence);
            }
            println!();
            if failed > 0 {
                eprintln!("{failed} claim(s) FAILED");
                std::process::exit(1);
            }
            println!("all {} claims hold", checks.len());
        }
        "all" => {
            for c in [
                "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "ablation-timeout",
                "ablation-maxresp", "ablation-weights", "ablation-scale", "ablation-loss",
                "ablation-clock", "ablation-topology", "ablation-bulk",
            ] {
                run(c, runs, seed, csv);
            }
        }
        other => {
            eprintln!("unknown experiment {other:?}; try `repro all`");
            std::process::exit(2);
        }
    }
}

/// `repro bench`: times the figure suite serial vs parallel and writes
/// the machine-readable perf baseline.
fn run_bench_cmd(args: &Args) {
    let report = nb_bench::report::run_bench(args.seed, args.runs, args.threads);
    println!(
        "=== Perf baseline: figure suite, {} runs per figure, seed {} ===",
        report.runs, report.seed
    );
    println!(
        "cores detected: {}, workers used: {} ({} mode{})",
        report.cores,
        report.workers,
        report.mode,
        if args.threads.is_some() { ", --workers override" } else { "" }
    );
    if report.mode == "serial-fallback" {
        println!(
            "note: 1 worker — the parallel column reuses the serial path, so a ~1.00x \
             speedup here is expected, not a regression"
        );
    }
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>8}",
        "figure", "events", "serial ms", "parallel ms", "speedup"
    );
    for f in &report.figures {
        println!(
            "{:<28} {:>10} {:>12.1} {:>12.1} {:>7.2}x",
            f.name,
            f.events,
            f.serial_ms,
            f.parallel_ms,
            f.speedup()
        );
    }
    println!(
        "{:<28} {:>10} {:>12.1} {:>12.1} {:>7.2}x",
        "TOTAL",
        report.events(),
        report.serial_ms(),
        report.parallel_ms(),
        report.speedup()
    );
    println!(
        "events/sec: {:.0} serial, {:.0} parallel ({} cores visible)",
        report.events_per_sec_serial(),
        report.events_per_sec_parallel(),
        report.cores
    );
    print_shard_scaling(&report.shard_scaling);
    println!(
        "scale probe: {} brokers / {} entities / {} subscriptions over {} region(s) — \
         {} events, digest {:016x}, {}/{} attached, {:.0} events/sec",
        report.scale.brokers,
        report.scale.entities,
        report.scale.subscriptions,
        report.scale.regions,
        report.scale.events,
        report.scale.digest,
        report.scale.attached,
        report.scale.entities,
        report.scale.events_per_sec()
    );
    if let Err(e) = std::fs::write(&args.bench_json, report.to_json()) {
        eprintln!("cannot write {}: {e}", args.bench_json.display());
        std::process::exit(2);
    }
    println!("wrote {}", args.bench_json.display());
    // Digest divergence across worker counts means the sharded engine
    // broke its determinism contract — never publish a baseline off it.
    if !report.shard_scaling.digests_equal() {
        eprintln!("shard determinism gate FAILED: digests diverge across worker counts");
        std::process::exit(1);
    }
    // The routing baseline rides along with every full bench run.
    run_routing_cmd(args);
}

/// Renders the shard-scaling A/B table shared by `repro bench` and
/// `repro shards`.
fn print_shard_scaling(scaling: &nb_bench::report::ShardScaling) {
    println!(
        "=== Shard scaling: {} on the sharded engine, {} runs, {} shards ===",
        scaling.workload, scaling.runs, scaling.shards
    );
    println!("{:>8} {:>12} {:>18} {:>8}", "workers", "wall ms", "digest", "speedup");
    for p in &scaling.points {
        println!(
            "{:>8} {:>12.1} {:>18} {:>7.2}x",
            p.workers,
            p.wall_ms,
            format!("{:016x}", p.digest),
            scaling.speedup_at(p.workers).unwrap_or(0.0)
        );
    }
    println!(
        "digests {} across worker counts; speedup at 4 workers {:.2}x (recorded, not gated)",
        if scaling.digests_equal() { "IDENTICAL" } else { "DIVERGED" },
        scaling.speedup_at(4).unwrap_or(0.0)
    );
}

/// `repro shards`: the shard-scaling determinism gate alone. Exit 1
/// unless every intra-run worker count produced byte-identical engine
/// digests. Wall-time speedup is recorded for the baseline but never
/// gated — on a 1-core container the sharded path cannot beat serial.
fn run_shards_cmd(args: &Args) {
    let runs = args.runs.clamp(1, 12);
    let scaling = nb_bench::report::run_shard_scaling(args.seed, runs);
    print_shard_scaling(&scaling);
    if !scaling.digests_equal() {
        eprintln!("shard determinism gate FAILED: digests diverge across worker counts");
        std::process::exit(1);
    }
    println!("shard determinism gate passed");
}

/// `repro routing`: the subscription-matching micro-suite (trie + memo
/// vs the linear-scan oracle) behind `BENCH_routing.json`. With
/// `--min-speedup X`, exits 1 unless at 1e4 filters the cold trie is
/// ≥ Xx and the warm memo ≥ 10x across every topic class.
fn run_routing_cmd(args: &Args) {
    use nb_bench::routing::{run_routing_bench, RoutingReport, FILTER_COUNTS};
    let report: RoutingReport = run_routing_bench(args.seed, &FILTER_COUNTS);
    println!(
        "=== Routing micro-bench: trie+memo vs linear scan, seed {} ===",
        report.seed
    );
    println!(
        "{:>8} {:<18} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "filters", "topics", "linear ns", "cold ns", "warm ns", "trie", "memo"
    );
    for c in &report.cells {
        println!(
            "{:>8} {:<18} {:>12.1} {:>12.1} {:>12.1} {:>7.1}x {:>7.1}x",
            c.filters,
            c.class.label(),
            c.linear_ns,
            c.trie_cold_ns,
            c.memo_warm_ns,
            c.trie_speedup(),
            c.memo_speedup()
        );
    }
    if let Err(e) = std::fs::write(&args.routing_json, report.to_json()) {
        eprintln!("cannot write {}: {e}", args.routing_json.display());
        std::process::exit(2);
    }
    println!("wrote {}", args.routing_json.display());
    if let Some(min) = args.min_speedup {
        const GATE_FILTERS: usize = 10_000;
        const MIN_MEMO: f64 = 10.0;
        let trie = report.min_trie_speedup(GATE_FILTERS);
        let memo = report.min_memo_speedup(GATE_FILTERS);
        println!(
            "gate at {GATE_FILTERS} filters: trie {trie:.1}x (need {min:.1}x), \
             memo {memo:.1}x (need {MIN_MEMO:.1}x)"
        );
        if trie < min || memo < MIN_MEMO {
            eprintln!("routing speedup gate FAILED");
            std::process::exit(1);
        }
        println!("routing speedup gate passed");
    }
}

/// `repro codec`: the wire-path micro-suite (header peek vs full
/// decode, byte forwarding vs re-encode, allocations per fan-out
/// delivery) behind `BENCH_codec.json`. With `--min-peek-speedup` /
/// `--min-forward-speedup`, exits 1 when the zero-copy path falls below
/// either gate.
fn run_codec_cmd(args: &Args) {
    use nb_bench::codec::{run_codec_bench, CodecReport, FAN_OUT};
    let report: CodecReport = run_codec_bench(args.seed);
    println!(
        "=== Codec micro-bench: zero-copy wire path vs full-decode oracle, \
         {} frames, seed {} ===",
        report.frames, report.seed
    );
    println!(
        "{:<26} {:>14} {:>14} {:>8}",
        "path", "zero-copy", "oracle", "speedup"
    );
    println!(
        "{:<26} {:>11.1} ns {:>11.1} ns {:>7.1}x",
        "header peek vs decode",
        report.peek_ns_per_frame,
        report.decode_ns_per_frame,
        report.peek_speedup()
    );
    println!(
        "{:<26} {:>11.1} ns {:>11.1} ns {:>7.1}x",
        "forward vs re-encode",
        report.forward_ns_per_hop,
        report.reencode_ns_per_hop,
        report.forward_speedup()
    );
    if report.alloc_counting {
        println!(
            "allocations per delivery ({FAN_OUT}-way fan-out): {:.2} encode-once, \
             {:.2} re-encode per recipient",
            report.allocs_per_delivery_forward, report.allocs_per_delivery_reencode
        );
    } else {
        println!("allocations per delivery: counting allocator not installed, skipped");
    }
    println!(
        "=== Wire v2 link A/B: {}-message control-plane epochs ===",
        nb_bench::codec::BATCH
    );
    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>12} {:>14} {:>14}",
        "fan-out", "v1 B/msg", "v2 B/msg", "reduction", "frames/seg", "v1 enc ns/msg", "v2 enc ns/msg"
    );
    for ab in [&report.ab_fan4, &report.ab_fan32] {
        println!(
            "{:<10} {:>12.1} {:>12.1} {:>9.2}x {:>12.1} {:>14.1} {:>14.1}",
            ab.fan_out,
            ab.v1_bytes_per_delivery,
            ab.v2_bytes_per_delivery,
            ab.bytes_reduction(),
            ab.frames_per_segment,
            ab.v1_encode_ns_per_delivery,
            ab.v2_encode_ns_per_delivery
        );
    }
    if let Err(e) = std::fs::write(&args.codec_json, report.to_json()) {
        eprintln!("cannot write {}: {e}", args.codec_json.display());
        std::process::exit(2);
    }
    println!("wrote {}", args.codec_json.display());
    if args.min_peek_speedup.is_some() || args.min_forward_speedup.is_some() {
        let min_peek = args.min_peek_speedup.unwrap_or(0.0);
        let min_forward = args.min_forward_speedup.unwrap_or(0.0);
        println!(
            "gate: peek {:.1}x (need {min_peek:.1}x), forward {:.1}x (need {min_forward:.1}x)",
            report.peek_speedup(),
            report.forward_speedup()
        );
        if report.peek_speedup() < min_peek || report.forward_speedup() < min_forward {
            eprintln!("codec speedup gate FAILED");
            std::process::exit(1);
        }
        println!("codec speedup gate passed");
    }
    if let Some(min_reduction) = args.min_bytes_reduction {
        let reduction = report.ab_fan32.bytes_reduction();
        println!(
            "gate: v2 bytes/delivery reduction {reduction:.2}x at {}-way fan-out \
             (need {min_reduction:.1}x)",
            report.ab_fan32.fan_out
        );
        if reduction < min_reduction {
            eprintln!("codec v2 bytes-reduction gate FAILED");
            std::process::exit(1);
        }
        println!("codec v2 bytes-reduction gate passed");
    }
}

/// `repro chaos`: runs the seeded fault-injection campaign and writes
/// the deterministic JSON report. Exits 1 when an invariant fails.
fn run_chaos_cmd(args: &Args) {
    // Scenarios are independent, so the campaign shards across workers;
    // the report bytes are identical whatever count is used.
    let workers = args.threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(16))
    });
    let report =
        nb_bench::chaos::run_campaign_with_workers(args.seed, args.scenarios.max(1), workers);
    println!(
        "=== Chaos campaign: {} scenarios from base seed {}, {} workers ===",
        report.scenarios.len(),
        report.base_seed,
        workers
    );
    println!(
        "{:<20} {:>6} {:>8} {:>18} {:>10} {:>8} {:>7}",
        "scenario", "seed", "faults", "plan digest", "failovers", "stale", "verdict"
    );
    for s in &report.scenarios {
        println!(
            "{:<20} {:>6} {:>8} {:>18} {:>10} {:>8} {:>7}",
            s.name,
            s.seed,
            s.faults,
            format!("{:016x}", s.plan_digest),
            s.failovers,
            s.stale_targets_skipped,
            if s.passed() { "PASS" } else { "FAIL" }
        );
        for inv in s.invariants.iter().filter(|i| !i.passed) {
            println!("    [FAIL] {}: {}", inv.name, inv.detail);
        }
    }
    if let Err(e) = std::fs::write(&args.chaos_json, report.to_json()) {
        eprintln!("cannot write {}: {e}", args.chaos_json.display());
        std::process::exit(2);
    }
    println!("wrote {}", args.chaos_json.display());
    if !report.passed() {
        eprintln!("chaos campaign FAILED");
        std::process::exit(1);
    }
    println!("all scenarios passed all invariants");
}

/// `repro federation`: runs the federated-BDN anti-entropy campaign and
/// writes the deterministic JSON report. Exits 1 when an invariant
/// fails.
fn run_federation_cmd(args: &Args) {
    // Scenarios are independent, so the campaign shards across workers;
    // the report bytes are identical whatever count is used.
    let workers = args.threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(16))
    });
    let report = nb_bench::federation::run_campaign_with_workers(
        args.seed,
        args.scenarios.max(1),
        workers,
    );
    println!(
        "=== Federation campaign: {} scenarios from base seed {}, {} workers ===",
        report.scenarios.len(),
        report.base_seed,
        workers
    );
    println!(
        "{:<26} {:>6} {:>8} {:>18} {:>9} {:>9} {:>7}",
        "scenario", "seed", "faults", "plan digest", "attached", "conv.rds", "verdict"
    );
    for s in &report.scenarios {
        println!(
            "{:<26} {:>6} {:>8} {:>18} {:>9} {:>9} {:>7}",
            s.name,
            s.seed,
            s.faults,
            format!("{:016x}", s.plan_digest),
            format!("{}/{}", s.attached, s.total_entities),
            s.convergence_rounds,
            if s.passed() { "PASS" } else { "FAIL" }
        );
        for inv in s.invariants.iter().filter(|i| !i.passed) {
            println!("    [FAIL] {}: {}", inv.name, inv.detail);
        }
    }
    if let Err(e) = std::fs::write(&args.federation_json, report.to_json()) {
        eprintln!("cannot write {}: {e}", args.federation_json.display());
        std::process::exit(2);
    }
    println!("wrote {}", args.federation_json.display());
    if !report.passed() {
        eprintln!("federation campaign FAILED");
        std::process::exit(1);
    }
    println!("all scenarios passed all invariants");
}

/// `repro scale`: runs the seeded WAN scale campaign through the
/// sharded engine and writes the deterministic JSON report (wall-clock
/// columns stay on stdout so the bytes are worker-count-invariant).
/// Exits 1 when a tier fails to attach, an A/B oracle diverges, or a
/// requested gate is missed.
fn run_scale_cmd(args: &Args) {
    use nb_bench::scale::{self, TierSelection, TierSpec};
    use nb_net::topogen::TopologyKind as WanKind;

    let workers = args.threads.unwrap_or(1).max(1);
    let tiers: Vec<TierSpec> = if args.brokers.is_some()
        || args.entities.is_some()
        || args.topology.is_some()
    {
        let kind = match args.topology.as_deref().unwrap_or("geo") {
            "star" => WanKind::Star,
            "linear" => WanKind::Linear,
            "geo" => WanKind::RandomGeometric,
            "isp" => WanKind::HierarchicalIsp,
            other => {
                eprintln!("--topology {other}: expected star|linear|geo|isp");
                std::process::exit(2);
            }
        };
        vec![TierSpec {
            name: "custom",
            kind,
            brokers: args.brokers.unwrap_or(100),
            entities: args.entities.unwrap_or(10_000),
        }]
    } else {
        let selection = match args.tier.as_str() {
            "small" => TierSelection::Small,
            "large" => TierSelection::Large,
            "all" => TierSelection::All,
            other => {
                eprintln!("--tier {other}: expected small|large|all");
                std::process::exit(2);
            }
        };
        scale::default_tiers(selection)
    };

    println!(
        "=== Scale campaign: {} tier(s), seed {}, {} worker(s), {} shards ===",
        tiers.len(),
        args.seed,
        workers,
        scale::SCALE_SHARDS
    );
    let report = scale::run_campaign(&tiers, args.seed, workers);
    println!(
        "{:<14} {:>7} {:>8} {:>4} {:>12} {:>9} {:>11} {:>9} {:>9} {:>9} {:>7} {:>7}",
        "tier", "brokers", "entities", "rgns", "events", "evts/sec", "attach_ms",
        "p50_us", "p99_us", "p999_us", "wire/e", "mem/e"
    );
    for t in &report.tiers {
        println!(
            "{:<14} {:>7} {:>8} {:>4} {:>12} {:>9.0} {:>11} {:>9} {:>9} {:>9} {:>7} {:>7}",
            t.name,
            t.brokers,
            t.entities,
            t.regions,
            t.events,
            t.events_per_sec(),
            t.time_to_all_attached_us / 1_000,
            t.discovery_p50_us,
            t.discovery_p99_us,
            t.discovery_p999_us,
            t.wire_bytes_per_entity,
            t.mem_bytes_per_entity,
        );
        if t.attached != t.entities {
            eprintln!("    [FAIL] only {}/{} entities attached", t.attached, t.entities);
        }
    }
    println!("--- slab A/B at campaign population ---");
    println!(
        "{:<26} {:>8} {:>7} {:>12} {:>12} {:>9} {:>7}",
        "structure", "n", "rounds", "legacy ns/op", "slab ns/op", "speedup", "oracle"
    );
    for a in &report.ab {
        println!(
            "{:<26} {:>8} {:>7} {:>12.0} {:>12.0} {:>8.1}x {:>7}",
            a.name,
            a.n,
            a.rounds,
            a.legacy_ns_per_op,
            a.slab_ns_per_op,
            a.speedup(),
            if a.oracle_match { "OK" } else { "FAIL" }
        );
    }

    if let Err(e) = std::fs::write(&args.scale_json, report.to_json()) {
        eprintln!("cannot write {}: {e}", args.scale_json.display());
        std::process::exit(2);
    }
    println!("wrote {}", args.scale_json.display());

    let mut failed = !report.passed();
    if failed {
        eprintln!("scale campaign FAILED (unattached entities, failovers, or oracle drift)");
    }
    if let Some(floor) = args.min_events_per_sec {
        for t in &report.tiers {
            if t.events_per_sec() < floor {
                eprintln!(
                    "[FAIL] {}: {:.0} events/sec below the {floor:.0} floor",
                    t.name,
                    t.events_per_sec()
                );
                failed = true;
            }
        }
    }
    if let Some(ceiling) = args.max_bytes_per_entity {
        for t in &report.tiers {
            if t.alloc_counting && t.mem_bytes_per_entity > ceiling {
                eprintln!(
                    "[FAIL] {}: {} heap bytes/entity above the {ceiling} ceiling",
                    t.name, t.mem_bytes_per_entity
                );
                failed = true;
            }
        }
    }
    if let Some(min) = args.min_ab_speedup {
        let clearing = report.ab.iter().filter(|a| a.speedup() >= min).count();
        if clearing < 2 {
            eprintln!(
                "[FAIL] only {clearing}/{} A/B columns reached the {min:.1}x speedup gate \
                 (need >= 2)",
                report.ab.len()
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("all tiers attached; every requested gate passed");
}

/// `repro lint`: runs the nb-lint static-analysis pass over the
/// workspace and writes the deterministic JSON report. Exits 1 when new
/// (un-suppressed, un-baselined) findings exist.
fn run_lint_cmd(args: &Args) {
    if args.lint_rules {
        // `repro lint --rules`: the stable rule table, nothing else —
        // docs and CI generate from this instead of hand-copying.
        print!("{}", nb_lint::rules::rules_table());
        return;
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    let Some(root) = nb_lint::find_workspace_root(&cwd) else {
        eprintln!("repro lint: no workspace root found from {}", cwd.display());
        std::process::exit(2);
    };
    let baseline = root.join(nb_lint::BASELINE_REL);
    let report = match nb_lint::run_root(&root, &baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro lint: scan failed: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", report.render_human());
    if let Err(e) = std::fs::write(&args.lint_json, report.to_json()) {
        eprintln!("cannot write {}: {e}", args.lint_json.display());
        std::process::exit(2);
    }
    println!("wrote {}", args.lint_json.display());
    if report.has_new() {
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    if args.cmd == "bench" {
        run_bench_cmd(&args);
        return;
    }
    if args.cmd == "shards" {
        run_shards_cmd(&args);
        return;
    }
    if args.cmd == "chaos" {
        run_chaos_cmd(&args);
        return;
    }
    if args.cmd == "federation" {
        run_federation_cmd(&args);
        return;
    }
    if args.cmd == "routing" {
        run_routing_cmd(&args);
        return;
    }
    if args.cmd == "codec" {
        run_codec_cmd(&args);
        return;
    }
    if args.cmd == "lint" {
        run_lint_cmd(&args);
        return;
    }
    if args.cmd == "scale" {
        run_scale_cmd(&args);
        return;
    }
    run(&args.cmd, args.runs, args.seed, &args.csv);
}

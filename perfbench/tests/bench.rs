//! The benchmark's own checks on tiny populations:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::fleet::Faults;
use perfbench::report::{Marks, Report};
use perfbench::{run, Config, WORKLOADS};

fn tiny(workload: &str, seed: u64, trace: bool, faults: Faults) -> Report {
    let cfg = Config {
        workload: workload.into(),
        seed,
        seconds: 1,
        trace,
        tiny: true,
        faults,
    };
    run(&cfg, &mut Marks::new(false))
}

fn check<'a>(report: &'a Report, name: &str) -> &'a perfbench::report::Check {
    report
        .checks
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no check {name:?}"))
}

#[test]
fn traced_runs_reproduce_the_untraced_digest_and_metrics() {
    for workload in WORKLOADS {
        let report = tiny(workload, 7, true, Faults::default());
        assert!(
            check(&report, "traced run reproduces the engine digest").ok,
            "{workload}\n{}",
            report.render()
        );
        assert!(
            check(&report, "traced run reproduces every virtual metric").ok,
            "{workload}\n{}",
            report.render()
        );
        assert!(report.passed(), "{workload}\n{}", report.render());
        assert_eq!(report.failed, 0, "{workload}");
        assert!(report.attempted > 0, "{workload}");
    }
}

#[test]
fn every_metric_is_named_once_with_a_unit() {
    for workload in WORKLOADS {
        let report = tiny(workload, 3, true, Faults::default());
        let mut names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "{workload}: a metric is emitted twice");
        for m in &report.metrics {
            assert!(!m.unit.is_empty(), "{workload}: {} has no unit", m.name);
        }
        for name in [
            "discovery_p50_ms",
            "discovery_p99_ms",
            "time_to_all_attached_s",
            "shard.self_ns_per_event",
        ] {
            assert!(names.contains(&name), "{workload}: {name} missing");
        }
    }
}

#[test]
fn same_seed_same_numbers_other_seed_other_numbers() {
    for workload in ["scale_discovery", "scale_pubsub"] {
        let a = tiny(workload, 5, false, Faults::default());
        let b = tiny(workload, 5, false, Faults::default());
        let c = tiny(workload, 6, false, Faults::default());
        let virt = [
            "discovery_p50_ms",
            "discovery_p99_ms",
            "time_to_all_attached_s",
            "delivery_p50_ms",
            "wire_bytes_per_entity",
        ];
        let values = |r: &Report| virt.map(|name| r.get(name).expect(name).to_bits());
        assert_eq!(
            values(&a),
            values(&b),
            "{workload}: same seed, different numbers"
        );
        assert_ne!(
            values(&a),
            values(&c),
            "{workload}: the seed changed nothing"
        );
    }
}

#[test]
fn crashing_an_entitys_broker_is_counted_as_failure() {
    for workload in WORKLOADS {
        let report = tiny(
            workload,
            7,
            false,
            Faults {
                crash_one_broker: true,
            },
        );
        let fail = report
            .get("discovery_fail_frac")
            .expect("discovery_fail_frac");
        let miss = report
            .get("delivery_miss_frac")
            .expect("delivery_miss_frac");
        assert!(
            fail > 0.0 || miss > 0.0,
            "{workload}: crash went unnoticed\n{}",
            report.render()
        );
        assert!(report.failed > 0, "{workload}: failed count stayed 0");
        assert!(
            !report.passed(),
            "{workload}: checks passed despite the crash"
        );
    }
}

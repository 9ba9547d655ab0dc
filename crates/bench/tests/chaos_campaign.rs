//! Campaign-level guarantees of the chaos engine.
//!
//! * determinism — the same base seed yields a byte-identical fault
//!   schedule and a byte-identical campaign report across two runs,
//! * the acceptance campaign — ten seeded scenarios (the scripted BDN
//!   state-loss restart plus nine randomized plans) all pass the three
//!   invariant checkers,
//! * chaos-smoke — the three-seed tier-1 wrapper behind
//!   `tools/bench.sh chaos-smoke`.

use nb_bench::chaos::{
    acceptance_plan, build_deployment, run_campaign, run_campaign_with_workers,
};

#[test]
fn same_seed_produces_byte_identical_schedule_and_report() {
    // The fault schedule alone must already be reproducible…
    let plan_a = acceptance_plan(&build_deployment(77));
    let plan_b = acceptance_plan(&build_deployment(77));
    assert_eq!(plan_a.describe(), plan_b.describe(), "fault schedules diverged");

    // …and so must the whole campaign report, which folds in every
    // outcome of actually running the plans.
    let first = run_campaign(77, 2).to_json();
    let second = run_campaign(77, 2).to_json();
    assert_eq!(first, second, "campaign reports diverged for one seed");

    // A different seed must actually change the randomized scenarios.
    let other = run_campaign(78, 2).to_json();
    assert_ne!(first, other, "base seed had no effect on the campaign");
}

#[test]
fn ten_seed_campaign_passes_every_invariant() {
    let report = run_campaign(2005, 10);
    assert_eq!(report.scenarios.len(), 10);
    for s in &report.scenarios {
        for inv in &s.invariants {
            assert!(
                inv.passed,
                "scenario {} (seed {}): invariant {} failed: {}",
                s.name, s.seed, inv.name, inv.detail
            );
        }
    }
    // Scenario 0 is the acceptance scenario: the BDN restarted with
    // state loss and recovered solely through broker re-advertisement
    // heartbeats — every entity failed over at least once through the
    // rebuilt registry.
    let scripted = &report.scenarios[0];
    assert_eq!(scripted.name, "scripted_bdn_loss");
    assert!(scripted.failovers >= 4, "every entity rediscovered: {}", scripted.failovers);
    assert_eq!(scripted.registry_len, 6, "heartbeats repopulated every lease");
    let json = report.to_json();
    assert!(json.contains("\"passed\": true"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

/// Tier-1 smoke: three fixed seeds, scripted scenario only per seed,
/// well under the 30 s budget of `tools/bench.sh chaos-smoke`.
#[test]
fn chaos_smoke_three_fixed_seeds() {
    for seed in [11, 23, 2005] {
        let report = run_campaign(seed, 1);
        assert!(report.passed(), "smoke seed {seed} failed:\n{}", report.to_json());
    }
}

/// Pinned digest of the seed-11 three-scenario report, captured before
/// the determinism-hardening pass that replaced `HashMap` state with
/// ordered collections across `net/{sim,link,threaded}.rs` and
/// `core/{responder,client,entity,bdn}.rs` (lint rule D002). The maps
/// were only ever iterated in sorted or order-insensitive ways, so the
/// swap must not move a single byte of the report — this pin is the
/// regression proof, and any future reordering of sim-visible state
/// will trip it.
#[test]
fn campaign_report_unchanged_by_ordered_state() {
    const PINNED_FNV1A64: u64 = 0x838b_701b_6f2a_7765;
    let json = run_campaign(11, 3).to_json();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in json.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    assert_eq!(
        h, PINNED_FNV1A64,
        "chaos report bytes drifted (got {h:016x}) — sim-visible ordering changed"
    );
}

/// The same pin, now also held at 1 and 4 campaign workers: scenarios
/// shard across threads but merge in scenario order, so the report —
/// and therefore its digest — must not move a byte when the campaign
/// runs scenario-parallel.
#[test]
fn campaign_report_pinned_at_one_and_four_workers() {
    const PINNED_FNV1A64: u64 = 0x838b_701b_6f2a_7765;
    for workers in [1, 4] {
        let json = run_campaign_with_workers(11, 3, workers).to_json();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in json.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(
            h, PINNED_FNV1A64,
            "chaos report bytes drifted at {workers} workers (got {h:016x})"
        );
    }
}

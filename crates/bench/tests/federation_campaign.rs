//! Campaign-level guarantees of the federated-BDN anti-entropy engine.
//!
//! * determinism — the same base seed yields a byte-identical fault
//!   schedule and a byte-identical campaign report across two runs and
//!   any worker count,
//! * the acceptance campaign — ten seeded scenarios (the scripted
//!   n−1-of-n BDN loss with a stale-replica rejoin, plus nine
//!   randomized plans that crash BDNs freely) all pass the three
//!   invariant checkers: every entity attached (100% discovery
//!   success), every live BDN digest-identical after quiescence, and
//!   no tombstoned broker resurrected,
//! * a pinned report digest at 1 and 4 workers, the regression proof
//!   that anti-entropy message flow is worker-invariant.

use nb_bench::federation::{
    acceptance_plan, build_deployment, run_campaign, run_campaign_with_workers, N_ENTITIES,
};

#[test]
fn same_seed_produces_byte_identical_schedule_and_report() {
    let plan_a = acceptance_plan(&build_deployment(77));
    let plan_b = acceptance_plan(&build_deployment(77));
    assert_eq!(plan_a.describe(), plan_b.describe(), "fault schedules diverged");

    let first = run_campaign(77, 2).to_json();
    let second = run_campaign(77, 2).to_json();
    assert_eq!(first, second, "campaign reports diverged for one seed");

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
        // Discovery success is 100%: the federation kept every entity
        // attachable even when its preferred BDNs were down.
        assert_eq!(
            s.attached, s.total_entities,
            "scenario {} (seed {}): only {}/{} entities attached",
            s.name, s.seed, s.attached, s.total_entities
        );
    }
    // Scenario 0 is the acceptance scenario: two of three BDNs die
    // (k = n−1 leaves one survivor), a broker is lost for good, and a
    // stale replica rejoins — the tombstone must propagate and the
    // state-lossy BDN must be repopulated purely by anti-entropy.
    let scripted = &report.scenarios[0];
    assert_eq!(scripted.name, "scripted_bdn_federation_loss");
    assert_eq!(scripted.attached, N_ENTITIES, "100% discovery success under n-1 BDN loss");
    let tombstones_applied: u64 =
        scripted.bdn_reports.iter().map(|b| b.stats.tombstones_applied).sum();
    assert!(tombstones_applied >= 1, "the dead broker's tombstone propagated");
    let pulled: u64 = scripted.bdn_reports.iter().map(|b| b.stats.entries_pulled).sum();
    assert!(pulled >= 1, "anti-entropy repopulated the state-lossy BDN");
    let rounds: u64 = scripted.bdn_reports.iter().map(|b| b.stats.rounds_run).sum();
    assert!(rounds > 0, "anti-entropy rounds actually ran");
    let json = report.to_json();
    assert!(json.contains("\"passed\": true"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

/// Pinned digest of the seed-11 three-scenario report, held at 1 and 4
/// campaign workers: scenarios shard across threads but merge in
/// scenario order, so the report — and therefore its digest — must not
/// move a byte when the campaign runs scenario-parallel. Any
/// nondeterminism in the anti-entropy message flow (partner selection,
/// snapshot ordering, digest computation) trips this pin.
#[test]
fn campaign_report_pinned_at_one_and_four_workers() {
    const PINNED_FNV1A64: u64 = 0x81af_5ec4_eb9a_e1e3;
    for workers in [1, 4] {
        let json = run_campaign_with_workers(11, 3, workers).to_json();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in json.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(
            h, PINNED_FNV1A64,
            "federation report bytes drifted at {workers} workers (got {h:016x})"
        );
    }
}

//! The paper's claims as a tier-1 contract: re-derives every claim of
//! the reproduction scoreboard (the status column of EXPERIMENTS.md) at
//! fast scale, and fails naming each claim that no longer holds.

#[test]
fn every_paper_claim_holds() {
    let claims = gh_bench::scoreboard::run();
    assert!(
        claims.len() >= 9,
        "the scoreboard lost claims: {}",
        claims.len()
    );
    let broken: Vec<String> = claims
        .iter()
        .filter(|c| !c.holds)
        .map(|c| format!("  {} — {}: {}", c.source, c.claim, c.evidence))
        .collect();
    assert!(
        broken.is_empty(),
        "{} of {} paper claims no longer hold:\n{}",
        broken.len(),
        claims.len(),
        broken.join("\n")
    );
}

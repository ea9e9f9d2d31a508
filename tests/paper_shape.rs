//! End-to-end integration tests pinning the *shape* of the paper's
//! results: every observation the evaluation section (§5.2) draws must
//! hold in this reproduction, at shortened-but-stable run lengths.

use anycast::prelude::*;
use anycast::rsvp::MessageKind;

fn config(lambda: f64, system: SystemSpec, seed: u64) -> ExperimentConfig {
    ExperimentConfig::paper_defaults(lambda, system)
        .with_warmup_secs(400.0)
        .with_measure_secs(900.0)
        .with_seed(seed)
}

fn ap(lambda: f64, system: SystemSpec) -> f64 {
    let topo = topologies::mci();
    // Average two seeds to stabilise comparisons.
    let a = run_experiment(&topo, &config(lambda, system, 11)).admission_probability;
    let b = run_experiment(&topo, &config(lambda, system, 22)).admission_probability;
    (a + b) / 2.0
}

/// §5.2.1 observation 1: AP increases with the retrial limit R.
#[test]
fn ap_increases_with_r() {
    for policy in [PolicySpec::Ed, PolicySpec::wd_dh_default()] {
        let r1 = ap(40.0, SystemSpec::dac(policy, 1));
        let r2 = ap(40.0, SystemSpec::dac(policy, 2));
        let r5 = ap(40.0, SystemSpec::dac(policy, 5));
        assert!(
            r2 > r1,
            "{}: R=2 ({r2}) must beat R=1 ({r1})",
            policy.name()
        );
        assert!(
            r5 >= r2 - 0.01,
            "{}: R=5 ({r5}) must not fall below R=2 ({r2})",
            policy.name()
        );
    }
}

/// §5.2.1 observation 2: the R = 1 → 2 improvement dominates; gains
/// beyond are marginal.
#[test]
fn retrial_gains_saturate() {
    let r1 = ap(40.0, SystemSpec::dac(PolicySpec::Ed, 1));
    let r2 = ap(40.0, SystemSpec::dac(PolicySpec::Ed, 2));
    let r4 = ap(40.0, SystemSpec::dac(PolicySpec::Ed, 4));
    let r5 = ap(40.0, SystemSpec::dac(PolicySpec::Ed, 5));
    let first_jump = r2 - r1;
    let late_jump = r5 - r4;
    assert!(
        first_jump > 3.0 * late_jump.max(0.0),
        "1→2 jump {first_jump} should dwarf 4→5 jump {late_jump}"
    );
}

/// §5.2.1 observation 3: systems with lower AP are more sensitive to R.
#[test]
fn weaker_systems_gain_more_from_retrials() {
    let ed_gain =
        ap(40.0, SystemSpec::dac(PolicySpec::Ed, 2)) - ap(40.0, SystemSpec::dac(PolicySpec::Ed, 1));
    let wddb_gain = ap(40.0, SystemSpec::dac(PolicySpec::WdDb, 2))
        - ap(40.0, SystemSpec::dac(PolicySpec::WdDb, 1));
    assert!(
        ed_gain > wddb_gain,
        "ED gains {ed_gain} from a retry, WD/D+B only {wddb_gain}"
    );
}

/// §5.2.2 observation 1: GDI best, SP worst at load; all equal at
/// trivial load.
#[test]
fn gdi_best_sp_worst() {
    let lambda = 35.0;
    let gdi = ap(lambda, SystemSpec::GlobalDynamic);
    let sp = ap(lambda, SystemSpec::ShortestPath);
    for policy in [
        PolicySpec::Ed,
        PolicySpec::wd_dh_default(),
        PolicySpec::WdDb,
    ] {
        let dac = ap(lambda, SystemSpec::dac(policy, 2));
        assert!(
            gdi >= dac - 0.01,
            "GDI ({gdi}) must dominate {} ({dac})",
            policy.name()
        );
        assert!(
            dac > sp + 0.02,
            "{} ({dac}) must beat SP ({sp})",
            policy.name()
        );
    }
    // Trivial load: everyone admits everything.
    for system in [
        SystemSpec::dac(PolicySpec::Ed, 1),
        SystemSpec::ShortestPath,
        SystemSpec::GlobalDynamic,
    ] {
        assert!(ap(1.0, system) > 0.999);
    }
}

/// §5.2.2 observation 2: the biased algorithms beat ED, and land close
/// to GDI.
#[test]
fn biased_algorithms_beat_ed_and_approach_gdi() {
    let lambda = 30.0;
    let ed = ap(lambda, SystemSpec::dac(PolicySpec::Ed, 2));
    let wddh = ap(lambda, SystemSpec::dac(PolicySpec::wd_dh_default(), 2));
    let wddb = ap(lambda, SystemSpec::dac(PolicySpec::WdDb, 2));
    let gdi = ap(lambda, SystemSpec::GlobalDynamic);
    assert!(wddh > ed, "WD/D+H ({wddh}) must beat ED ({ed})");
    assert!(wddb > ed, "WD/D+B ({wddb}) must beat ED ({ed})");
    // "Close to GDI": within 10 points where ED trails much further.
    assert!(
        gdi - wddh.max(wddb) < 0.10,
        "biased DAC (best {}) should be close to GDI ({gdi})",
        wddh.max(wddb)
    );
}

/// §5.2.2 observation 3: ED needs the most retrials, WD/D+B the fewest.
#[test]
fn retrial_overhead_ordering() {
    let topo = topologies::mci();
    let lambda = 40.0;
    let tries = |policy: PolicySpec| -> f64 {
        run_experiment(&topo, &config(lambda, SystemSpec::dac(policy, 2), 11)).mean_tries
    };
    let ed = tries(PolicySpec::Ed);
    let wddh = tries(PolicySpec::wd_dh_default());
    let wddb = tries(PolicySpec::WdDb);
    assert!(ed > wddh, "ED tries {ed} must exceed WD/D+H {wddh}");
    assert!(wddh > wddb, "WD/D+H tries {wddh} must exceed WD/D+B {wddb}");
}

/// AP decreases monotonically (within noise) in the arrival rate.
#[test]
fn ap_monotone_in_lambda() {
    let mut prev = 1.1;
    for lambda in [10.0, 20.0, 30.0, 40.0, 50.0] {
        let v = ap(lambda, SystemSpec::dac(PolicySpec::wd_dh_default(), 2));
        assert!(
            v < prev + 0.02,
            "AP must not rise with load: {v} at λ={lambda}, prev {prev}"
        );
        prev = v;
    }
    assert!(
        prev < 0.7,
        "λ=50 must show substantial blocking, got {prev}"
    );
}

/// Signaling overhead: messages per request grow with the retry level
/// and every admitted flow's reservations are eventually torn down.
#[test]
fn message_accounting_consistency() {
    let topo = topologies::mci();
    let m = run_experiment(&topo, &config(35.0, SystemSpec::dac(PolicySpec::Ed, 2), 11));
    // Each successful admission produces equal PATH and RESV hop counts;
    // each failure produces equal PATH-prefix and RESV_ERR counts; so
    // PATH = RESV + RESV_ERR exactly.
    assert_eq!(
        m.messages.count(MessageKind::Path),
        m.messages.count(MessageKind::Resv) + m.messages.count(MessageKind::ResvErr),
        "PATH messages must split into RESV confirmations and RESV_ERR aborts"
    );
    assert!(m.messages.count(MessageKind::PathTear) > 0);
    assert!(m.messages_per_request > 1.0);
}

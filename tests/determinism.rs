//! Reproducibility guarantees: same seed → same dataset, same parameters,
//! same metrics.

use retia::{Retia, RetiaConfig, Split, TkgContext, Trainer};
use retia_data::{DatasetProfile, SyntheticConfig};

fn cfg() -> RetiaConfig {
    RetiaConfig {
        dim: 12,
        channels: 6,
        k: 2,
        epochs: 2,
        patience: 0,
        online: false,
        seed: 9,
        ..Default::default()
    }
}

#[test]
fn profiles_are_bitwise_reproducible() {
    for p in DatasetProfile::ALL {
        let a = SyntheticConfig::profile(p).generate();
        let b = SyntheticConfig::profile(p).generate();
        assert_eq!(a.train, b.train, "{} train differs", a.name);
        assert_eq!(a.valid, b.valid);
        assert_eq!(a.test, b.test);
    }
}

#[test]
fn training_is_reproducible_for_fixed_seed() {
    let ds = SyntheticConfig::tiny(200).generate();
    let ctx = TkgContext::new(&ds);
    let run = || {
        let c = cfg();
        let mut t = Trainer::new(Retia::new(&c, &ds), c);
        t.fit(&ctx);
        t.evaluate(&ctx, Split::Test)
    };
    let r1 = run();
    let r2 = run();
    assert_eq!(r1.entity_raw, r2.entity_raw);
    assert_eq!(r1.relation_raw, r2.relation_raw);
}

#[test]
fn results_are_bit_identical_at_any_thread_count() {
    // The parallel compute layer's contract: chunk boundaries and reduction
    // order depend only on shape, so losses, parameters and rankings must be
    // bit-for-bit identical at RETIA_NUM_THREADS = 1, 2 and 8.
    let ds = SyntheticConfig::tiny(200).generate();
    let ctx = TkgContext::new(&ds);
    let run = |threads: usize| {
        retia_tensor::parallel::set_num_threads(threads);
        let c = cfg();
        let mut t = Trainer::new(Retia::new(&c, &ds), c);
        let losses = t.fit(&ctx);
        let report = t.evaluate(&ctx, Split::Test);
        retia_tensor::parallel::set_num_threads(0);
        (losses, report)
    };
    let (losses1, report1) = run(1);
    for threads in [2usize, 8] {
        let (losses, report) = run(threads);
        assert_eq!(losses1.len(), losses.len());
        for (a, b) in losses1.iter().zip(losses.iter()) {
            assert_eq!(a.joint.to_bits(), b.joint.to_bits(), "loss differs at {threads} threads");
            assert_eq!(a.entity.to_bits(), b.entity.to_bits());
            assert_eq!(a.relation.to_bits(), b.relation.to_bits());
        }
        assert_eq!(report1.entity_raw, report.entity_raw, "rankings differ at {threads} threads");
        assert_eq!(report1.entity_filtered, report.entity_filtered);
        assert_eq!(report1.relation_raw, report.relation_raw);
        assert_eq!(report1.relation_filtered, report.relation_filtered);
    }
}

#[test]
fn different_seeds_give_different_models() {
    let ds = SyntheticConfig::tiny(200).generate();
    let a = Retia::new(&cfg(), &ds);
    let b = Retia::new(&RetiaConfig { seed: 10, ..cfg() }, &ds);
    assert_ne!(
        a.store().value("ent0"),
        b.store().value("ent0"),
        "different seeds must change initialization"
    );
}

#[test]
fn model_parameter_count_is_stable() {
    // A regression guard: structural edits that silently change the
    // architecture show up here first.
    let ds = SyntheticConfig::tiny(200).generate();
    let model = Retia::new(&cfg(), &ds);
    let n = model.num_parameters();
    let again = Retia::new(&cfg(), &ds).num_parameters();
    assert_eq!(n, again);
    assert!(n > 5_000, "unexpectedly small model: {n}");
}

//! Model checkpointing: trained weights survive a model-file save/load
//! cycle and reproduce identical predictions in a freshly built model.

use retia::{Retia, RetiaConfig, Split, TkgContext, Trainer};
use retia_data::SyntheticConfig;

fn cfg() -> RetiaConfig {
    RetiaConfig {
        dim: 12,
        channels: 6,
        k: 2,
        epochs: 2,
        patience: 0,
        online: false,
        ..Default::default()
    }
}

#[test]
fn checkpoint_roundtrip_reproduces_predictions() {
    let ds = SyntheticConfig::tiny(500).generate();
    let ctx = TkgContext::new(&ds);

    let mut trainer = Trainer::new(Retia::new(&cfg(), &ds), cfg());
    trainer.fit(&ctx);
    let reference = trainer.evaluate_offline(&ctx, Split::Test);

    let path = std::env::temp_dir().join(format!("retia_model_{}.bin", std::process::id()));
    trainer.save_model(&path).unwrap();

    // The loader builds a fresh model from the file's config, which starts
    // at its initialization; loading must restore the trained weights
    // exactly.
    let fresh = Retia::new(&cfg(), &ds);
    assert_ne!(
        fresh.store().value("ent0"),
        trainer.model.store().value("ent0"),
        "fresh model must start different"
    );
    let loaded = Retia::load(&path, &ds).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.store().value("ent0"), trainer.model.store().value("ent0"));

    let mut fresh_trainer = Trainer::new(loaded, cfg());
    let restored = fresh_trainer.evaluate_offline(&ctx, Split::Test);
    assert_eq!(
        reference.entity_raw, restored.entity_raw,
        "restored model must reproduce the reference metrics exactly"
    );
    assert_eq!(reference.relation_raw, restored.relation_raw);
}

#[test]
fn checkpoint_rejects_architecture_mismatch() {
    let ds = SyntheticConfig::tiny(501).generate();
    let model = Retia::new(&cfg(), &ds);
    let bytes = model.store().to_bytes();

    // A model with a different dimension cannot load the checkpoint.
    let other_cfg = RetiaConfig { dim: 16, ..cfg() };
    let mut other = Retia::new(&other_cfg, &ds);
    let err = other.store_mut().load_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("shape mismatch"), "{err}");
}

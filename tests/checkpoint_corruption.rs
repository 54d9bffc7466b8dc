//! Checkpoint corruption sweep: **every** truncation offset and **every**
//! single-bit flip of a checkpoint must fail with a typed
//! [`CheckpointError`] — never a panic, never a silently partial load.
//! This is the property the two-layer CRC design (whole-file + per-section)
//! exists to guarantee.

use retia::{Retia, RetiaConfig, TkgContext, Trainer};
use retia_analyze::chaos;
use retia_data::SyntheticConfig;
use retia_tensor::ParamStore;

fn store() -> ParamStore {
    let mut s = ParamStore::new(7);
    s.register_xavier("w1", 5, 3);
    s.register_xavier("emb", 4, 4);
    s.register_xavier("head.b", 1, 3);
    s
}

#[test]
fn every_truncation_offset_is_a_typed_error() {
    let bytes = store().to_bytes();
    for len in 0..bytes.len() {
        let cut = chaos::truncated(&bytes, len);
        let mut dst = store();
        assert!(
            dst.load_bytes(&cut).is_err(),
            "checkpoint truncated to {len}/{} bytes loaded successfully",
            bytes.len()
        );
    }
    // The untruncated original still loads — the sweep tested corruption,
    // not an always-failing loader.
    store().load_bytes(&bytes).unwrap();
}

#[test]
fn every_bit_flip_is_a_typed_error() {
    let bytes = store().to_bytes();
    for bit in 0..bytes.len() * 8 {
        let bad = chaos::bit_flipped(&bytes, bit);
        let mut dst = store();
        assert!(
            dst.load_bytes(&bad).is_err(),
            "checkpoint with bit {bit} flipped loaded successfully"
        );
    }
}

/// The same sweep against a *full train-state* checkpoint (config JSON,
/// params, both Adam moment sections, trainer scalars) — strided, since the
/// container is orders of magnitude larger.
#[test]
fn trainer_checkpoint_corruption_sweep() {
    let ds = SyntheticConfig::tiny(4).generate();
    let ctx = TkgContext::new(&ds);
    let cfg = RetiaConfig {
        dim: 8,
        channels: 4,
        k: 2,
        epochs: 1,
        patience: 0,
        online: false,
        ..Default::default()
    };
    let mut trainer = Trainer::new(Retia::new(&cfg, &ds), cfg);
    trainer.try_fit(&ctx).unwrap();
    let bytes = trainer.to_checkpoint_bytes();

    for len in (0..bytes.len()).step_by(97) {
        let cut = chaos::truncated(&bytes, len);
        assert!(
            Trainer::from_checkpoint_bytes(&cut, &ds).is_err(),
            "train-state checkpoint truncated to {len}/{} bytes loaded",
            bytes.len()
        );
    }
    for bit in (0..bytes.len() * 8).step_by(1009) {
        let bad = chaos::bit_flipped(&bytes, bit);
        assert!(
            Trainer::from_checkpoint_bytes(&bad, &ds).is_err(),
            "train-state checkpoint with bit {bit} flipped loaded"
        );
    }

    // Save → load → save is byte-identical: every field (params, moments,
    // Adam t, seeds, loss history) survives the roundtrip bit-for-bit.
    let restored = Trainer::from_checkpoint_bytes(&bytes, &ds).unwrap();
    assert_eq!(restored.to_checkpoint_bytes(), bytes);
}

/// The same strided sweep against a *model file* (`config` and `params`,
/// what `retia train --out` writes): every damaged copy is a typed error
/// from the one loader that `evaluate`, `predict` and `serve` use.
#[test]
fn model_file_corruption_sweep() {
    let ds = SyntheticConfig::tiny(4).generate();
    let ctx = TkgContext::new(&ds);
    let cfg = RetiaConfig {
        dim: 8,
        channels: 4,
        k: 2,
        epochs: 1,
        patience: 0,
        online: false,
        ..Default::default()
    };
    let mut trainer = Trainer::new(Retia::new(&cfg, &ds), cfg);
    trainer.try_fit(&ctx).unwrap();
    let bytes = trainer.model_bytes();

    for len in (0..bytes.len()).step_by(97) {
        let cut = chaos::truncated(&bytes, len);
        assert!(
            Retia::from_model_bytes(&cut, &ds).is_err(),
            "model file truncated to {len}/{} bytes loaded",
            bytes.len()
        );
    }
    for bit in (0..bytes.len() * 8).step_by(1009) {
        let bad = chaos::bit_flipped(&bytes, bit);
        assert!(
            Retia::from_model_bytes(&bad, &ds).is_err(),
            "model file with bit {bit} flipped loaded"
        );
    }

    // The undamaged file loads the trained values: the sweep tested
    // corruption, not an always-failing loader.
    let loaded = Retia::from_model_bytes(&bytes, &ds).unwrap();
    assert_eq!(loaded.store().to_bytes(), trainer.model.store().to_bytes());
}

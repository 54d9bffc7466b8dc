//! Train → model file → reload → continue online: the deployment loop a
//! production forecasting service would run (train offline once, then keep
//! the model current with online continual updates as new days arrive).
//!
//! ```sh
//! cargo run --release --example train_save_load
//! ```

use retia::{Retia, RetiaConfig, Split, TkgContext, Trainer};
use retia_data::{characterize, SyntheticConfig};

fn main() {
    let ds = SyntheticConfig::tiny(2026).generate();
    let ctx = TkgContext::new(&ds);

    // Characterize the stream first — the numbers that decide whether online
    // training will matter (unseen mass) and whether copy baselines are
    // competitive (repetition).
    let c = characterize(&ds);
    println!(
        "stream: {:.0}% of test facts repeat history, {:.0}% persist from the previous step,\n\
         {:.0}% are never seen in training (the emergent mass online learning captures)\n",
        c.test_repetition_rate * 100.0,
        c.test_persistence_rate * 100.0,
        c.test_unseen_rate * 100.0
    );

    // Phase 1: offline general training.
    let cfg = RetiaConfig {
        dim: 24,
        channels: 8,
        k: 3,
        epochs: 4,
        patience: 0,
        online: false,
        ..Default::default()
    };
    let mut trainer = Trainer::new(Retia::new(&cfg, &ds), cfg);
    println!("phase 1: general training...");
    trainer.fit(&ctx);
    let offline = trainer.evaluate_offline(&ctx, Split::Test);
    println!("  offline test quality: {}", offline.entity_raw);

    // Phase 2: write the model file (config and parameters) to disk.
    let path = std::env::temp_dir().join("retia_demo_model.bin");
    trainer.save_model(&path).expect("save model file");
    println!(
        "phase 2: checkpointed {} parameters to {} ({} KiB)",
        trainer.model.num_parameters(),
        path.display(),
        std::fs::metadata(&path).map(|m| m.len() / 1024).unwrap_or(0)
    );

    // Phase 3: a fresh process loads the model file, which rebuilds the
    // model from its own config, and serves predictions, updating online as
    // each new timestamp's ground truth arrives.
    let serving = Retia::load(&path, &ds).expect("load model file");
    std::fs::remove_file(&path).ok();
    let serving_cfg = RetiaConfig { online: true, online_steps: 3, ..serving.cfg.clone() };
    let mut server = Trainer::new(serving, serving_cfg);
    println!("phase 3: serving with online continual updates...");
    let online = server.evaluate(&ctx, Split::Test);
    println!("  online test quality:  {}", online.entity_raw);

    let delta = (online.entity_raw.mrr() - offline.entity_raw.mrr()) * 100.0;
    println!("\nonline continual training moved entity MRR by {delta:+.3} points");
    println!("(the paper's time-variability strategy, Figure 8; the effect grows");
    println!("with the emergent-event mass and the length of the served stream)");
}

//! Fault-tolerant training, end to end: a killed-and-resumed run is
//! bit-identical to an uninterrupted one, a NaN storm that poisons an
//! unprotected run is survived by the recovery policy (with the exact
//! skip → rollback decision sequence observable in the trace), and
//! corrupted inputs are rejected with locations, not trained on.

use retia::{CheckpointPolicy, RecoveryPolicy, Retia, RetiaConfig, TkgContext, Trainer};
use retia_analyze::{chaos, ChaosPlan};
use retia_data::{DataError, SyntheticConfig};

fn cfg(epochs: usize) -> RetiaConfig {
    RetiaConfig {
        dim: 8,
        channels: 4,
        k: 2,
        epochs,
        patience: 0,
        online: false,
        ..Default::default()
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("retia_ft_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Kill + resume reproduces the exact parameter bytes of a run that was
/// never interrupted — across a simulated crash mid-checkpoint-write and a
/// different thread count after resume (the kernels are bit-identical at
/// any `RETIA_NUM_THREADS`).
#[test]
fn kill_and_resume_is_bit_identical() {
    let ds = SyntheticConfig::tiny(4).generate();
    let ctx = TkgContext::new(&ds);

    // Reference: 4 epochs straight through, single-threaded.
    retia_tensor::parallel::set_num_threads(1);
    let mut reference = Trainer::new(Retia::new(&cfg(4), &ds), cfg(4));
    reference.try_fit(&ctx).unwrap();
    let want = reference.model.store().to_bytes();

    // Interrupted run: 2 epochs with checkpointing...
    let dir = tmp_dir("resume");
    let mut first = Trainer::new(Retia::new(&cfg(2), &ds), cfg(2));
    first.set_checkpointing(Some(CheckpointPolicy::new(&dir)));
    first.try_fit(&ctx).unwrap();

    // ...then the process "dies" while overwriting the latest checkpoint.
    // The atomic-save protocol must leave the existing file untouched.
    let latest = dir.join("ckpt-00002.retia");
    let before = std::fs::read(&latest).unwrap();
    let err = retia_tensor::serialize::atomic_write_with(
        &latest,
        b"half-written garbage that must never land",
        chaos::partial_write(7),
    );
    assert!(err.is_err(), "partial write must surface the injected crash");
    assert_eq!(
        std::fs::read(&latest).unwrap(),
        before,
        "crash mid-write corrupted the previous checkpoint"
    );

    // Resume and finish at a different thread count.
    let mut resumed = Trainer::resume(&dir, &ds).unwrap();
    assert_eq!(resumed.epochs_done(), 2);
    resumed.cfg.epochs = 4;
    retia_tensor::parallel::set_num_threads(4);
    resumed.try_fit(&ctx).unwrap();

    assert_eq!(
        resumed.model.store().to_bytes(),
        want,
        "kill + resume must be bit-identical to an uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The same gradient-NaN storm that poisons an unprotected run is survived
/// under a `RecoveryPolicy`: the optimizer skips the bad steps, rolls back
/// once, and training still converges — with the decision sequence
/// asserted from the observability trace.
#[test]
fn nan_storm_poisons_unprotected_run_but_recovery_converges() {
    let ds = SyntheticConfig::tiny(4).generate();
    let ctx = TkgContext::new(&ds);
    let storm = ChaosPlan::parse("grad-nan@4-6").unwrap();

    // A: no recovery — the poison reaches the parameters.
    let mut unprotected = Trainer::new(Retia::new(&cfg(2), &ds), cfg(2));
    unprotected.set_chaos(storm.clone());
    unprotected.try_fit(&ctx).unwrap();
    let poisoned = unprotected
        .model
        .store()
        .iter()
        .any(|(_, t)| retia_obs::watchdog::count_non_finite(t.data()) > 0);
    assert!(poisoned, "chaos storm failed to poison the unprotected run");

    // B: identical run + recovery — skips, one rollback, finite convergence.
    let (sink, handle) = retia_obs::CaptureSink::new();
    let id = retia_obs::add_sink(Box::new(sink));
    let me = retia_obs::current_thread();

    let mut protected = Trainer::new(Retia::new(&cfg(2), &ds), cfg(2));
    protected.set_recovery(Some(RecoveryPolicy::default()));
    protected.set_chaos(storm);
    let hist = protected.try_fit(&ctx).unwrap();
    retia_obs::remove_sink(id);

    let names: Vec<String> = handle
        .events()
        .into_iter()
        .filter(|e| e.thread == me && e.name.starts_with("recovery."))
        .map(|e| e.name)
        .collect();
    assert_eq!(
        names,
        ["recovery.skip", "recovery.skip", "recovery.skip", "recovery.rollback"],
        "recovery decisions out of order"
    );
    for (name, t) in protected.model.store().iter() {
        assert_eq!(
            retia_obs::watchdog::count_non_finite(t.data()),
            0,
            "parameter `{name}` poisoned despite recovery"
        );
    }
    assert!(hist.iter().all(|l| l.joint.is_finite()), "epoch losses not finite: {hist:?}");
    assert!(
        hist.last().unwrap().joint <= hist[0].joint * 1.2,
        "recovered run failed to converge: {hist:?}"
    );
}

/// A corrupted dataset cell is rejected at load time with the file and
/// 1-based line number — never silently trained on.
#[test]
fn corrupted_dataset_row_is_rejected_with_location() {
    let ds = SyntheticConfig::tiny(7).generate();
    let dir = tmp_dir("data");
    retia_data::save_dataset(&dir, &ds).unwrap();

    let train = dir.join("train.txt");
    let text = std::fs::read_to_string(&train).unwrap();
    // Garbage into the timestamp cell of (zero-based) line 2.
    let corrupted = chaos::corrupt_tsv_field(&text, 2, 3, "NOT_A_TIMESTAMP");
    assert_ne!(corrupted, text, "corruption helper missed its target");
    std::fs::write(&train, corrupted).unwrap();

    let err = retia_data::load_dataset(&dir).unwrap_err();
    match &err {
        DataError::Row { path, line, problem } => {
            assert!(path.ends_with("train.txt"), "{}", path.display());
            assert_eq!(*line, 3, "line numbers are 1-based");
            assert!(problem.contains("timestamp"), "{problem}");
        }
        other => panic!("expected a Row error, got {other:?}"),
    }
    assert!(err.to_string().contains(":3:"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

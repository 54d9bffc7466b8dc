//! Model files and full train-state checkpointing: periodic atomic saves
//! during `fit`, rotation with a best-checkpoint pin, and crash-consistent
//! resume.
//!
//! Both are v2 containers (see [`retia_tensor::serialize`]). A **model
//! file** holds the first two sections below; a **train-state checkpoint**
//! adds the rest, so it is a model file too:
//!
//! | section   | payload                                                  |
//! |-----------|----------------------------------------------------------|
//! | `config`  | the [`RetiaConfig`] as JSON — a file rebuilds its own model |
//! | `params`  | parameter values (named-tensor codec)                    |
//! | `opt.m`   | Adam first-moment estimates                              |
//! | `opt.v`   | Adam second-moment estimates                             |
//! | `trainer` | binary trainer state v1 (steps, seeds, schedule, history)|
//! | `best`    | best-validation parameter values (only when tracked)     |
//!
//! `retia train --out` writes a model file ([`Trainer::save_model`]);
//! [`Retia::load`] reads either kind and decodes only `config` and `params`.
//!
//! Everything a resumed run needs to be **bit-identical** to an
//! uninterrupted one is captured: the Adam step count `t` (bias
//! correction), the per-step RNG seed, the global step counter, epoch
//! progress and the early-stopping state. Combined with the deterministic
//! kernels (results identical at any `RETIA_NUM_THREADS`), kill + resume
//! reproduces the exact parameter bytes of a run that was never killed.
//!
//! A checkpoint directory holds `ckpt-{epoch:05}.retia` files plus a
//! `manifest.json` naming the latest and best checkpoints; rotation keeps
//! the last `keep` files *and* the best one. All writes are atomic
//! (temp + fsync + rename), so a crash at any instant leaves the directory
//! resumable.

use std::path::{Path, PathBuf};

use retia_data::TkgDataset;
use retia_tensor::serialize::{
    atomic_write, read_container, require_section, write_container, Reader,
};
use retia_tensor::{CheckpointError, ParamStore};

use crate::config::RetiaConfig;
use crate::model::Retia;
use crate::trainer::{EpochLoss, TrainError, Trainer};

/// Version stamp of the `trainer` section payload.
const TRAINER_STATE_VERSION: u32 = 1;

/// When and where `fit` persists full train state.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Directory for `ckpt-*.retia` files and `manifest.json`.
    pub dir: PathBuf,
    /// Save every N completed epochs (a final/early-stop save always
    /// happens regardless).
    pub every_epochs: usize,
    /// Checkpoints retained by rotation, newest first. The best-validation
    /// checkpoint is pinned and never rotated out.
    pub keep: usize,
}

impl CheckpointPolicy {
    /// Policy with the default cadence: every epoch, keep the last 3
    /// (plus the best).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointPolicy { dir: dir.into(), every_epochs: 1, keep: 3 }
    }

    /// Whether a save is due after `epochs_done` completed epochs.
    pub(crate) fn due(&self, epochs_done: usize) -> bool {
        self.every_epochs > 0 && epochs_done > 0 && epochs_done.is_multiple_of(self.every_epochs)
    }
}

/// One manifest row.
#[derive(Clone, Debug)]
struct ManifestEntry {
    file: String,
    epoch: usize,
    step: u64,
    valid_mrr: Option<f64>,
}

/// `manifest.json`: the order of checkpoints and which one is best.
#[derive(Clone, Debug, Default)]
struct Manifest {
    entries: Vec<ManifestEntry>,
}

impl Manifest {
    fn latest(&self) -> Option<&ManifestEntry> {
        self.entries.last()
    }

    /// The entry with the highest validation MRR, falling back to the
    /// latest when no entry has one (patience-free runs).
    fn best(&self) -> Option<&ManifestEntry> {
        self.entries
            .iter()
            .filter(|e| e.valid_mrr.is_some())
            .max_by(|a, b| {
                a.valid_mrr.partial_cmp(&b.valid_mrr).unwrap_or(std::cmp::Ordering::Equal)
            })
            .or_else(|| self.latest())
    }

    fn to_json(&self) -> String {
        let mut root = retia_json::Value::object();
        if let Some(e) = self.latest() {
            root.insert("latest", retia_json::Value::String(e.file.clone()));
        }
        if let Some(e) = self.best() {
            root.insert("best", retia_json::Value::String(e.file.clone()));
        }
        let rows = self
            .entries
            .iter()
            .map(|e| {
                let mut row = retia_json::Value::object();
                row.insert("file", retia_json::Value::String(e.file.clone()));
                row.insert("epoch", retia_json::Value::Number(e.epoch as f64));
                row.insert("step", retia_json::Value::Number(e.step as f64));
                match e.valid_mrr {
                    Some(mrr) => row.insert("valid_mrr", retia_json::Value::Number(mrr)),
                    None => row.insert("valid_mrr", retia_json::Value::Null),
                };
                row
            })
            .collect();
        root.insert("entries", retia_json::Value::Array(rows));
        root.to_string_pretty()
    }

    /// Parses `manifest.json`; errors name the file, not its directory.
    fn from_json(text: &str) -> Result<Manifest, TrainError> {
        let invalid =
            |what: &str| TrainError::Invalid(format!("manifest.json: invalid manifest: {what}"));
        let root = retia_json::parse(text)
            .map_err(|e| TrainError::Invalid(format!("manifest.json: {e}")))?;
        let rows = root
            .get("entries")
            .and_then(|v| v.as_array())
            .ok_or_else(|| invalid("missing `entries` array"))?;
        let mut entries = Vec::with_capacity(rows.len());
        for row in rows {
            entries.push(ManifestEntry {
                file: row
                    .get("file")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| invalid("entry missing `file`"))?
                    .to_string(),
                epoch: row
                    .get("epoch")
                    .and_then(|v| v.as_usize())
                    .ok_or_else(|| invalid("entry missing `epoch`"))?,
                step: row
                    .get("step")
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| invalid("entry missing `step`"))?,
                valid_mrr: row.get("valid_mrr").and_then(|v| v.as_f64()),
            });
        }
        Ok(Manifest { entries })
    }

    fn load(dir: &Path) -> Result<Option<Manifest>, TrainError> {
        match std::fs::read_to_string(dir.join("manifest.json")) {
            Ok(text) => Ok(Some(Manifest::from_json(&text)?)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(TrainError::Checkpoint(CheckpointError::Io(e))),
        }
    }

    fn save(&self, dir: &Path) -> Result<(), TrainError> {
        atomic_write(&dir.join("manifest.json"), self.to_json().as_bytes())?;
        Ok(())
    }
}

/// The model file's encoder: the `config` and `params` sections, which
/// also open every train-state checkpoint.
fn model_sections(cfg: &RetiaConfig, store: &ParamStore) -> Vec<(&'static str, Vec<u8>)> {
    vec![("config", cfg.to_json().into_bytes()), ("params", store.values_payload())]
}

/// The model file's decoder: builds the model that the `config` and
/// `params` sections of a read container describe. A config that fails
/// [`RetiaConfig::validate`] is an error naming the field, never a panic.
/// The model registers the decoded tensors themselves, so a load holds one
/// copy of the parameters beside the file's bytes, and draws no initial
/// values; a count, name or shape mismatch is an error naming the
/// parameter, and no model is returned.
fn model_from_sections(sections: &[(String, &[u8])], ds: &TkgDataset) -> Result<Retia, TrainError> {
    let text = std::str::from_utf8(require_section(sections, "config")?)
        .map_err(|_| CheckpointError::Corrupt("non-utf8 config section".into()))?;
    let cfg = RetiaConfig::from_json(text)
        .and_then(|cfg| cfg.validate().map(|()| cfg))
        .map_err(|e| TrainError::Invalid(format!("invalid config section: {e}")))?;
    let store = ParamStore::loading(cfg.seed, require_section(sections, "params")?)?;
    let mut model = Retia::with_store(&cfg, ds.num_entities, ds.num_relations, store);
    model.store_mut().finish_loading()?;
    Ok(model)
}

impl Retia {
    /// Reads a model file — what `retia train --out` writes, or any
    /// train-state checkpoint — and builds its model for `ds`. Only the
    /// `config` and `params` sections are decoded.
    pub fn load(path: &Path, ds: &TkgDataset) -> Result<Retia, TrainError> {
        Retia::from_model_bytes(&std::fs::read(path).map_err(CheckpointError::Io)?, ds)
    }

    /// [`Retia::load`] over the file's bytes.
    pub fn from_model_bytes(bytes: &[u8], ds: &TkgDataset) -> Result<Retia, TrainError> {
        model_from_sections(&read_container(bytes)?, ds)
    }
}

impl Trainer {
    /// The model file of this run: its config and the model's parameter
    /// values, the first two sections of [`Trainer::to_checkpoint_bytes`].
    pub fn model_bytes(&self) -> Vec<u8> {
        write_container(&model_sections(&self.cfg, self.model.store()))
    }

    /// Writes [`Trainer::model_bytes`] atomically to `path` (what
    /// `retia train --out` writes; [`Retia::load`] reads it back).
    pub fn save_model(&self, path: &Path) -> Result<(), CheckpointError> {
        atomic_write(path, &self.model_bytes())
    }

    /// Serializes the complete train state (model, optimizer, schedule,
    /// early-stopping bookkeeping) as a v2 checkpoint container: the model
    /// file's sections, then the train-state ones.
    pub fn to_checkpoint_bytes(&self) -> Vec<u8> {
        let store = self.model.store();
        let (m, v) = store.moments_payloads();
        let mut sections = model_sections(&self.cfg, store);
        sections.extend([("opt.m", m), ("opt.v", v), ("trainer", self.trainer_state_payload())]);
        if let Some(best) = &self.best_params {
            sections.push(("best", best.values_payload()));
        }
        write_container(&sections)
    }

    /// Encodes the scalar trainer state (`trainer` section, v1).
    fn trainer_state_payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&TRAINER_STATE_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.opt.steps().to_le_bytes());
        buf.extend_from_slice(&self.opt.lr.to_le_bytes());
        buf.extend_from_slice(&self.steps.to_le_bytes());
        buf.extend_from_slice(&self.step_seed.to_le_bytes());
        buf.extend_from_slice(&(self.epochs_done as u64).to_le_bytes());
        buf.extend_from_slice(&(self.bad_epochs as u64).to_le_bytes());
        buf.extend_from_slice(&self.best_mrr.to_bits().to_le_bytes());
        buf.push(self.best_params.is_some() as u8);
        buf.push(self.last_valid_mrr.is_some() as u8);
        buf.extend_from_slice(&self.last_valid_mrr.unwrap_or(0.0).to_bits().to_le_bytes());
        buf.extend_from_slice(&(self.loss_history.len() as u32).to_le_bytes());
        for l in &self.loss_history {
            buf.extend_from_slice(&l.entity.to_bits().to_le_bytes());
            buf.extend_from_slice(&l.relation.to_bits().to_le_bytes());
            buf.extend_from_slice(&l.joint.to_bits().to_le_bytes());
        }
        buf
    }

    /// Restores scalar trainer state from a `trainer` section payload.
    /// Returns whether the checkpoint tracked best-validation parameters
    /// (i.e. a `best` section must be present).
    fn apply_trainer_state(&mut self, payload: &[u8]) -> Result<bool, CheckpointError> {
        let mut r = Reader::new(payload);
        let version = r.get_u32_le("trainer state version")?;
        if version != TRAINER_STATE_VERSION {
            return Err(CheckpointError::Corrupt(format!(
                "unsupported trainer state version {version} \
                 (this build reads version {TRAINER_STATE_VERSION})"
            )));
        }
        let adam_t = r.get_u64_le("adam step count")?;
        let lr = r.get_f32_le("learning rate")?;
        let steps = r.get_u64_le("global step count")?;
        let step_seed = r.get_u64_le("step seed")?;
        let epochs_done = r.get_u64_le("epochs done")?;
        let bad_epochs = r.get_u64_le("bad epochs")?;
        let best_mrr = r.get_f64_le("best validation MRR")?;
        let has_best = r.get_u8("best-params flag")? != 0;
        let has_last_valid = r.get_u8("last-valid-MRR flag")? != 0;
        let last_valid = r.get_f64_le("last validation MRR")?;
        let count = r.get_u32_le("loss history length")? as usize;
        let mut history = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            history.push(EpochLoss {
                entity: r.get_f64_le("epoch entity loss")?,
                relation: r.get_f64_le("epoch relation loss")?,
                joint: r.get_f64_le("epoch joint loss")?,
            });
        }
        r.finish("trainer state")?;

        self.opt.set_steps(adam_t);
        self.opt.lr = lr;
        self.steps = steps;
        self.step_seed = step_seed;
        self.epochs_done = epochs_done as usize;
        self.bad_epochs = bad_epochs as usize;
        self.best_mrr = best_mrr;
        self.last_valid_mrr = has_last_valid.then_some(last_valid);
        self.loss_history = history;
        Ok(has_best)
    }

    /// Writes a full train-state checkpoint atomically to `path`.
    pub fn save_checkpoint(&self, path: &Path) -> Result<(), TrainError> {
        atomic_write(path, &self.to_checkpoint_bytes())?;
        Ok(())
    }

    /// Saves `ckpt-{epoch:05}.retia` into the policy directory, updates
    /// `manifest.json`, and rotates old checkpoints (keeping the last
    /// `policy.keep` plus the best-validation one).
    pub(crate) fn save_rotating(&mut self, policy: &CheckpointPolicy) -> Result<(), TrainError> {
        std::fs::create_dir_all(&policy.dir)
            .map_err(|e| TrainError::Checkpoint(CheckpointError::Io(e)))?;
        let file = format!("ckpt-{:05}.retia", self.epochs_done);
        self.save_checkpoint(&policy.dir.join(&file))?;

        let mut manifest = Manifest::load(&policy.dir)?.unwrap_or_default();
        manifest.entries.retain(|e| e.file != file);
        manifest.entries.push(ManifestEntry {
            file: file.clone(),
            epoch: self.epochs_done,
            step: self.steps,
            valid_mrr: self.last_valid_mrr,
        });

        // Rotation: last `keep` entries stay, plus the best one (pinned).
        let keep_from = manifest.entries.len().saturating_sub(policy.keep.max(1));
        let pinned: Option<String> = manifest.best().map(|e| e.file.clone());
        let mut dropped = Vec::new();
        let mut kept = Vec::new();
        for (i, e) in manifest.entries.iter().cloned().enumerate() {
            if i < keep_from && Some(&e.file) != pinned.as_ref() {
                dropped.push(e);
            } else {
                kept.push(e);
            }
        }
        manifest.entries = kept;
        manifest.save(&policy.dir)?;
        // Delete rotated-out files only after the manifest no longer names
        // them; a failed delete leaves garbage, never a dangling reference.
        for e in &dropped {
            let _ = std::fs::remove_file(policy.dir.join(&e.file));
        }
        retia_obs::event!(
            retia_obs::Level::Info,
            "checkpoint.saved",
            epoch = self.epochs_done,
            step = self.steps;
            format!("checkpoint `{file}` written ({} retained)", manifest.entries.len())
        );
        Ok(())
    }

    /// Rebuilds a trainer from the newest checkpoint in `dir` that decodes,
    /// ready for `try_fit` to continue from the next epoch — bit-identically
    /// to a run that was never interrupted — and names the file it resumed
    /// from. The manifest's entries are tried newest first; each one that
    /// fails to read or decode is skipped with a `checkpoint.skipped`
    /// warning naming the file and its error. The dataset must be the one
    /// the original run trained on. When no entry decodes, the newest
    /// entry's error comes back as it is ([`TrainError::Checkpoint`] for a
    /// CRC or shape mismatch or a missing section, [`TrainError::Invalid`]
    /// for an invalid config), and no message names `dir`: the caller
    /// prefixes it.
    pub fn resume(dir: &Path, ds: &TkgDataset) -> Result<(Trainer, String), TrainError> {
        let manifest = Manifest::load(dir)?.ok_or_else(|| {
            TrainError::Invalid("no manifest.json — not a checkpoint directory".into())
        })?;
        let mut newest_error = None;
        for entry in manifest.entries.iter().rev() {
            let decoded = std::fs::read(dir.join(&entry.file))
                .map_err(|e| TrainError::Checkpoint(CheckpointError::Io(e)))
                .and_then(|bytes| Trainer::from_checkpoint_bytes(&bytes, ds));
            match decoded {
                Ok(trainer) => return Ok((trainer, entry.file.clone())),
                Err(e) => {
                    retia_obs::event!(
                        retia_obs::Level::Warn,
                        "checkpoint.skipped",
                        epoch = entry.epoch;
                        format!("skipping checkpoint `{}`: {e}", entry.file)
                    );
                    newest_error.get_or_insert(e);
                }
            }
        }
        Err(newest_error
            .unwrap_or_else(|| TrainError::Invalid("manifest lists no checkpoints".into())))
    }

    /// Rebuilds a trainer from checkpoint bytes: the model through the
    /// model file's decoder, then the train-state sections.
    pub fn from_checkpoint_bytes(bytes: &[u8], ds: &TkgDataset) -> Result<Trainer, TrainError> {
        let sections = read_container(bytes)?;
        let model = model_from_sections(&sections, ds)?;
        let cfg = model.cfg.clone();
        let mut trainer = Trainer::new(model, cfg);
        let m = require_section(&sections, "opt.m")?;
        let v = require_section(&sections, "opt.v")?;
        trainer.model.store_mut().load_moments_payloads(m, v)?;
        let has_best = trainer.apply_trainer_state(require_section(&sections, "trainer")?)?;
        if has_best {
            let mut best = trainer.model.store().values_only();
            best.load_values_payload(require_section(&sections, "best")?)?;
            trainer.best_params = Some(best);
        }
        Ok(trainer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TkgContext;
    use retia_data::SyntheticConfig;

    fn setup(epochs: usize) -> (Trainer, TkgContext, TkgDataset) {
        let ds = SyntheticConfig::tiny(4).generate();
        let ctx = TkgContext::new(&ds);
        let cfg = RetiaConfig {
            dim: 8,
            channels: 4,
            k: 2,
            epochs,
            patience: 0,
            online: false,
            ..Default::default()
        };
        let model = Retia::new(&cfg, &ds);
        (Trainer::new(model, cfg), ctx, ds)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("retia_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checkpoint_bytes_roundtrip_full_state() {
        let (mut trainer, ctx, ds) = setup(1);
        trainer.try_fit(&ctx).unwrap();
        let bytes = trainer.to_checkpoint_bytes();
        let restored = Trainer::from_checkpoint_bytes(&bytes, &ds).unwrap();
        assert_eq!(restored.steps(), trainer.steps());
        assert_eq!(restored.epochs_done(), trainer.epochs_done());
        assert_eq!(restored.loss_history, trainer.loss_history);
        // Bit-identical params, moments and schedule → byte-identical
        // re-serialization.
        assert_eq!(restored.to_checkpoint_bytes(), bytes);
    }

    /// Replaces the `config` section of a container, keeping every other
    /// section and writing valid CRCs.
    fn with_config(bytes: &[u8], config: &RetiaConfig) -> Vec<u8> {
        let json = config.to_json().into_bytes();
        let sections = read_container(bytes).unwrap();
        let patched: Vec<(&str, Vec<u8>)> = sections
            .iter()
            .map(|(name, p)| {
                (name.as_str(), if name == "config" { json.clone() } else { p.to_vec() })
            })
            .collect();
        write_container(&patched)
    }

    /// One stored config per `RetiaConfig::validate` rule, each breaking it.
    fn invalid_configs(cfg: &RetiaConfig) -> Vec<(RetiaConfig, &'static str)> {
        vec![
            (RetiaConfig { k: 0, ..cfg.clone() }, "k must be positive"),
            (RetiaConfig { dim: 0, ..cfg.clone() }, "dim must be positive"),
            (RetiaConfig { lambda: 3.0, ..cfg.clone() }, "lambda must be in [0, 1]"),
            (RetiaConfig { num_bases: 0, ..cfg.clone() }, "num_bases must be positive"),
            (RetiaConfig { rgcn_layers: 0, ..cfg.clone() }, "rgcn_layers must be positive"),
            (RetiaConfig { dropout: 1.5, ..cfg.clone() }, "dropout must be in [0, 1)"),
        ]
    }

    #[test]
    fn model_loader_rejects_an_invalid_config_naming_the_field() {
        let (trainer, _, ds) = setup(1);
        let bytes = trainer.model_bytes();
        for (bad, field) in invalid_configs(&trainer.cfg) {
            let err = match Retia::from_model_bytes(&with_config(&bytes, &bad), &ds) {
                Err(e) => e,
                Ok(_) => panic!("a model file whose config breaks `{field}` loaded"),
            };
            assert!(matches!(err, TrainError::Invalid(_)), "{err:?}");
            assert!(err.to_string().contains(field), "{err}");
        }
    }

    #[test]
    fn checkpoint_loader_rejects_an_invalid_config_naming_the_field() {
        let (trainer, _, ds) = setup(1);
        let bytes = trainer.to_checkpoint_bytes();
        let bad = RetiaConfig { k: 0, ..trainer.cfg.clone() };
        let err = match Trainer::from_checkpoint_bytes(&with_config(&bytes, &bad), &ds) {
            Err(e) => e,
            Ok(_) => panic!("a checkpoint whose config sets k = 0 loaded"),
        };
        assert!(matches!(err, TrainError::Invalid(_)), "{err:?}");
        assert!(err.to_string().contains("k must be positive"), "{err}");
    }

    /// A model file and a train-state checkpoint of one run load to the
    /// same model, bit for bit; a container with only `params` (no config
    /// to build the model from) is refused.
    #[test]
    fn model_file_and_checkpoint_load_the_same_model() {
        let (mut trainer, ctx, ds) = setup(1);
        trainer.try_fit(&ctx).unwrap();
        let bits =
            |t: &retia_tensor::Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let idx = ctx.test_idx[0];
        let (history, hypers) = ctx.history(idx, trainer.cfg.k);
        let (subjects, rels, _) = crate::entity_queries(&ctx.snapshots[idx], ctx.num_relations);
        let decode = |m: &Retia| {
            let states = m.evolve_window(history, hypers);
            bits(&m.decode_entity(&states, subjects.clone(), rels.clone()))
        };
        let reference = decode(&trainer.model);
        for bytes in [trainer.model_bytes(), trainer.to_checkpoint_bytes()] {
            let loaded = Retia::from_model_bytes(&bytes, &ds).unwrap();
            assert_eq!(loaded.cfg, trainer.cfg);
            for ((name, a), (_, b)) in trainer.model.store().iter().zip(loaded.store().iter()) {
                assert_eq!(bits(a), bits(b), "param `{name}` diverged");
            }
            assert_eq!(decode(&loaded), reference, "decode_entity diverged");
        }
        let params_only = trainer.model.store().to_bytes();
        let err = match Retia::from_model_bytes(&params_only, &ds) {
            Err(e) => e,
            Ok(_) => panic!("a params-only container loaded as a model file"),
        };
        assert!(
            matches!(&err, TrainError::Checkpoint(CheckpointError::MissingSection { section })
                if section == "config"),
            "{err:?}"
        );
    }

    #[test]
    fn resume_continues_from_completed_epochs() {
        let (mut trainer, ctx, ds) = setup(3);
        let dir = tmp_dir("resume");
        trainer.cfg.epochs = 2;
        trainer.set_checkpointing(Some(CheckpointPolicy::new(&dir)));
        trainer.try_fit(&ctx).unwrap();
        assert_eq!(trainer.epochs_done(), 2);

        let mut resumed = Trainer::resume(&dir, &ds).unwrap().0;
        assert_eq!(resumed.epochs_done(), 2);
        resumed.cfg.epochs = 3;
        resumed.try_fit(&ctx).unwrap();
        assert_eq!(resumed.epochs_done(), 3);
        assert_eq!(resumed.loss_history.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_keeps_last_k_plus_best() {
        let (mut trainer, ctx, _ds) = setup(6);
        let dir = tmp_dir("rotate");
        let mut policy = CheckpointPolicy::new(&dir);
        policy.keep = 2;
        trainer.set_checkpointing(Some(policy));
        // Pretend epoch 1 had the best validation MRR, then let later
        // epochs roll past the keep window.
        trainer.try_fit(&ctx).unwrap();
        let manifest = Manifest::load(&dir).unwrap().unwrap();
        assert!(manifest.entries.len() <= 3, "{:?}", manifest.entries);
        // Every retained entry's file exists; nothing else remains.
        let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("ckpt-"))
            .collect();
        on_disk.sort();
        let mut named: Vec<String> = manifest.entries.iter().map(|e| e.file.clone()).collect();
        named.sort();
        assert_eq!(on_disk, named);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_from_empty_dir_is_typed_error() {
        let dir = tmp_dir("empty");
        let ds = SyntheticConfig::tiny(4).generate();
        let err = match Trainer::resume(&dir, &ds) {
            Err(e) => e,
            Ok(_) => panic!("resume from an empty dir must fail"),
        };
        assert!(matches!(err, TrainError::Invalid(_)), "{err:?}");
        assert!(err.to_string().contains("manifest"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_file_is_typed_error() {
        let (mut trainer, ctx, ds) = setup(1);
        let dir = tmp_dir("corrupt");
        trainer.set_checkpointing(Some(CheckpointPolicy::new(&dir)));
        trainer.try_fit(&ctx).unwrap();
        let file = dir.join("ckpt-00001.retia");
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&file, &bytes).unwrap();
        let err = match Trainer::resume(&dir, &ds) {
            Err(e) => e,
            Ok(_) => panic!("resume from a corrupt checkpoint must fail"),
        };
        assert!(err.to_string().contains("CRC") || err.to_string().contains("corrupt"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_returns_the_decoder_error_typed() {
        let (mut trainer, ctx, ds) = setup(1);
        let dir = tmp_dir("typed");
        trainer.set_checkpointing(Some(CheckpointPolicy::new(&dir)));
        trainer.try_fit(&ctx).unwrap();
        let file = dir.join("ckpt-00001.retia");
        let mut bytes = std::fs::read(&file).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&file, &bytes).unwrap();
        let err = match Trainer::resume(&dir, &ds) {
            Err(e) => e,
            Ok(_) => panic!("resume from a bit-flipped checkpoint must fail"),
        };
        assert!(
            matches!(err, TrainError::Checkpoint(CheckpointError::CrcMismatch { .. })),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A flipped byte in the newest of three rotated checkpoints: resume
    /// skips it and continues from the one before, naming that file.
    #[test]
    fn resume_falls_back_to_the_newest_checkpoint_that_decodes() {
        let (mut trainer, ctx, ds) = setup(3);
        let dir = tmp_dir("fallback");
        trainer.set_checkpointing(Some(CheckpointPolicy::new(&dir)));
        trainer.try_fit(&ctx).unwrap();
        let file = dir.join("ckpt-00003.retia");
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&file, &bytes).unwrap();

        let (resumed, from) = Trainer::resume(&dir, &ds).unwrap();
        assert_eq!(from, "ckpt-00002.retia");
        assert_eq!(resumed.epochs_done(), 2);
        let want = std::fs::read(dir.join("ckpt-00002.retia")).unwrap();
        assert_eq!(resumed.to_checkpoint_bytes(), want, "resumed state differs from ckpt-00002");
        std::fs::remove_dir_all(&dir).ok();
    }
}

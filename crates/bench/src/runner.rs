//! Cached experiment runner: each (dataset, variant) pair trains at most
//! once per [`Settings`]; results live in `results/cache/*.json`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use retia::Split;
use retia_data::DatasetProfile;
use retia_eval::Metrics;
use retia_json::Value;

use crate::variants::{dataset_context, Variant};

/// Harness-wide knobs. `RETIA_FAST=1` switches to a smoke configuration,
/// `RETIA_EPOCHS=n` overrides the recurrent-model epoch count,
/// `RETIA_REFRESH=1` ignores the cache.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Embedding width for every model.
    pub dim: usize,
    /// Conv-TransE kernels.
    pub channels: usize,
    /// Epochs for the recurrent (RETIA-family) models.
    pub epochs: usize,
    /// Epochs for the static/interpolation baselines.
    pub static_epochs: usize,
    /// Ignore cached results.
    pub refresh: bool,
}

impl Default for Settings {
    fn default() -> Self {
        Settings { dim: 32, channels: 16, epochs: 4, static_epochs: 12, refresh: false }
    }
}

impl Settings {
    /// Reads the environment overrides.
    pub fn from_env() -> Self {
        let mut s = Settings::default();
        if std::env::var("RETIA_FAST").map(|v| v == "1").unwrap_or(false) {
            s.epochs = 2;
            s.static_epochs = 4;
        }
        if let Ok(e) = std::env::var("RETIA_EPOCHS") {
            if let Ok(n) = e.parse() {
                s.epochs = n;
            }
        }
        if std::env::var("RETIA_REFRESH").map(|v| v == "1").unwrap_or(false) {
            s.refresh = true;
        }
        s
    }

    /// The settings a result depends on, as one line: a cache file written
    /// under other settings, or under none, is a miss.
    pub fn cache_key(&self) -> String {
        let Settings { dim, channels, epochs, static_epochs, refresh: _ } = self;
        format!("dim {dim}, channels {channels}, epochs {epochs}, static_epochs {static_epochs}")
    }
}

/// Serializable snapshot of a [`Metrics`] accumulator (percent scale).
#[derive(Clone, Copy, Debug, Default)]
pub struct BenchMetrics {
    /// Mean reciprocal rank × 100.
    pub mrr: f64,
    /// Hits@1 × 100.
    pub h1: f64,
    /// Hits@3 × 100.
    pub h3: f64,
    /// Hits@10 × 100.
    pub h10: f64,
    /// Query count.
    pub count: usize,
}

impl From<Metrics> for BenchMetrics {
    fn from(m: Metrics) -> Self {
        let (mrr, h1, h3, h10) = m.as_percentages();
        BenchMetrics { mrr, h1, h3, h10, count: m.count() }
    }
}

/// One cached experiment outcome.
#[derive(Clone, Debug)]
pub struct ExpResult {
    /// Dataset profile name.
    pub dataset: String,
    /// Variant id.
    pub variant: String,
    /// The [`Settings::cache_key`] it was produced under.
    pub settings: String,
    /// Entity forecasting, raw setting.
    pub entity_raw: BenchMetrics,
    /// Entity forecasting, time-aware filtered setting.
    pub entity_filtered: BenchMetrics,
    /// Relation forecasting, raw setting.
    pub relation_raw: BenchMetrics,
    /// Relation forecasting, time-aware filtered setting.
    pub relation_filtered: BenchMetrics,
    /// Training wall-clock (seconds).
    pub fit_secs: f64,
    /// Test-set evaluation wall-clock (seconds; includes online updates for
    /// online models, as the paper's Table VIII does).
    pub eval_secs: f64,
    /// Per-epoch `(entity, relation, joint)` training losses.
    pub loss_history: Vec<(f64, f64, f64)>,
}

impl BenchMetrics {
    fn to_value(self) -> Value {
        let mut o = Value::object();
        o.insert("mrr", Value::from(self.mrr));
        o.insert("h1", Value::from(self.h1));
        o.insert("h3", Value::from(self.h3));
        o.insert("h10", Value::from(self.h10));
        o.insert("count", Value::from(self.count));
        o
    }

    fn from_value(v: &Value) -> Option<BenchMetrics> {
        Some(BenchMetrics {
            mrr: v.get("mrr")?.as_f64()?,
            h1: v.get("h1")?.as_f64()?,
            h3: v.get("h3")?.as_f64()?,
            h10: v.get("h10")?.as_f64()?,
            count: v.get("count")?.as_usize()?,
        })
    }
}

impl ExpResult {
    /// Pretty JSON for the `results/cache` files.
    pub fn to_json(&self) -> String {
        let mut o = Value::object();
        o.insert("dataset", Value::from(self.dataset.as_str()));
        o.insert("variant", Value::from(self.variant.as_str()));
        o.insert("settings", Value::from(self.settings.as_str()));
        o.insert("entity_raw", self.entity_raw.to_value());
        o.insert("entity_filtered", self.entity_filtered.to_value());
        o.insert("relation_raw", self.relation_raw.to_value());
        o.insert("relation_filtered", self.relation_filtered.to_value());
        o.insert("fit_secs", Value::from(self.fit_secs));
        o.insert("eval_secs", Value::from(self.eval_secs));
        o.insert(
            "loss_history",
            Value::Array(
                self.loss_history.iter().map(|&(e, r, j)| Value::from(vec![e, r, j])).collect(),
            ),
        );
        o.to_string_pretty()
    }

    /// Parses a cache file; `None` on any structural mismatch (the caller
    /// treats that as a cache miss and reruns the experiment).
    pub fn from_json(text: &str) -> Option<ExpResult> {
        let doc = retia_json::parse(text).ok()?;
        let mut loss_history = Vec::new();
        for row in doc.get("loss_history")?.as_array()? {
            let row = row.as_array()?;
            if row.len() != 3 {
                return None;
            }
            loss_history.push((row[0].as_f64()?, row[1].as_f64()?, row[2].as_f64()?));
        }
        Some(ExpResult {
            dataset: doc.get("dataset")?.as_str()?.to_string(),
            variant: doc.get("variant")?.as_str()?.to_string(),
            settings: doc.get("settings")?.as_str()?.to_string(),
            entity_raw: BenchMetrics::from_value(doc.get("entity_raw")?)?,
            entity_filtered: BenchMetrics::from_value(doc.get("entity_filtered")?)?,
            relation_raw: BenchMetrics::from_value(doc.get("relation_raw")?)?,
            relation_filtered: BenchMetrics::from_value(doc.get("relation_filtered")?)?,
            fit_secs: doc.get("fit_secs")?.as_f64()?,
            eval_secs: doc.get("eval_secs")?.as_f64()?,
            loss_history,
        })
    }
}

fn cache_path(dir: &Path, profile: DatasetProfile, variant: Variant) -> PathBuf {
    dir.join(format!("{}_{}.json", profile.name(), variant.id()))
}

/// The result cached at `path`, if it parses and was written under
/// `settings`.
fn cached(path: &Path, settings: &Settings) -> Option<ExpResult> {
    let result = ExpResult::from_json(&std::fs::read_to_string(path).ok()?)?;
    (result.settings == settings.cache_key()).then_some(result)
}

/// Runs (or loads) one experiment.
pub fn run_experiment(profile: DatasetProfile, variant: Variant, settings: &Settings) -> ExpResult {
    let dir = std::env::var("RETIA_CACHE_DIR").unwrap_or_else(|_| "results/cache".to_string());
    let path = cache_path(Path::new(&dir), profile, variant);
    if !settings.refresh {
        if let Some(result) = cached(&path, settings) {
            return result;
        }
    }

    eprintln!("[retia-bench] running {} / {} ...", profile.name(), variant.id());
    let (_ds, ctx) = dataset_context(profile);
    let mut model = variant.build(profile, &ctx, settings);

    let t0 = Instant::now();
    model.fit(&ctx);
    let fit_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let report = retia::evaluate(model.as_mut(), &ctx, Split::Test)
        .map_err(|e| e.to_string())
        .expect("online evaluation diverged");
    let eval_secs = t0.elapsed().as_secs_f64();

    let result = ExpResult {
        dataset: profile.name().to_string(),
        variant: variant.id().to_string(),
        settings: settings.cache_key(),
        entity_raw: report.entity_raw.into(),
        entity_filtered: report.entity_filtered.into(),
        relation_raw: report.relation_raw.into(),
        relation_filtered: report.relation_filtered.into(),
        fit_secs,
        eval_secs,
        loss_history: model.loss_history(),
    };

    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(&path, result.to_json()).ok();
    eprintln!(
        "[retia-bench]   {} / {}: entity MRR {:.2}, relation MRR {:.2} (fit {:.1}s, eval {:.1}s)",
        profile.name(),
        variant.id(),
        result.entity_raw.mrr,
        result.relation_raw.mrr,
        fit_secs,
        eval_secs
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_env_overrides() {
        // Serialize env mutations inside one test to avoid races.
        std::env::set_var("RETIA_FAST", "1");
        std::env::remove_var("RETIA_EPOCHS");
        std::env::remove_var("RETIA_REFRESH");
        let s = Settings::from_env();
        assert_eq!(s.epochs, 2);
        std::env::set_var("RETIA_EPOCHS", "9");
        std::env::set_var("RETIA_REFRESH", "1");
        let s = Settings::from_env();
        assert_eq!(s.epochs, 9);
        assert!(s.refresh);
        std::env::remove_var("RETIA_FAST");
        std::env::remove_var("RETIA_EPOCHS");
        std::env::remove_var("RETIA_REFRESH");
    }

    #[test]
    fn exp_result_json_roundtrip() {
        let result = ExpResult {
            dataset: "icews-mini".into(),
            variant: "retia".into(),
            settings: Settings::default().cache_key(),
            entity_raw: BenchMetrics { mrr: 32.5, h1: 22.0, h3: 36.5, h10: 51.25, count: 400 },
            entity_filtered: BenchMetrics::default(),
            relation_raw: BenchMetrics::default(),
            relation_filtered: BenchMetrics::default(),
            fit_secs: 12.75,
            eval_secs: 3.5,
            loss_history: vec![(3.0, 2.0, 2.7), (2.5, 1.5, 2.2)],
        };
        let back = ExpResult::from_json(&result.to_json()).unwrap();
        assert_eq!(format!("{result:?}"), format!("{back:?}"));
        // Structural damage is a cache miss, not a panic.
        assert!(ExpResult::from_json("{\"dataset\": \"x\"}").is_none());
        assert!(ExpResult::from_json("not json").is_none());
    }

    /// A cache file is a hit only under the settings that wrote it; one
    /// without the settings line (written before it existed) is a miss.
    #[test]
    fn cache_hits_only_under_the_settings_that_wrote_it() {
        let dir = std::env::temp_dir().join(format!("retia-cache-key-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = cache_path(&dir, DatasetProfile::Yago, Variant::DistMult);
        let full = Settings::default();
        let fast = Settings { epochs: 2, static_epochs: 4, ..Settings::default() };
        let result = ExpResult {
            dataset: "YAGO-mini".into(),
            variant: "distmult".into(),
            settings: fast.cache_key(),
            entity_raw: BenchMetrics::default(),
            entity_filtered: BenchMetrics::default(),
            relation_raw: BenchMetrics::default(),
            relation_filtered: BenchMetrics::default(),
            fit_secs: 1.0,
            eval_secs: 1.0,
            loss_history: Vec::new(),
        };
        let json = result.to_json();
        std::fs::write(&path, &json).unwrap();
        assert!(cached(&path, &fast).is_some(), "a file misses under its own settings");
        assert!(cached(&path, &full).is_none(), "a 2-epoch file hits under the full settings");
        for other in [
            Settings { dim: 8, ..fast.clone() },
            Settings { channels: 4, ..fast.clone() },
            Settings { epochs: 3, ..fast.clone() },
            Settings { static_epochs: 5, ..fast.clone() },
        ] {
            assert!(cached(&path, &other).is_none(), "hit under {}", other.cache_key());
        }
        let unkeyed: String = json.lines().filter(|l| !l.contains("\"settings\"")).collect();
        assert!(retia_json::parse(&unkeyed).is_ok(), "{unkeyed}");
        std::fs::write(&path, unkeyed).unwrap();
        assert!(cached(&path, &fast).is_none(), "a file without settings hits");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bench_metrics_from_metrics() {
        let mut m = Metrics::new();
        m.record(1.0);
        m.record(4.0);
        let b: BenchMetrics = m.into();
        assert_eq!(b.count, 2);
        assert!((b.mrr - 62.5).abs() < 1e-9);
        assert!((b.h3 - 50.0).abs() < 1e-9);
    }
}

//! Model and training configuration, including every ablation switch the
//! paper's experiment section exercises.

use retia_json::Value;

/// Depth of relation-representation modeling — the axis of Figures 6 and 7
/// ("wo. RM" / "w. MP" / "w. MP+LSTM" / "w. MP+LSTM+Agg"). The paper's full
/// model is [`RelationMode::MpLstmAgg`]; RE-GCN/TiRGN sit at
/// [`RelationMode::MpLstm`]. Removing the RAM (Table VI "wo. RAM") is
/// [`RelationMode::None`] — relations stay at their initial embeddings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelationMode {
    /// Relations stay frozen at their random initialization — no gradient
    /// flows into them at all ("wo. RM" / "wo. RAM", matching the paper's
    /// ablation protocol of "keeping the initialized relation embeddings
    /// unchanged").
    None,
    /// Relations are a *learnable* static table with no temporal evolution
    /// (the RGCRN baseline's relation treatment).
    Static,
    /// Relations are replaced each step by the mean of their adjacent entity
    /// embeddings ("w. MP").
    Mp,
    /// Mean pooling plus LSTM evolution — the RE-GCN/TiRGN level
    /// ("w. MP+LSTM").
    MpLstm,
    /// Full RETIA: mean pooling, LSTM, then hyperrelation-subgraph
    /// aggregation through the RAM ("w. MP+LSTM+Agg").
    MpLstmAgg,
}

/// How hyperrelation embeddings entering the RAM are produced — the axis of
/// Figure 5 ("wo. HRM" / "w. HMP" / "w. HMP+HLSTM").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HyperrelMode {
    /// Initial hyperrelation embeddings, never updated ("wo. HRM").
    Init,
    /// Hyper mean pooling of adjacent relation embeddings ("w. HMP").
    Hmp,
    /// Hyper mean pooling plus hyper LSTM evolution — full RETIA
    /// ("w. HMP+HLSTM").
    HmpHlstm,
}

/// Full configuration of a RETIA model and its trainer.
#[derive(Clone, Debug)]
pub struct RetiaConfig {
    /// Embedding dimensionality `d` (the paper uses 200; the mini-scale
    /// harness uses 32).
    pub dim: usize,
    /// Historical sequence length `k` (paper: 3 for YAGO/WIKI, 4 for
    /// ICEWS18, 9 for ICEWS14/ICEWS05-15).
    pub k: usize,
    /// Conv-TransE kernel count (paper: 50; mini-scale: 16).
    pub channels: usize,
    /// Conv-TransE kernel width (paper: 3).
    pub ksize: usize,
    /// Dropout rate for R-GCN layers and decoders (paper: 0.2).
    pub dropout: f32,
    /// Number of R-GCN layers in the EAM and the RAM (paper: 2).
    pub rgcn_layers: usize,
    /// Basis count for the entity R-GCN's per-relation weights (the RAM's 8
    /// hyperrelation types always use independent weights).
    pub num_bases: usize,
    /// Entity-task weight `λ` of the joint loss (paper: 0.7).
    pub lambda: f32,
    /// Adam learning rate for general and online training (paper: 0.001).
    pub lr: f32,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Maximum general-training epochs.
    pub epochs: usize,
    /// Early-stopping patience on validation entity MRR (paper: 5).
    pub patience: usize,
    /// Weight of the static-consistency constraint (the paper enables static
    /// graph constraints on the ICEWS datasets; 0 disables).
    pub static_weight: f32,
    /// Per-step angle increment (degrees) of the static-constraint threshold.
    pub static_angle_deg: f32,
    /// Twin-interact module on/off (Table IX, Figures 3–4).
    pub use_tim: bool,
    /// Entity aggregation module on/off (Table VI "wo. EAM").
    pub use_eam: bool,
    /// Relation modeling depth (Figures 6–7; Table VI "wo. RAM" = `None`).
    pub relation_mode: RelationMode,
    /// Hyperrelation modeling depth (Figure 5).
    pub hyperrel_mode: HyperrelMode,
    /// Online continual training during evaluation (the time-variability
    /// strategy of Figure 8; the paper's headline numbers use it).
    pub online: bool,
    /// Number of gradient steps per newly observed timestamp in online mode.
    pub online_steps: usize,
    /// L2-normalize evolved entity embeddings (RE-GCN-style).
    pub normalize_entities: bool,
    /// Seed for parameter init and stochastic ops.
    pub seed: u64,
    /// Worker threads for the tensor/eval kernels. `0` defers to the
    /// `RETIA_NUM_THREADS` environment variable (falling back to the
    /// available parallelism). Any value produces bit-identical results —
    /// chunking is a function of shape, never of thread count.
    pub num_threads: usize,
}

impl Default for RetiaConfig {
    fn default() -> Self {
        RetiaConfig {
            dim: 32,
            k: 3,
            channels: 16,
            ksize: 3,
            dropout: 0.2,
            rgcn_layers: 2,
            num_bases: 4,
            lambda: 0.7,
            lr: 1e-3,
            grad_clip: 1.0,
            epochs: 20,
            patience: 5,
            static_weight: 0.0,
            static_angle_deg: 10.0,
            use_tim: true,
            use_eam: true,
            relation_mode: RelationMode::MpLstmAgg,
            hyperrel_mode: HyperrelMode::HmpHlstm,
            online: true,
            online_steps: 1,
            normalize_entities: true,
            seed: 42,
            num_threads: 0,
        }
    }
}

impl RetiaConfig {
    /// The paper's hyperparameters at full scale (`d = 200`, 50 kernels).
    /// The paper-dims audit test and the benchmark's `serve_query` scenario
    /// run at these dimensions; training uses the mini-scale defaults,
    /// which train on CPU in reasonable time.
    pub fn paper_scale() -> Self {
        RetiaConfig { dim: 200, channels: 50, ..Default::default() }
    }

    /// Sanity-checks field ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("dim must be positive".into());
        }
        if self.k == 0 {
            return Err("history length k must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.lambda) {
            return Err("lambda must be in [0, 1]".into());
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err("dropout must be in [0, 1)".into());
        }
        if self.num_bases == 0 {
            return Err("num_bases must be positive".into());
        }
        if self.rgcn_layers == 0 {
            return Err("rgcn_layers must be positive".into());
        }
        Ok(())
    }

    /// Pretty JSON rendering of every field (the CLI's config sidecar
    /// format).
    pub fn to_json(&self) -> String {
        let mut o = Value::object();
        o.insert("dim", Value::from(self.dim));
        o.insert("k", Value::from(self.k));
        o.insert("channels", Value::from(self.channels));
        o.insert("ksize", Value::from(self.ksize));
        o.insert("dropout", Value::from(self.dropout));
        o.insert("rgcn_layers", Value::from(self.rgcn_layers));
        o.insert("num_bases", Value::from(self.num_bases));
        o.insert("lambda", Value::from(self.lambda));
        o.insert("lr", Value::from(self.lr));
        o.insert("grad_clip", Value::from(self.grad_clip));
        o.insert("epochs", Value::from(self.epochs));
        o.insert("patience", Value::from(self.patience));
        o.insert("static_weight", Value::from(self.static_weight));
        o.insert("static_angle_deg", Value::from(self.static_angle_deg));
        o.insert("use_tim", Value::from(self.use_tim));
        o.insert("use_eam", Value::from(self.use_eam));
        o.insert("relation_mode", Value::from(self.relation_mode.as_str()));
        o.insert("hyperrel_mode", Value::from(self.hyperrel_mode.as_str()));
        o.insert("online", Value::from(self.online));
        o.insert("online_steps", Value::from(self.online_steps));
        o.insert("normalize_entities", Value::from(self.normalize_entities));
        o.insert("seed", Value::from(self.seed));
        o.insert("num_threads", Value::from(self.num_threads));
        o.to_string_pretty()
    }

    /// Parses a JSON object produced by [`RetiaConfig::to_json`]. Absent
    /// fields keep their defaults (so sidecars written before a field was
    /// added still load); present fields with the wrong type are errors.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = retia_json::parse(text).map_err(|e| e.to_string())?;
        if !matches!(doc, Value::Object(_)) {
            return Err("config JSON must be an object".into());
        }
        let mut cfg = RetiaConfig::default();
        macro_rules! field {
            ($name:literal, $target:expr, $conv:ident, $ty:literal) => {
                if let Some(v) = doc.get($name) {
                    $target = v
                        .$conv()
                        .ok_or_else(|| format!(concat!($name, " must be ", $ty)))?
                        .try_into()
                        .map_err(|_| format!(concat!($name, " out of range")))?;
                }
            };
        }
        field!("dim", cfg.dim, as_u64, "a non-negative integer");
        field!("k", cfg.k, as_u64, "a non-negative integer");
        field!("channels", cfg.channels, as_u64, "a non-negative integer");
        field!("ksize", cfg.ksize, as_u64, "a non-negative integer");
        field!("dropout", cfg.dropout, as_f32, "a number");
        field!("rgcn_layers", cfg.rgcn_layers, as_u64, "a non-negative integer");
        field!("num_bases", cfg.num_bases, as_u64, "a non-negative integer");
        field!("lambda", cfg.lambda, as_f32, "a number");
        field!("lr", cfg.lr, as_f32, "a number");
        field!("grad_clip", cfg.grad_clip, as_f32, "a number");
        field!("epochs", cfg.epochs, as_u64, "a non-negative integer");
        field!("patience", cfg.patience, as_u64, "a non-negative integer");
        field!("static_weight", cfg.static_weight, as_f32, "a number");
        field!("static_angle_deg", cfg.static_angle_deg, as_f32, "a number");
        field!("use_tim", cfg.use_tim, as_bool, "a boolean");
        field!("use_eam", cfg.use_eam, as_bool, "a boolean");
        field!("online", cfg.online, as_bool, "a boolean");
        field!("online_steps", cfg.online_steps, as_u64, "a non-negative integer");
        field!("normalize_entities", cfg.normalize_entities, as_bool, "a boolean");
        field!("seed", cfg.seed, as_u64, "a non-negative integer");
        field!("num_threads", cfg.num_threads, as_u64, "a non-negative integer");
        if let Some(v) = doc.get("relation_mode") {
            let s = v.as_str().ok_or("relation_mode must be a string")?;
            cfg.relation_mode = s.parse()?;
        }
        if let Some(v) = doc.get("hyperrel_mode") {
            let s = v.as_str().ok_or("hyperrel_mode must be a string")?;
            cfg.hyperrel_mode = s.parse()?;
        }
        Ok(cfg)
    }
}

impl RelationMode {
    /// Snake-case identifier used in config JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            RelationMode::None => "none",
            RelationMode::Static => "static",
            RelationMode::Mp => "mp",
            RelationMode::MpLstm => "mp_lstm",
            RelationMode::MpLstmAgg => "mp_lstm_agg",
        }
    }
}

impl std::str::FromStr for RelationMode {
    type Err = String;

    /// Inverse of [`RelationMode::as_str`].
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(RelationMode::None),
            "static" => Ok(RelationMode::Static),
            "mp" => Ok(RelationMode::Mp),
            "mp_lstm" => Ok(RelationMode::MpLstm),
            "mp_lstm_agg" => Ok(RelationMode::MpLstmAgg),
            _ => Err(format!("unknown relation_mode `{s}`")),
        }
    }
}

impl HyperrelMode {
    /// Snake-case identifier used in config JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            HyperrelMode::Init => "init",
            HyperrelMode::Hmp => "hmp",
            HyperrelMode::HmpHlstm => "hmp_hlstm",
        }
    }
}

impl std::str::FromStr for HyperrelMode {
    type Err = String;

    /// Inverse of [`HyperrelMode::as_str`].
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "init" => Ok(HyperrelMode::Init),
            "hmp" => Ok(HyperrelMode::Hmp),
            "hmp_hlstm" => Ok(HyperrelMode::HmpHlstm),
            _ => Err(format!("unknown hyperrel_mode `{s}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        RetiaConfig::default().validate().unwrap();
        RetiaConfig::paper_scale().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_fields() {
        for f in [
            |c: &mut RetiaConfig| c.dim = 0,
            |c: &mut RetiaConfig| c.k = 0,
            |c: &mut RetiaConfig| c.lambda = 1.5,
            |c: &mut RetiaConfig| c.dropout = 1.0,
            |c: &mut RetiaConfig| c.num_bases = 0,
            |c: &mut RetiaConfig| c.rgcn_layers = 0,
        ] {
            let mut c = RetiaConfig::default();
            f(&mut c);
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let mut c = RetiaConfig::paper_scale();
        c.relation_mode = RelationMode::Mp;
        c.hyperrel_mode = HyperrelMode::Hmp;
        c.online = false;
        c.lr = 5e-4;
        c.seed = 123;
        c.num_threads = 4;
        let back = RetiaConfig::from_json(&c.to_json()).unwrap();
        assert_eq!(format!("{c:?}"), format!("{back:?}"));
    }

    #[test]
    fn json_absent_fields_fall_back_to_defaults() {
        let c = RetiaConfig::from_json(r#"{"dim": 64, "seed": 7}"#).unwrap();
        assert_eq!(c.dim, 64);
        assert_eq!(c.seed, 7);
        assert_eq!(c.k, RetiaConfig::default().k);
        assert_eq!(c.relation_mode, RelationMode::MpLstmAgg);
    }

    #[test]
    fn json_rejects_bad_values() {
        assert!(RetiaConfig::from_json("[1]").is_err());
        assert!(RetiaConfig::from_json(r#"{"dim": "big"}"#).is_err());
        assert!(RetiaConfig::from_json(r#"{"relation_mode": "psychic"}"#).is_err());
        assert!(RetiaConfig::from_json("{").is_err());
    }

    #[test]
    fn paper_scale_uses_paper_dims() {
        let c = RetiaConfig::paper_scale();
        assert_eq!(c.dim, 200);
        assert_eq!(c.channels, 50);
        assert_eq!(c.ksize, 3);
        assert_eq!(c.lambda, 0.7);
    }
}

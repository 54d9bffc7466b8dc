//! Full-model gradient check: the analytic gradient of the complete RETIA
//! loss (evolution through RAM + EAM + TIM, Conv-TransE decoding, joint
//! cross-entropy) is validated against central finite differences on a tiny
//! instance. This is the strongest single correctness statement about the
//! autodiff substrate and the model wiring together.

use retia::{Retia, RetiaConfig, TkgContext};
use retia_data::SyntheticConfig;
use retia_tensor::Graph;

#[test]
fn full_model_gradient_matches_finite_differences() {
    let mut gen = SyntheticConfig::tiny(300);
    gen.num_entities = 12;
    gen.num_relations = 4;
    gen.num_timestamps = 8;
    gen.target_facts = 80;
    let ds = gen.generate();
    let ctx = TkgContext::new(&ds);

    let cfg = RetiaConfig {
        dim: 6,
        channels: 3,
        k: 2,
        dropout: 0.0, // determinism: no stochastic ops
        static_weight: 0.5,
        ..Default::default()
    };
    let mut model = Retia::new(&cfg, &ds);
    let target_idx = 3.min(ctx.snapshots.len() - 1);
    let target = ctx.snapshots[target_idx].clone();

    // Closure computing the loss in eval mode (RReLU uses its fixed slope).
    let loss_value = |model: &Retia| -> f32 {
        let (h, hh) = ctx.history(target_idx, 2);
        let mut g = Graph::new(false, 0);
        let states = model.evolve(&mut g, h, hh);
        let (loss, _, _) = model.loss(&mut g, &states, &target);
        g.value(loss).item()
    };

    // Analytic gradients.
    {
        let (h, hh) = ctx.history(target_idx, 2);
        let mut g = Graph::new(false, 0);
        let states = model.evolve(&mut g, h, hh);
        let (loss, _, _) = model.loss(&mut g, &states, &target);
        g.backward(loss, model.store_mut());
    }

    // Check a sample of coordinates across parameter families.
    let h = 2e-3f32;
    for name in ["ent0", "rel0", "hyper0", "rgru_ent.w", "tim_lstm.u", "dec_e.fc.w"] {
        let grad = model.store().grad(name).into_owned();
        let (rows, cols) = grad.shape();
        // Probe up to 4 coordinates per tensor, spread deterministically.
        let probes: Vec<(usize, usize)> =
            (0..4).map(|i| ((i * 7 + 1) % rows, (i * 13 + 2) % cols)).collect();
        for (r, c) in probes {
            let orig = model.store().value(name).get(r, c);
            model.store_mut().value_mut(name).set(r, c, orig + h);
            let fp = loss_value(&model);
            model.store_mut().value_mut(name).set(r, c, orig - h);
            let fm = loss_value(&model);
            model.store_mut().value_mut(name).set(r, c, orig);
            let numeric = (fp - fm) / (2.0 * h);
            let analytic = grad.get(r, c);
            let scale = analytic.abs().max(numeric.abs()).max(0.05);
            assert!(
                (analytic - numeric).abs() / scale < 0.15,
                "{name}[{r},{c}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }
}

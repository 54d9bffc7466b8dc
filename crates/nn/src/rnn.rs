//! Recurrent cells.
//!
//! RETIA threads three recurrences through the snapshot sequence: a residual
//! GRU normalizing each R-GCN's output against its input (Eq. 3 and 6), an
//! LSTM carrying the entity→relation interaction channel (Eq. 8) and a
//! "hyper" LSTM carrying the relation→hyperrelation channel (Eq. 10). Both
//! cells here operate on `[rows, dim]` matrices, treating each row as an
//! independent sequence element (one relation / entity / hyperrelation).
//!
//! Note on dimensions: the paper types the LSTM cell state as `2d`-wide while
//! its hidden state is `d`-wide (Eq. 8); we use the standard LSTM
//! (cell width = hidden width = `d`) with a `2d → d` input projection folded
//! into the gate weights, which preserves the information flow. This
//! deviation is recorded in DESIGN.md.

use retia_analyze::value::AbsId;
use retia_analyze::AuditCtx;
use retia_tensor::{Graph, NodeId, ParamStore};

/// Gated recurrent unit cell (Cho et al., 2014).
#[derive(Clone, Debug)]
pub struct GruCell {
    w: String,
    u: String,
    b: String,
    input_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Registers gate weights under `prefix`: `W [input_dim, 3*hidden]`,
    /// `U [hidden, 3*hidden]`, `b [1, 3*hidden]` (gate order: z, r, n).
    pub fn new(store: &mut ParamStore, prefix: &str, input_dim: usize, hidden_dim: usize) -> Self {
        let w = format!("{prefix}.w");
        let u = format!("{prefix}.u");
        let b = format!("{prefix}.b");
        store.register_xavier(&w, input_dim, 3 * hidden_dim);
        store.register_xavier(&u, hidden_dim, 3 * hidden_dim);
        store.register_zeros(&b, 1, 3 * hidden_dim);
        GruCell { w, u, b, input_dim, hidden_dim }
    }

    /// One step: `h' = GRU(x, h)`, with `x: [n, input_dim]`,
    /// `h: [n, hidden_dim]`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId, h: NodeId) -> NodeId {
        let _m = retia_obs::module_scope("GruCell");
        assert_eq!(g.value(x).cols(), self.input_dim, "GRU input width mismatch");
        assert_eq!(g.value(h).cols(), self.hidden_dim, "GRU hidden width mismatch");
        let d = self.hidden_dim;
        let w = g.param(store, &self.w);
        let u = g.param(store, &self.u);
        let b = g.param(store, &self.b);
        let xw = g.matmul(x, w);
        let hu = g.matmul(h, u);
        let xwb = g.add_bias(xw, b);

        let xz = g.slice_cols(xwb, 0, d);
        let xr = g.slice_cols(xwb, d, 2 * d);
        let xn = g.slice_cols(xwb, 2 * d, 3 * d);
        let hz = g.slice_cols(hu, 0, d);
        let hr = g.slice_cols(hu, d, 2 * d);
        let hn = g.slice_cols(hu, 2 * d, 3 * d);

        let z_in = g.add(xz, hz);
        let z = g.sigmoid(z_in);
        let r_in = g.add(xr, hr);
        let r = g.sigmoid(r_in);
        let rhn = g.mul(r, hn);
        let n_in = g.add(xn, rhn);
        let n = g.tanh(n_in);

        // h' = (1 - z) * n + z * h = n + z * (h - n).
        let hmn = g.sub(h, n);
        let zh = g.mul(z, hmn);
        g.add(n, zh)
    }

    /// Value-domain replay of [`GruCell::forward`]: same op sequence over
    /// intervals, declaring the gate weights by their store names so the
    /// gradient-flow walk can reconcile them.
    pub fn audit(&self, ctx: &mut AuditCtx, x: AbsId, h: AbsId) -> AbsId {
        ctx.scoped("GruCell", None, |ctx| {
            let d = self.hidden_dim;
            let w = ctx.param(&self.w, self.input_dim, 3 * d);
            let u = ctx.param(&self.u, self.hidden_dim, 3 * d);
            let b = ctx.param(&self.b, 1, 3 * d);
            let xw = ctx.matmul(x, w);
            let hu = ctx.matmul(h, u);
            let xwb = ctx.add_bias(xw, b);
            let xz = ctx.slice_cols(xwb, 0, d);
            let xr = ctx.slice_cols(xwb, d, 2 * d);
            let xn = ctx.slice_cols(xwb, 2 * d, 3 * d);
            let hz = ctx.slice_cols(hu, 0, d);
            let hr = ctx.slice_cols(hu, d, 2 * d);
            let hn = ctx.slice_cols(hu, 2 * d, 3 * d);
            let z_in = ctx.add(xz, hz);
            let z = ctx.sigmoid(z_in);
            let r_in = ctx.add(xr, hr);
            let r = ctx.sigmoid(r_in);
            let rhn = ctx.mul(r, hn);
            let n_in = ctx.add(xn, rhn);
            let n = ctx.tanh(n_in);
            let hmn = ctx.sub(h, n);
            let zh = ctx.mul(z, hmn);
            ctx.add(n, zh)
        })
    }
}

/// Long short-term memory cell (Hochreiter & Schmidhuber, 1997) with the
/// forget-gate bias initialized to 1.
#[derive(Clone, Debug)]
pub struct LstmCell {
    w: String,
    u: String,
    b: String,
    input_dim: usize,
    hidden_dim: usize,
}

impl LstmCell {
    /// Registers gate weights under `prefix`: `W [input_dim, 4*hidden]`,
    /// `U [hidden, 4*hidden]`, `b [1, 4*hidden]` (gate order: i, f, g, o).
    pub fn new(store: &mut ParamStore, prefix: &str, input_dim: usize, hidden_dim: usize) -> Self {
        let w = format!("{prefix}.w");
        let u = format!("{prefix}.u");
        let b = format!("{prefix}.b");
        store.register_xavier(&w, input_dim, 4 * hidden_dim);
        store.register_xavier(&u, hidden_dim, 4 * hidden_dim);
        store.register_zeros(&b, 1, 4 * hidden_dim);
        // Forget-gate bias 1.0: standard trick so early training does not
        // wipe the carried state.
        {
            let bias = store.value_mut(&b);
            for j in hidden_dim..2 * hidden_dim {
                bias.set(0, j, 1.0);
            }
        }
        LstmCell { w, u, b, input_dim, hidden_dim }
    }

    /// One step: `(h', c') = LSTM(x, (h, c))`, with `x: [n, input_dim]`,
    /// `h, c: [n, hidden_dim]`.
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        h: NodeId,
        c: NodeId,
    ) -> (NodeId, NodeId) {
        let _m = retia_obs::module_scope("LstmCell");
        assert_eq!(g.value(x).cols(), self.input_dim, "LSTM input width mismatch");
        assert_eq!(g.value(h).cols(), self.hidden_dim, "LSTM hidden width mismatch");
        assert_eq!(g.value(c).cols(), self.hidden_dim, "LSTM cell width mismatch");
        let d = self.hidden_dim;
        let w = g.param(store, &self.w);
        let u = g.param(store, &self.u);
        let b = g.param(store, &self.b);
        let xw = g.matmul(x, w);
        let hu = g.matmul(h, u);
        let pre0 = g.add(xw, hu);
        let pre = g.add_bias(pre0, b);

        let i_in = g.slice_cols(pre, 0, d);
        let f_in = g.slice_cols(pre, d, 2 * d);
        let g_in = g.slice_cols(pre, 2 * d, 3 * d);
        let o_in = g.slice_cols(pre, 3 * d, 4 * d);

        let i = g.sigmoid(i_in);
        let f = g.sigmoid(f_in);
        let gg = g.tanh(g_in);
        let o = g.sigmoid(o_in);

        let fc = g.mul(f, c);
        let ig = g.mul(i, gg);
        let c_new = g.add(fc, ig);
        let tc = g.tanh(c_new);
        let h_new = g.mul(o, tc);
        (h_new, c_new)
    }

    /// Value-domain replay of [`LstmCell::forward`], declaring the gate
    /// weights by their store names.
    pub fn audit(&self, ctx: &mut AuditCtx, x: AbsId, h: AbsId, c: AbsId) -> (AbsId, AbsId) {
        ctx.scoped("LstmCell", None, |ctx| {
            let d = self.hidden_dim;
            let w = ctx.param(&self.w, self.input_dim, 4 * d);
            let u = ctx.param(&self.u, self.hidden_dim, 4 * d);
            let b = ctx.param(&self.b, 1, 4 * d);
            let xw = ctx.matmul(x, w);
            let hu = ctx.matmul(h, u);
            let pre0 = ctx.add(xw, hu);
            let pre = ctx.add_bias(pre0, b);
            let i_in = ctx.slice_cols(pre, 0, d);
            let f_in = ctx.slice_cols(pre, d, 2 * d);
            let g_in = ctx.slice_cols(pre, 2 * d, 3 * d);
            let o_in = ctx.slice_cols(pre, 3 * d, 4 * d);
            let i = ctx.sigmoid(i_in);
            let f = ctx.sigmoid(f_in);
            let gg = ctx.tanh(g_in);
            let o = ctx.sigmoid(o_in);
            let fc = ctx.mul(f, c);
            let ig = ctx.mul(i, gg);
            let c_new = ctx.add(fc, ig);
            let tc = ctx.tanh(c_new);
            let h_new = ctx.mul(o, tc);
            (h_new, c_new)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia_tensor::{optim::Adam, Tensor};

    #[test]
    fn gru_shapes() {
        let mut store = ParamStore::new(0);
        let cell = GruCell::new(&mut store, "gru", 6, 4);
        let mut g = Graph::new(false, 0);
        let x = g.constant(Tensor::ones(3, 6));
        let h = g.constant(Tensor::zeros(3, 4));
        let h2 = cell.forward(&mut g, &store, x, h);
        assert_eq!(g.value(h2).shape(), (3, 4));
        assert!(g.value(h2).all_finite());
    }

    #[test]
    fn lstm_shapes() {
        let mut store = ParamStore::new(0);
        let cell = LstmCell::new(&mut store, "lstm", 8, 4);
        let mut g = Graph::new(false, 0);
        let x = g.constant(Tensor::ones(3, 8));
        let h = g.constant(Tensor::zeros(3, 4));
        let c = g.constant(Tensor::zeros(3, 4));
        let (h2, c2) = cell.forward(&mut g, &store, x, h, c);
        assert_eq!(g.value(h2).shape(), (3, 4));
        assert_eq!(g.value(c2).shape(), (3, 4));
    }

    #[test]
    fn lstm_forget_bias_initialized() {
        let mut store = ParamStore::new(0);
        let _ = LstmCell::new(&mut store, "lstm", 2, 3);
        let b = store.value("lstm.b");
        // Gates: i (0..3), f (3..6), g (6..9), o (9..12).
        assert_eq!(b.get(0, 3), 1.0);
        assert_eq!(b.get(0, 5), 1.0);
        assert_eq!(b.get(0, 0), 0.0);
        assert_eq!(b.get(0, 6), 0.0);
    }

    /// A two-step memory task: remember the first input and reproduce it
    /// after seeing a distractor. Both cells should fit this easily.
    fn memory_task_loss(seed: u64, use_lstm: bool) -> f32 {
        let mut store = ParamStore::new(seed);
        let gru = GruCell::new(&mut store, "g", 2, 4);
        let lstm = LstmCell::new(&mut store, "l", 2, 4);
        let readout = crate::linear::Linear::new(&mut store, "r", 4, 1);
        let mut adam = Adam::new(0.03);
        // Batch of 4 sequences: first input is the signal in {0,1}, second is
        // a constant distractor; target = signal.
        let x1 = Tensor::from_vec(4, 2, vec![0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
        let x2 = Tensor::from_vec(4, 2, vec![0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]);
        let y = Tensor::from_vec(4, 1, vec![0.0, 1.0, 0.0, 1.0]);
        let mut last = f32::MAX;
        for _ in 0..400 {
            let mut g = Graph::new(true, 0);
            let x1n = g.constant(x1.clone());
            let x2n = g.constant(x2.clone());
            let yn = g.constant(y.clone());
            let h0 = g.constant(Tensor::zeros(4, 4));
            let c0 = g.constant(Tensor::zeros(4, 4));
            let h2 = if use_lstm {
                let (h1, c1) = lstm.forward(&mut g, &store, x1n, h0, c0);
                let (h2, _) = lstm.forward(&mut g, &store, x2n, h1, c1);
                h2
            } else {
                let h1 = gru.forward(&mut g, &store, x1n, h0);
                gru.forward(&mut g, &store, x2n, h1)
            };
            let pred = readout.forward(&mut g, &store, h2);
            let d = g.sub(pred, yn);
            let sq = g.mul(d, d);
            let loss = g.mean_all(sq);
            last = g.value(loss).item();
            g.backward(loss, &mut store);
            adam.step(&mut store);
            store.zero_grad();
        }
        last
    }

    #[test]
    fn gru_learns_memory_task() {
        let loss = memory_task_loss(1, false);
        assert!(loss < 1e-2, "GRU loss {loss}");
    }

    #[test]
    fn lstm_learns_memory_task() {
        let loss = memory_task_loss(2, true);
        assert!(loss < 1e-2, "LSTM loss {loss}");
    }

    #[test]
    fn gru_identity_when_update_gate_saturated() {
        // With giant positive z-gate bias the GRU must keep its hidden state.
        let mut store = ParamStore::new(0);
        let cell = GruCell::new(&mut store, "gru", 2, 2);
        {
            let b = store.value_mut("gru.b");
            b.set(0, 0, 100.0);
            b.set(0, 1, 100.0);
        }
        let mut g = Graph::new(false, 0);
        let x = g.constant(Tensor::ones(1, 2));
        let h = g.constant(Tensor::from_vec(1, 2, vec![0.3, -0.7]));
        let h2 = cell.forward(&mut g, &store, x, h);
        let out = g.value(h2);
        assert!((out.get(0, 0) - 0.3).abs() < 1e-3);
        assert!((out.get(0, 1) + 0.7).abs() < 1e-3);
    }
}

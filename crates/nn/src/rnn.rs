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

use retia_tensor::{Ops, ParamStore, Tensor};

use crate::check_width;

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
    /// `h: [n, hidden_dim]`. Only `h'` outlives the call on an inference
    /// graph, and each gate's inputs are freed once it is computed: each
    /// release keeps exactly what the lines below it read.
    pub fn forward<O: Ops>(&self, g: &mut O, store: &ParamStore, x: O::Id, h: O::Id) -> O::Id {
        g.scoped("GruCell", None, |g| {
            check_width(g, "input_width", "GRU input", x, self.input_dim);
            check_width(g, "hidden_width", "GRU hidden", h, self.hidden_dim);
            let mark = g.num_nodes();
            let d = self.hidden_dim;
            let w = g.param(store, &self.w);
            let u = g.param(store, &self.u);
            let b = g.param(store, &self.b);
            let xw = g.matmul(x, w);
            let hu = g.matmul(h, u);
            let xwb = g.add_bias(xw, b);
            g.release_since(mark, &[xwb, hu]);

            let xz = g.slice_cols(xwb, 0, d);
            let xr = g.slice_cols(xwb, d, 2 * d);
            let xn = g.slice_cols(xwb, 2 * d, 3 * d);
            g.release_since(mark, &[xz, xr, xn, hu]);
            let hz = g.slice_cols(hu, 0, d);
            let hr = g.slice_cols(hu, d, 2 * d);
            let hn = g.slice_cols(hu, 2 * d, 3 * d);
            g.release_since(mark, &[xz, xr, xn, hz, hr, hn]);

            let z_in = g.add(xz, hz);
            let z = g.sigmoid(z_in);
            g.release_since(mark, &[xr, xn, hr, hn, z]);
            let r_in = g.add(xr, hr);
            let r = g.sigmoid(r_in);
            g.release_since(mark, &[xn, hn, z, r]);
            let rhn = g.mul(r, hn);
            let n_in = g.add(xn, rhn);
            let n = g.tanh(n_in);
            g.release_since(mark, &[z, n]);

            // h' = (1 - z) * n + z * h = n + z * (h - n).
            let hmn = g.sub(h, n);
            let zh = g.mul(z, hmn);
            let h_new = g.add(n, zh);
            g.release_since(mark, &[h_new]);
            h_new
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
        // Forget-gate bias 1.0: standard trick so early training does not
        // wipe the carried state. It is the bias's initial value, so a
        // loading store replaces it with the loaded bias.
        let forget = hidden_dim..2 * hidden_dim;
        store.register(
            &b,
            Tensor::from_fn(1, 4 * hidden_dim, |_, j| f32::from(forget.contains(&j))),
        );
        LstmCell { w, u, b, input_dim, hidden_dim }
    }

    /// One step: `(h', c') = LSTM(x, (h, c))`, with `x: [n, input_dim]`,
    /// `h, c: [n, hidden_dim]`. Only `(h', c')` outlives the call on an
    /// inference graph, and each gate's inputs are freed once it is
    /// computed: each release keeps exactly what the lines below it read.
    pub fn forward<O: Ops>(
        &self,
        g: &mut O,
        store: &ParamStore,
        x: O::Id,
        h: O::Id,
        c: O::Id,
    ) -> (O::Id, O::Id) {
        g.scoped("LstmCell", None, |g| {
            check_width(g, "input_width", "LSTM input", x, self.input_dim);
            check_width(g, "hidden_width", "LSTM hidden", h, self.hidden_dim);
            check_width(g, "cell_width", "LSTM cell", c, self.hidden_dim);
            let mark = g.num_nodes();
            let d = self.hidden_dim;
            let w = g.param(store, &self.w);
            let u = g.param(store, &self.u);
            let b = g.param(store, &self.b);
            let xw = g.matmul(x, w);
            let hu = g.matmul(h, u);
            let pre0 = g.add(xw, hu);
            g.release_since(mark, &[b, pre0]);
            let pre = g.add_bias(pre0, b);
            g.release_since(mark, &[pre]);

            let i_in = g.slice_cols(pre, 0, d);
            let f_in = g.slice_cols(pre, d, 2 * d);
            let g_in = g.slice_cols(pre, 2 * d, 3 * d);
            let o_in = g.slice_cols(pre, 3 * d, 4 * d);
            g.release_since(mark, &[i_in, f_in, g_in, o_in]);

            let i = g.sigmoid(i_in);
            let f = g.sigmoid(f_in);
            let gg = g.tanh(g_in);
            let o = g.sigmoid(o_in);
            g.release_since(mark, &[i, f, gg, o]);

            let fc = g.mul(f, c);
            let ig = g.mul(i, gg);
            let c_new = g.add(fc, ig);
            g.release_since(mark, &[o, c_new]);
            let tc = g.tanh(c_new);
            let h_new = g.mul(o, tc);
            g.release_since(mark, &[h_new, c_new]);
            (h_new, c_new)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia_tensor::{optim::Adam, Graph, Tensor};

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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    fn bytes(t: &Tensor) -> usize {
        t.len() * std::mem::size_of::<f32>()
    }

    /// On an inference graph a cell frees its gates before returning: the
    /// graph then owns the nodes made before the call plus the outputs, and
    /// the outputs equal a recording graph's bit for bit.
    #[test]
    fn cells_keep_only_their_outputs_on_an_inference_graph() {
        let mut store = ParamStore::new(4);
        let gru = GruCell::new(&mut store, "gru", 6, 4);
        let lstm = LstmCell::new(&mut store, "lstm", 6, 4);
        let x = Tensor::from_fn(3, 6, |i, j| (i as f32 - j as f32) / 5.0);
        let h = Tensor::from_fn(3, 4, |i, j| (i * j) as f32 / 7.0 - 0.5);
        let c = Tensor::from_fn(3, 4, |i, j| (i + j) as f32 / 9.0);
        let run = |g: &mut Graph| {
            let (x, h, c) = (g.constant(x.clone()), g.constant(h.clone()), g.constant(c.clone()));
            let before = g.value_bytes();
            let h_gru = gru.forward(g, &store, x, h);
            let after_gru = g.value_bytes();
            let (h_lstm, c_lstm) = lstm.forward(g, &store, x, h, c);
            let outs = [h_gru, h_lstm, c_lstm].map(|id| g.value(id).clone());
            (before, after_gru, g.value_bytes(), outs)
        };
        let (before, after_gru, after_lstm, outs) = run(&mut Graph::inference());
        assert_eq!(after_gru, before + bytes(&outs[0]), "GRU kept more than h'");
        assert_eq!(after_lstm, after_gru + bytes(&outs[1]) + bytes(&outs[2]), "LSTM kept more");
        let (_, _, _, want) = run(&mut Graph::new(false, 0));
        for (got, want) in outs.iter().zip(&want) {
            assert_eq!(bits(got), bits(want));
        }
    }

    /// Freed gate by gate, a cell's high-water mark on an inference graph
    /// is three full-width gate products, which coexist for one op: `x W`,
    /// `h U` and `x W + b` in the GRU (`[n, 3d]` each), `x W`, `h U` and
    /// `x W + h U` in the LSTM (`[n, 4d]` each). Holding every gate until
    /// the step returns would add the slices, activations and the update's
    /// terms on top.
    #[test]
    fn cells_peak_at_their_three_gate_products() {
        let (n, d) = (5, 8);
        let mut store = ParamStore::new(9);
        let gru = GruCell::new(&mut store, "gru", d, d);
        let lstm = LstmCell::new(&mut store, "lstm", 2 * d, d);
        let table = |cols: usize| Tensor::from_fn(n, cols, |i, j| (i as f32 - j as f32) / 9.0);
        let products = |width: usize| 3 * n * width * std::mem::size_of::<f32>();

        let mut g = Graph::inference();
        let (x, h) = (g.constant(table(d)), g.constant(table(d)));
        let before = g.value_bytes();
        gru.forward(&mut g, &store, x, h);
        let peak = g.peak_value_bytes() - before;
        assert!(peak <= products(3 * d), "GRU peaked {peak} B above its inputs");

        let mut g = Graph::inference();
        let (x, h, c) = (g.constant(table(2 * d)), g.constant(table(d)), g.constant(table(d)));
        let before = g.value_bytes();
        lstm.forward(&mut g, &store, x, h, c);
        let peak = g.peak_value_bytes() - before;
        assert!(peak <= products(4 * d), "LSTM peaked {peak} B above its inputs");
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

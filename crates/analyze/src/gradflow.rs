//! Gradient-flow reachability over the abstract tape.
//!
//! [`crate::value::AuditCtx`] records, for every op, which nodes feed it —
//! the same edges `Graph::backward` walks to push gradients. Reachability
//! from the loss over those edges is therefore exactly "this parameter
//! receives a gradient": a parameter the backward walk cannot reach trains
//! to its initialization forever, the classic silent detach-boundary bug.
//!
//! Declared [`crate::value::FrozenParam`]s invert the check — an ablation
//! that intentionally severs a module must say so, and a "frozen" parameter
//! the walk *does* reach is reported just as loudly as a trainable one it
//! misses. `FrozenModel`'s detaches are declared via
//! [`crate::value::AuditCtx::detach`] and stop the walk by construction.

use std::collections::BTreeMap;

use crate::value::AbsNode;

/// Whether one distinct parameter is reached by the backward walk, with the
/// scope path of its (first) declaration for blame.
#[derive(Clone, Debug)]
pub struct ParamFlow {
    pub name: String,
    pub path: String,
    pub reached: bool,
}

/// Node indices reachable from `loss` by walking input edges backward.
/// Iterative DFS — model tapes are thousands of nodes deep in snapshots.
pub(crate) fn reachable(nodes: &[AbsNode], loss: usize) -> Vec<bool> {
    let mut seen = vec![false; nodes.len()];
    let mut stack = vec![loss];
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut seen[i], true) {
            continue;
        }
        stack.extend(nodes[i].inputs.iter().copied().filter(|&j| !seen[j]));
    }
    seen
}

/// Collapses per-site parameter declarations into one [`ParamFlow`] per
/// distinct name: a parameter declared at several sites (the per-snapshot
/// loops re-reference embeddings every step) is reached if *any* site is.
pub(crate) fn param_flows(nodes: &[AbsNode], reached: &[bool]) -> Vec<ParamFlow> {
    let mut by_name: BTreeMap<&str, ParamFlow> = BTreeMap::new();
    for (i, node) in nodes.iter().enumerate() {
        let Some(name) = node.param.as_deref() else { continue };
        let entry = by_name.entry(name).or_insert_with(|| ParamFlow {
            name: name.to_string(),
            path: node.path.clone(),
            reached: false,
        });
        entry.reached |= reached[i];
    }
    by_name.into_values().collect()
}

#[cfg(test)]
mod tests {
    use retia_tensor::Ops;

    use crate::value::{AuditCtx, FrozenParam};

    #[test]
    fn multi_site_declarations_collapse_by_name() {
        // The same embedding referenced in two snapshots: reaching either
        // site counts as reached.
        let mut ctx = AuditCtx::new();
        let p1 = ctx.declare_param("rel0", 4, 2);
        let _p2 = ctx.declare_param("rel0", 4, 2);
        let loss = ctx.mean_all(p1);
        ctx.check_gradient_flow(loss, &[]);
        let report = ctx.finish();
        assert_eq!(report.params_declared, 1);
        assert_eq!(report.params_reached, 1);
        assert!(report.is_clean());
    }

    #[test]
    fn deep_chains_are_walked_iteratively() {
        let mut ctx = AuditCtx::new();
        let p = ctx.declare_param("ent0", 2, 2);
        let mut x = p;
        for _ in 0..20_000 {
            x = ctx.tanh(x);
        }
        let loss = ctx.mean_all(x);
        ctx.check_gradient_flow(loss, &[]);
        assert!(ctx.finish().is_clean());
    }

    #[test]
    fn detach_stops_the_walk_but_sources_do_not_report() {
        let mut ctx = AuditCtx::new();
        let p = ctx.declare_param("ent0", 2, 2);
        let h = ctx.tanh(p);
        let frozen_state = ctx.detach(h, "serving snapshot");
        let loss = ctx.mean_all(frozen_state);
        ctx.check_gradient_flow(loss, &[FrozenParam::new("ent0", "behind a serving snapshot")]);
        let report = ctx.finish();
        assert_eq!(report.params_reached, 0);
        assert!(report.is_clean(), "{report}");
    }
}

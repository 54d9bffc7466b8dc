//! Rank computation under the raw and time-aware filtered settings.

use std::cmp::Reverse;
use std::collections::HashSet;

/// Flags (once per process) that a query's target score was non-finite.
/// A NaN target makes every `>`/`==` comparison false, which without the
/// guard in [`rank_of`] would count zero candidates above it and report a
/// *perfect* rank for a diverged model. Panicking here would instead abort
/// a whole evaluation run on the first bad query, so the contract is:
/// worst-case rank, loud warning.
fn warn_non_finite_target() {
    retia_obs::metrics::inc("eval.nonfinite_target");
    static WARN: std::sync::Once = std::sync::Once::new();
    WARN.call_once(|| {
        retia_obs::event!(
            retia_obs::Level::Warn,
            "eval.nonfinite_target";
            "non-finite target score encountered; reporting worst-case ranks \
             (the model has likely diverged)"
        );
    });
}

/// Average-tie rank of the candidate at `target` within `scores`
/// (1 = best). Ties contribute the mean of their occupied positions, so a
/// constant-score model ranks everything at `(n + 1) / 2` instead of 1.
///
/// A non-finite (NaN/±inf) target score yields the worst rank `n` — never
/// a silently perfect one. Non-finite *competitor* scores are treated as
/// worse than any finite target.
///
/// # Examples
///
/// ```
/// use retia_eval::rank_of;
///
/// assert_eq!(rank_of(&[0.1, 0.9, 0.3], 1), 1.0);
/// assert_eq!(rank_of(&[0.5, 0.5], 0), 1.5); // tie: average of ranks 1 and 2
/// assert_eq!(rank_of(&[0.1, f32::NAN, 0.3], 1), 3.0); // diverged → worst
/// ```
pub fn rank_of(scores: &[f32], target: usize) -> f64 {
    let t = scores[target];
    if !t.is_finite() {
        warn_non_finite_target();
        return scores.len() as f64;
    }
    let mut greater = 0usize;
    let mut equal = 0usize; // not counting the target itself
    for (i, &s) in scores.iter().enumerate() {
        if s > t {
            greater += 1;
        } else if s == t && i != target {
            equal += 1;
        }
    }
    let rank = greater as f64 + 1.0 + equal as f64 / 2.0;
    debug_assert!(
        rank >= 1.0 && rank <= scores.len() as f64,
        "rank {rank} out of [1, {}]",
        scores.len()
    );
    rank
}

/// Candidates to exclude under the time-aware filtered setting: all
/// ground-truth answers of the *same* query at the *same* timestamp, except
/// the target being ranked.
pub type FilterSet = HashSet<u32>;

/// Average-tie rank with the time-aware filter applied: candidates in
/// `filter` (other than `target`) are ignored entirely.
///
/// As with [`rank_of`], a non-finite target score yields the worst rank
/// over the unfiltered candidate pool.
pub fn rank_of_filtered(scores: &[f32], target: usize, filter: &FilterSet) -> f64 {
    let t = scores[target];
    if !t.is_finite() {
        warn_non_finite_target();
        let pool =
            (0..scores.len()).filter(|&i| i == target || !filter.contains(&(i as u32))).count();
        return pool as f64;
    }
    let mut greater = 0usize;
    let mut equal = 0usize;
    let mut pool = 0usize;
    for (i, &s) in scores.iter().enumerate() {
        if i != target && filter.contains(&(i as u32)) {
            continue;
        }
        pool += 1;
        if s > t {
            greater += 1;
        } else if s == t && i != target {
            equal += 1;
        }
    }
    let rank = greater as f64 + 1.0 + equal as f64 / 2.0;
    debug_assert!(rank >= 1.0 && rank <= pool as f64, "rank {rank} out of [1, {pool}]");
    rank
}

/// The `k` best-scoring candidate indices, in descending score order, using a
/// bounded min-heap (`O(n log k)` time, `O(k)` space — the serve path's
/// per-query cost after the cached decode).
///
/// Deterministic total order: ties break toward the lower index, and
/// non-finite scores sort below every finite score (a diverged score can
/// never crowd a real candidate out of the top-k). Returns fewer than `k`
/// entries only when there are fewer than `k` candidates.
pub fn top_k(scores: &[f32], k: usize) -> Vec<(u32, f32)> {
    use std::collections::BinaryHeap;

    if k == 0 {
        return Vec::new();
    }
    // Max-heap on badness: the root is the worst retained candidate and is
    // evicted whenever a better one arrives.
    let mut heap: BinaryHeap<((Reverse<i32>, u32), u32)> = BinaryHeap::with_capacity(k + 1);
    for (i, &s) in scores.iter().enumerate() {
        heap.push((badness(s, i as u32), i as u32));
        if heap.len() > k {
            heap.pop();
        }
    }
    let mut kept: Vec<((Reverse<i32>, u32), u32)> = heap.into_vec();
    kept.sort_by_key(|e| e.0);
    kept.iter().map(|&(_, i)| (i, scores[i as usize])).collect()
}

/// Badness key: greater = worse candidate. Non-finite scores are worst, then
/// lower (totally-ordered) score, then higher index. This is the *total*
/// order behind [`top_k`].
fn badness(score: f32, index: u32) -> (Reverse<i32>, u32) {
    let s = if score.is_finite() { score } else { f32::NEG_INFINITY };
    // Sign-magnitude float bits → a totally ordered integer key.
    let bits = s.to_bits() as i32;
    let ordered = if bits < 0 { !bits | i32::MIN } else { bits };
    (Reverse(ordered), index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_score_ranks_first() {
        assert_eq!(rank_of(&[0.1, 0.9, 0.3], 1), 1.0);
    }

    #[test]
    fn worst_score_ranks_last() {
        assert_eq!(rank_of(&[0.1, 0.9, 0.3], 0), 3.0);
    }

    #[test]
    fn ties_average() {
        // Target tied with one other at the top: positions 1 and 2 → 1.5.
        assert_eq!(rank_of(&[0.9, 0.9, 0.3], 0), 1.5);
        // All equal over 5 candidates → (5 + 1) / 2 = 3.
        assert_eq!(rank_of(&[1.0; 5], 2), 3.0);
    }

    #[test]
    fn filtered_removes_conflicting_truths() {
        // Candidates 0 and 1 beat the target 2, but 1 is another true answer.
        let scores = [0.9, 0.8, 0.5];
        let mut filter = FilterSet::new();
        filter.insert(1);
        assert_eq!(rank_of(&scores, 2), 3.0);
        assert_eq!(rank_of_filtered(&scores, 2, &filter), 2.0);
    }

    #[test]
    fn filter_never_removes_target() {
        let scores = [0.9, 0.5];
        let mut filter = FilterSet::new();
        filter.insert(1); // the target itself
        assert_eq!(rank_of_filtered(&scores, 1, &filter), 2.0);
    }

    #[test]
    fn nan_target_ranks_worst_not_first() {
        // The original bug: NaN at the target made every comparison false,
        // so a diverged model reported rank 1.0 (perfect MRR).
        assert_eq!(rank_of(&[0.1, f32::NAN, 0.3], 1), 3.0);
        assert_eq!(rank_of(&[f32::NAN, 0.2], 0), 2.0);
        // ±inf targets are equally untrustworthy.
        assert_eq!(rank_of(&[0.1, f32::INFINITY, 0.3], 1), 3.0);
        assert_eq!(rank_of(&[0.1, f32::NEG_INFINITY, 0.3], 1), 3.0);
    }

    #[test]
    fn nan_competitors_rank_below_finite_target() {
        // Finite target, NaN elsewhere: NaN candidates count as worse.
        assert_eq!(rank_of(&[f32::NAN, 0.5, f32::NAN], 1), 1.0);
        assert_eq!(rank_of(&[0.9, 0.5, f32::NAN], 1), 2.0);
    }

    #[test]
    fn all_nan_row_ranks_worst() {
        let scores = [f32::NAN; 7];
        assert_eq!(rank_of(&scores, 3), 7.0);
        let filter = FilterSet::new();
        assert_eq!(rank_of_filtered(&scores, 3, &filter), 7.0);
    }

    #[test]
    fn nan_target_filtered_ranks_worst_in_pool() {
        let scores = [f32::NAN, 0.8, 0.5, 0.2];
        let mut filter = FilterSet::new();
        filter.insert(1);
        // Pool is {0 (target), 2, 3} → worst rank 3, not 1 and not 4.
        assert_eq!(rank_of_filtered(&scores, 0, &filter), 3.0);
        // The filter never removes the target itself.
        filter.insert(0);
        assert_eq!(rank_of_filtered(&scores, 0, &filter), 3.0);
    }

    #[test]
    fn raw_equals_filtered_with_empty_filter() {
        let scores = [0.4, 0.2, 0.7, 0.1];
        let filter = FilterSet::new();
        for t in 0..scores.len() {
            assert_eq!(rank_of(&scores, t), rank_of_filtered(&scores, t, &filter));
        }
    }

    #[test]
    fn top_k_orders_descending() {
        let scores = [0.4, 0.2, 0.7, 0.1, 0.9];
        assert_eq!(top_k(&scores, 3), vec![(4, 0.9), (2, 0.7), (0, 0.4)]);
        assert_eq!(top_k(&scores, 0), vec![]);
        // k beyond n returns everything, still sorted.
        assert_eq!(top_k(&scores, 10).len(), 5);
        assert_eq!(top_k(&scores, 10)[4], (3, 0.1));
    }

    #[test]
    fn top_k_ties_break_toward_lower_index() {
        let scores = [0.5, 0.9, 0.5, 0.9, 0.5];
        assert_eq!(top_k(&scores, 4), vec![(1, 0.9), (3, 0.9), (0, 0.5), (2, 0.5)]);
    }

    #[test]
    fn top_k_negative_scores_order_correctly() {
        let scores = [-0.5, -0.1, -2.0, 0.25];
        assert_eq!(top_k(&scores, 4), vec![(3, 0.25), (1, -0.1), (0, -0.5), (2, -2.0)]);
    }

    #[test]
    fn top_k_nonfinite_sorts_last() {
        let scores = [f32::NAN, 0.2, f32::INFINITY, 0.8, f32::NEG_INFINITY];
        // +inf is non-finite and therefore untrusted: it must not displace
        // finite candidates.
        let got = top_k(&scores, 3);
        assert_eq!(got[0], (3, 0.8));
        assert_eq!(got[1], (1, 0.2));
        assert_eq!(got[2].0, 0); // first non-finite by index
    }

    #[test]
    fn top_k_matches_full_sort_on_finite_inputs() {
        let scores: Vec<f32> = (0..257).map(|i| ((i * 37 % 101) as f32) / 100.0).collect();
        let mut full: Vec<(u32, f32)> =
            scores.iter().copied().enumerate().map(|(i, s)| (i as u32, s)).collect();
        full.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        for k in [1, 2, 10, 101, 257] {
            assert_eq!(top_k(&scores, k), full[..k.min(full.len())].to_vec());
        }
    }
}

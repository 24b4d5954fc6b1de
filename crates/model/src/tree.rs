//! CART regression trees with variance-reduction splitting.
//!
//! Each tree greedily chooses, at every node, the (feature, threshold) pair
//! that minimizes the summed squared error of the two children. Thresholds
//! are the midpoints at up to [`TreeParams::threshold_candidates`]
//! quantiles of the node's distinct feature values.
//!
//! # How a fit runs
//!
//! The training set is stored column-major, once per fit: for every
//! feature, its bit-distinct values in `total_cmp` order (its *levels*)
//! and each sample's rank among them. A tree sees its samples as a list
//! of `u32` dataset indices: a forest's bootstrap bag, or `0..n` for a
//! lone tree. A node owns a contiguous range of that list. Splitting
//! partitions the range in place and stably, so each child keeps its
//! samples in the parent's order. The scratch buffers live for the whole
//! tree.
//!
//! For every feature examined at a node, the node's ranks are gathered
//! into a contiguous buffer once. Counting them by rank (or sorting them,
//! when the node holds few samples per level) yields the node's sorted
//! distinct values, and from those the thresholds. Then one pass over the
//! samples, in node order, per block of four thresholds updates each
//! threshold's left-child count, `Σy` and `Σy²`, branch-free and in
//! registers.
//!
//! # Why the sweep is bit-identical to a per-threshold scan
//!
//! The textbook fit rescans the node once per threshold and sums the
//! samples with `x <= threshold`. Floating-point addition is not
//! associative, so the result depends on each accumulator's *sequence* of
//! additions, not only on its addends. The sweep keeps that sequence: it visits the samples in the scan's order, and threshold
//! `t`'s accumulators take exactly the samples with `x <= t`, in that
//! order. A sample above the threshold adds `+0.0` instead of being
//! skipped. That is a no-op, because an accumulator that starts at `+0.0`
//! never becomes `-0.0` under round-to-nearest.
//!
//! The thresholds match too. Rank order is `total_cmp` order and equal
//! ranks are bit-identical values, so the node's distinct values equal the
//! scan's sorted, deduplicated values element for element; a NaN level is
//! kept once per occurrence, as the scan's dedup keeps every NaN. Node
//! means, the stop test, the children's sample order and the
//! feature-subsampling RNG draws also follow the scan. So every split,
//! leaf and forest equals the scan's bit for bit; `tests/fit_equivalence.rs`
//! keeps the scan as its oracle.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a single regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth; the root is depth 0.
    pub max_depth: usize,
    /// Minimum samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Number of features examined per split (`None` = all). Random
    /// forests set this to roughly √d to decorrelate trees.
    pub feature_subsample: Option<usize>,
    /// Candidate split thresholds examined per feature.
    pub threshold_candidates: usize,
}

impl Default for TreeParams {
    fn default() -> TreeParams {
        TreeParams {
            max_depth: 12,
            min_samples_leaf: 2,
            feature_subsample: None,
            threshold_candidates: 24,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A training set stored column-major as per-feature levels and ranks.
pub(crate) struct Columns {
    /// `levels[f]`: the bit-distinct values of feature `f`, ascending in
    /// `total_cmp` order.
    levels: Vec<Vec<f64>>,
    /// `ranks[f][i]`: the index in `levels[f]` of sample `i`'s value.
    ranks: Vec<Vec<u32>>,
}

impl Columns {
    /// Transposes and ranks row-major samples.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty, holds more than `u32::MAX` samples, or its
    /// rows have inconsistent lengths.
    pub(crate) fn new(xs: &[Vec<f64>]) -> Columns {
        assert!(!xs.is_empty(), "cannot fit a tree to zero samples");
        let num_features = xs[0].len();
        assert!(
            xs.iter().all(|x| x.len() == num_features),
            "inconsistent feature dimensionality"
        );
        assert!(
            u32::try_from(xs.len()).is_ok(),
            "training set exceeds u32 sample indices"
        );
        let mut levels = Vec::with_capacity(num_features);
        let mut ranks = Vec::with_capacity(num_features);
        let mut order: Vec<(f64, u32)> = Vec::with_capacity(xs.len());
        for f in 0..num_features {
            order.clear();
            order.extend(xs.iter().zip(0u32..).map(|(x, i)| (x[f], i)));
            order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let mut column_levels: Vec<f64> = Vec::new();
            let mut column_ranks = vec![0u32; xs.len()];
            for &(v, i) in &order {
                if column_levels
                    .last()
                    .is_none_or(|l| l.to_bits() != v.to_bits())
                {
                    column_levels.push(v);
                }
                column_ranks[i as usize] = (column_levels.len() - 1) as u32;
            }
            levels.push(column_levels);
            ranks.push(column_ranks);
        }
        Columns { levels, ranks }
    }

    pub(crate) fn num_features(&self) -> usize {
        self.ranks.len()
    }

    fn value(&self, feature: usize, sample: u32) -> f64 {
        self.levels[feature][self.ranks[feature][sample as usize] as usize]
    }
}

/// A fitted CART regression tree.
///
/// # Examples
///
/// ```
/// use gpm_model::{RegressionTree, TreeParams};
///
/// let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| if x[0] < 20.0 { 1.0 } else { 5.0 }).collect();
/// let tree = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 1);
/// assert!((tree.predict(&[3.0]) - 1.0).abs() < 1e-9);
/// assert!((tree.predict(&[33.0]) - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

impl RegressionTree {
    /// Fits a tree to `(xs, ys)`.
    ///
    /// `seed` drives feature subsampling; trees with
    /// `feature_subsample: None` are deterministic regardless of seed.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty, `ys.len() != xs.len()`, or feature vectors
    /// have inconsistent lengths.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: &TreeParams, seed: u64) -> RegressionTree {
        assert!(!xs.is_empty(), "cannot fit a tree to zero samples");
        assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
        let columns = Columns::new(xs);
        let mut samples: Vec<u32> = (0..xs.len() as u32).collect();
        RegressionTree::fit_columns(&columns, ys, &mut samples, params, seed)
    }

    /// Fits a tree to `samples` (dataset indices, repeats allowed, in the
    /// order the fit visits them) of `columns`. `samples` is permuted in
    /// place.
    pub(crate) fn fit_columns(
        columns: &Columns,
        ys: &[f64],
        samples: &mut [u32],
        params: &TreeParams,
        seed: u64,
    ) -> RegressionTree {
        let mut fitter = Fitter {
            columns,
            ys,
            params,
            rng: StdRng::seed_from_u64(seed),
            nodes: Vec::new(),
            scratch: Scratch::default(),
        };
        fitter.build(samples, 0);
        RegressionTree {
            nodes: fitter.nodes,
            num_features: columns.num_features(),
        }
    }

    /// Predicts the target for one feature vector.
    ///
    /// # Panics
    ///
    /// The dimensionality check is a `debug_assert!`: callers must pass a
    /// vector of exactly the training dimensionality
    /// ([`num_features`](RegressionTree::num_features)). Debug builds panic
    /// on a mismatch; release builds skip the per-call check (this sits on
    /// the optimizer's innermost loop) and a *shorter* vector then panics
    /// on the out-of-bounds feature access, while a longer one silently
    /// ignores the extra entries. Batch callers should validate once at
    /// the batch boundary instead.
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(
            x.len(),
            self.num_features,
            "feature dimensionality mismatch"
        );
        let mut node = 0usize;
        loop {
            match self.nodes[node] {
                Node::Leaf { value } => return value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[feature] <= threshold { left } else { right };
                }
            }
        }
    }

    /// Number of nodes in the fitted tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Dimensionality of the feature vectors the tree was fitted on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// The fitted node array (crate-internal; consumed by the flat
    /// inference engine).
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Whether the tree is a single leaf.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], at: usize) -> usize {
            match nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, left).max(walk(nodes, right)),
            }
        }
        walk(&self.nodes, 0)
    }
}

/// Thresholds whose left-child accumulators one sweep updates together.
const LANES: usize = 4;

/// Writes the distinct values of `ranks` (one feature's ranks at a node)
/// to `out` in ascending order, with a NaN level repeated once per
/// occurrence: equal ranks are bit-identical values, but NaN never equals
/// itself, so the scan's dedup keeps every NaN.
///
/// Counting by rank costs `O(m + levels)` and suits nodes holding many
/// samples per level; a sort costs `O(m log m)` and suits the rest. Both
/// produce the same list.
fn distinct_ranks_of(ranks: &[u32], levels: &[f64], counts: &mut Vec<usize>, out: &mut Vec<u32>) {
    out.clear();
    if levels.len() <= 8 * ranks.len() {
        counts.resize(counts.len().max(levels.len()), 0);
        for &r in ranks {
            counts[r as usize] += 1;
        }
        for (r, (count, level)) in (0u32..).zip(counts.iter_mut().zip(levels)) {
            if *count > 0 {
                let copies = if level.is_nan() { *count } else { 1 };
                out.extend(std::iter::repeat_n(r, copies));
                *count = 0;
            }
        }
    } else {
        out.extend_from_slice(ranks);
        out.sort_unstable();
        out.dedup_by(|a, b| a == b && !levels[*a as usize].is_nan());
    }
}

/// Buffers reused by every node of one tree fit.
#[derive(Default)]
struct Scratch {
    /// Features examined at the node, in examination order.
    features: Vec<usize>,
    /// The node's `(y, y²)` pairs, in sample order.
    ys: Vec<[f64; 2]>,
    /// The node's ranks of the feature under examination, in sample order.
    ranks: Vec<u32>,
    /// Per rank: how often it occurs at the node (all zero between uses).
    rank_counts: Vec<usize>,
    /// Those ranks ascending, each once (a NaN level once per sample).
    distinct_ranks: Vec<u32>,
    /// The node's distinct values of that feature, ascending.
    distinct: Vec<f64>,
    thresholds: Vec<f64>,
    /// Right-child samples while a node is partitioned.
    spill: Vec<u32>,
}

/// One tree fit in progress.
struct Fitter<'a> {
    columns: &'a Columns,
    ys: &'a [f64],
    params: &'a TreeParams,
    rng: StdRng,
    nodes: Vec<Node>,
    scratch: Scratch,
}

impl Fitter<'_> {
    fn leaf(&mut self, value: f64) -> usize {
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }

    fn build(&mut self, idx: &mut [u32], depth: usize) -> usize {
        let ys = self.ys;
        let mean = idx.iter().map(|&i| ys[i as usize]).sum::<f64>() / idx.len() as f64;
        let stop = depth >= self.params.max_depth
            || idx.len() < 2 * self.params.min_samples_leaf
            || idx.iter().all(|&i| (ys[i as usize] - mean).abs() < 1e-15);
        if stop {
            return self.leaf(mean);
        }
        let Some((feature, threshold)) = self.best_split(idx) else {
            return self.leaf(mean);
        };

        let split = self.partition(idx, feature, threshold);
        let (left_idx, right_idx) = idx.split_at_mut(split);
        // Reserve this node's slot before recursing.
        let slot = self.leaf(mean);
        let left = self.build(left_idx, depth + 1);
        let right = self.build(right_idx, depth + 1);
        self.nodes[slot] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }

    /// Stably moves the samples with `x[feature] <= threshold` to the
    /// front of `idx` and returns how many there are.
    fn partition(&mut self, idx: &mut [u32], feature: usize, threshold: f64) -> usize {
        let spill = &mut self.scratch.spill;
        spill.clear();
        let mut kept = 0;
        for r in 0..idx.len() {
            let i = idx[r];
            if self.columns.value(feature, i) <= threshold {
                idx[kept] = i;
                kept += 1;
            } else {
                spill.push(i);
            }
        }
        idx[kept..].copy_from_slice(spill);
        kept
    }

    fn best_split(&mut self, idx: &[u32]) -> Option<(usize, f64)> {
        let Fitter {
            columns,
            ys,
            params,
            rng,
            scratch,
            ..
        } = self;
        let Scratch {
            features,
            ys: node_ys,
            ranks,
            rank_counts,
            distinct_ranks,
            distinct,
            thresholds,
            ..
        } = scratch;
        let num_features = columns.num_features();

        features.clear();
        features.extend(0..num_features);
        if let Some(k) = params.feature_subsample {
            features.shuffle(rng);
            features.truncate(k.max(1).min(num_features));
        }

        node_ys.clear();
        node_ys.extend(idx.iter().map(|&i| {
            let y = ys[i as usize];
            [y, y * y]
        }));
        let n = idx.len() as f64;
        let sum: f64 = node_ys.iter().map(|p| p[0]).sum();
        let sum_sq: f64 = node_ys.iter().map(|p| p[1]).sum();
        let parent_sse_base = sum_sq - sum * sum / n;

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for &f in features.iter() {
            let levels = &columns.levels[f];
            if levels.len() < 2 {
                // A single level yields no threshold (or only NaN ones).
                continue;
            }
            let column_ranks = &columns.ranks[f];
            ranks.clear();
            ranks.extend(idx.iter().map(|&i| column_ranks[i as usize]));
            distinct_ranks_of(ranks, levels, rank_counts, distinct_ranks);
            distinct.clear();
            distinct.extend(distinct_ranks.iter().map(|&r| levels[r as usize]));
            distinct.dedup();
            if distinct.len() < 2 {
                continue;
            }
            let step = (distinct.len() - 1).max(1) as f64 / params.threshold_candidates as f64;
            thresholds.clear();
            let mut t = step;
            while t < (distinct.len() - 1) as f64 + 1e-9
                && thresholds.len() < params.threshold_candidates
            {
                let k = (t as usize).min(distinct.len() - 2);
                thresholds.push((distinct[k] + distinct[k + 1]) / 2.0);
                t += step.max(1e-9);
            }
            thresholds.dedup();

            // One pass in sample order per block of `LANES` thresholds,
            // its accumulators held in registers; see the module docs for
            // why this matches a per-threshold scan bit for bit.
            for block in thresholds.chunks(LANES) {
                // Spare lanes hold NaN, which admits no sample.
                let mut lane_thresholds = [f64::NAN; LANES];
                lane_thresholds[..block.len()].copy_from_slice(block);
                let mut nl = [0.0f64; LANES];
                let mut sl = [0.0f64; LANES];
                let mut ql = [0.0f64; LANES];
                for (&r, &[y, y_sq]) in ranks.iter().zip(node_ys.iter()) {
                    let x = levels[r as usize];
                    for k in 0..LANES {
                        let under = x <= lane_thresholds[k];
                        nl[k] += if under { 1.0 } else { 0.0 };
                        sl[k] += if under { y } else { 0.0 };
                        ql[k] += if under { y_sq } else { 0.0 };
                    }
                }
                for (k, &thr) in block.iter().enumerate() {
                    let (nl, sl, ql) = (nl[k], sl[k], ql[k]);
                    let nr = n - nl;
                    if (nl as usize) < params.min_samples_leaf
                        || (nr as usize) < params.min_samples_leaf
                    {
                        continue;
                    }
                    let sr = sum - sl;
                    let qr = sum_sq - ql;
                    let sse = (ql - sl * sl / nl) + (qr - sr * sr / nr);
                    if sse < parent_sse_base - 1e-12 && best.is_none_or(|(_, _, b)| sse < b) {
                        best = Some((f, thr, sse));
                    }
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] < 50.0 { -2.0 } else { 4.0 })
            .collect();
        (xs, ys)
    }

    #[test]
    fn learns_step_function_exactly() {
        let (xs, ys) = step_data();
        let tree = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 1);
        assert!((tree.predict(&[10.0, 0.0]) + 2.0).abs() < 1e-9);
        assert!((tree.predict(&[80.0, 0.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys = vec![7.5; 20];
        let tree = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 1);
        assert!(tree.is_empty());
        assert_eq!(tree.predict(&[123.0]), 7.5);
    }

    #[test]
    fn depth_zero_is_mean_predictor() {
        let (xs, ys) = step_data();
        let params = TreeParams {
            max_depth: 0,
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(&xs, &ys, &params, 1);
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        assert!((tree.predict(&[0.0, 0.0]) - mean).abs() < 1e-9);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let (xs, ys) = step_data();
        let params = TreeParams {
            min_samples_leaf: 60,
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(&xs, &ys, &params, 1);
        // 100 samples cannot split into two leaves of ≥60.
        assert!(tree.is_empty());
    }

    #[test]
    fn deeper_trees_fit_finer_structure() {
        let xs: Vec<Vec<f64>> = (0..128).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] / 16.0).floor()).collect();
        let shallow = RegressionTree::fit(
            &xs,
            &ys,
            &TreeParams {
                max_depth: 1,
                ..TreeParams::default()
            },
            1,
        );
        let deep = RegressionTree::fit(
            &xs,
            &ys,
            &TreeParams {
                max_depth: 8,
                ..TreeParams::default()
            },
            1,
        );
        let sse = |t: &RegressionTree| -> f64 {
            xs.iter()
                .zip(&ys)
                .map(|(x, y)| (t.predict(x) - y).powi(2))
                .sum()
        };
        assert!(sse(&deep) < sse(&shallow) * 0.2);
        assert!(deep.depth() > shallow.depth());
    }

    #[test]
    fn multifeature_splits_pick_informative_feature() {
        // Feature 1 is pure noise; feature 0 carries the signal.
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i / 2) as f64, (i * 37 % 11) as f64])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] < 50.0 { 0.0 } else { 10.0 })
            .collect();
        let tree = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 1);
        assert!((tree.predict(&[10.0, 5.0]) - 0.0).abs() < 1e-9);
        assert!((tree.predict(&[90.0, 5.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_fit_panics() {
        let _ = RegressionTree::fit(&[], &[], &TreeParams::default(), 1);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = RegressionTree::fit(&[vec![1.0]], &[1.0, 2.0], &TreeParams::default(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dimensionality mismatch")]
    fn predict_wrong_arity_panics() {
        let tree = RegressionTree::fit(
            &[vec![1.0], vec![2.0], vec![3.0], vec![4.0]],
            &[1.0, 2.0, 3.0, 4.0],
            &TreeParams::default(),
            1,
        );
        let _ = tree.predict(&[1.0, 2.0]);
    }

    #[test]
    fn fit_is_deterministic_without_subsampling() {
        let (xs, ys) = step_data();
        let a = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 1);
        let b = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 999);
        for x in &xs {
            assert_eq!(a.predict(x), b.predict(x));
        }
    }

    /// Both strategies of `distinct_ranks_of` must list exactly the
    /// per-threshold scan's sorted, `==`-deduplicated values, NaN
    /// repeats included.
    #[test]
    fn distinct_ranks_match_sorted_dedup_on_dense_and_sparse_nodes() {
        use rand::Rng;
        let pool = [-f64::NAN, -1.5, -0.0, 0.0, 2.0, f64::INFINITY, f64::NAN];
        let mut rng = StdRng::seed_from_u64(5);
        for rows in [3usize, 40, 400] {
            let mut xs: Vec<Vec<f64>> = (0..rows)
                .map(|_| vec![pool[rng.gen_range(0..pool.len())]])
                .collect();
            // Many distinct levels, so small nodes take the sorting path.
            xs.extend((0..200).map(|i| vec![i as f64 * 0.25]));
            let columns = Columns::new(&xs);
            let levels = &columns.levels[0];
            let (mut counts, mut out) = (Vec::new(), Vec::new());
            for node_len in [2usize, 5, 60, xs.len()] {
                let node: Vec<u32> = (0..node_len)
                    .map(|_| rng.gen_range(0..xs.len() as u32))
                    .collect();
                let ranks: Vec<u32> = node.iter().map(|&i| columns.ranks[0][i as usize]).collect();
                distinct_ranks_of(&ranks, levels, &mut counts, &mut out);
                let mut got: Vec<f64> = out.iter().map(|&r| levels[r as usize]).collect();
                got.dedup();
                let mut want: Vec<f64> = node.iter().map(|&i| xs[i as usize][0]).collect();
                want.sort_by(|a, b| a.total_cmp(b));
                want.dedup();
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{node_len} samples"
                );
                assert!(counts.iter().all(|&c| c == 0), "counts left dirty");
            }
        }
    }
}

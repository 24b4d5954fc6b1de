//! Batched, allocation-free forest inference (the MPC hot-path engine).
//!
//! A fitted [`RegressionTree`] stores an enum node
//! array (~40 bytes per node, pointer-chased per prediction). This module
//! re-lays each tree into a structure-of-arrays [`FlatTree`] — contiguous
//! `u16` feature ids, `f64` thresholds, and `u32` right-child indices,
//! with the left child always the next slot — and walks **tree-major**
//! over a row-major [`FeatureMatrix`]: each tree's three small arrays
//! stay cache-hot while every candidate row runs through it, instead of
//! the whole multi-megabyte forest being re-walked per candidate.
//!
//! The engine is *decision-invariant* by construction: every comparison
//! (`x[feature] <= threshold`), every leaf value, and the per-row
//! accumulation order (tree 0, tree 1, …, then one division by the tree
//! count) are exactly those of the nested traversal, so predictions are
//! bit-identical to [`RandomForest::predict`] — the equivalence tests in
//! this module and in `tests/flat_equivalence.rs` pin that guarantee.
//!
//! On top of the flat layout, [`FlatForest::specialize_into`] partially
//! evaluates a forest against a batch's shared counter prefix, producing
//! a [`PrunedForest`] whose interleaved walk compares only the six
//! config features of compact suffix rows — the engine actually run per
//! candidate sweep.

use crate::features::FeatureMatrix;
use crate::forest::RandomForest;
use crate::tree::{Node, RegressionTree};

/// Sentinel feature id marking a leaf; the threshold lane then holds the
/// leaf value.
const LEAF: u16 = u16::MAX;

/// One regression tree in structure-of-arrays form.
///
/// Layout invariants, validated at construction:
/// * the left child of the split at slot `i` is slot `i + 1` (the fitted
///   builder reserves a node's slot before recursing left, so the nested
///   array already satisfies this — flattening is a re-encoding, not a
///   re-ordering);
/// * every right-child index is `> i` and `< len` (traversal strictly
///   advances, so it always terminates);
/// * every feature id is `< num_features`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatTree {
    /// Feature id per node; [`LEAF`] marks leaves.
    feature: Vec<u16>,
    /// Split threshold per node; holds the leaf value at leaves.
    threshold: Vec<f64>,
    /// Right-child index per node; unused (0) at leaves.
    right: Vec<u32>,
}

impl FlatTree {
    /// Flattens a fitted tree.
    ///
    /// # Panics
    ///
    /// Panics if the tree has no nodes or violates the layout invariants
    /// above — possible only for a corrupted (hand-deserialized) tree,
    /// never for one produced by [`RegressionTree::fit`]. Deserializing
    /// a `RandomForestPredictor` checks the same conditions first and
    /// fails instead.
    pub fn from_tree(tree: &RegressionTree) -> FlatTree {
        if let Err(e) = FlatTree::check(tree) {
            panic!("{e}");
        }
        let nodes = tree.nodes();
        let mut flat = FlatTree {
            feature: Vec::with_capacity(nodes.len()),
            threshold: Vec::with_capacity(nodes.len()),
            right: Vec::with_capacity(nodes.len()),
        };
        for node in nodes {
            match *node {
                Node::Leaf { value } => {
                    flat.feature.push(LEAF);
                    flat.threshold.push(value);
                    flat.right.push(0);
                }
                Node::Split {
                    feature,
                    threshold,
                    right,
                    ..
                } => {
                    flat.feature.push(feature as u16);
                    flat.threshold.push(threshold);
                    flat.right.push(right as u32);
                }
            }
        }
        flat
    }

    /// Checks that `tree` can be flattened: a non-empty node list, a
    /// feature dimensionality and node count that fit the id spaces, and
    /// the layout invariants above. Returns the first violation.
    pub(crate) fn check(tree: &RegressionTree) -> Result<(), String> {
        let nodes = tree.nodes();
        let num_features = tree.num_features();
        if nodes.is_empty() {
            return Err("tree has no nodes".to_string());
        }
        if num_features >= LEAF as usize {
            return Err(format!(
                "feature dimensionality {num_features} overflows the u16 id space"
            ));
        }
        if nodes.len() > u32::MAX as usize {
            return Err("tree too large for u32 child indices".to_string());
        }
        for (i, node) in nodes.iter().enumerate() {
            if let Node::Split {
                feature,
                left,
                right,
                ..
            } = *node
            {
                if left != i + 1 {
                    return Err(format!("split at {i} has non-adjacent left child {left}"));
                }
                if right <= i || right >= nodes.len() {
                    return Err(format!("split at {i} has out-of-range right child {right}"));
                }
                if feature >= num_features {
                    return Err(format!(
                        "split at {i} references feature {feature} >= {num_features}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.feature.len()
    }

    /// Whether the tree is a single leaf.
    pub fn is_empty(&self) -> bool {
        self.feature.len() <= 1
    }

    /// Walks one feature row to its leaf.
    ///
    /// The row must have the fitted dimensionality; the construction-time
    /// feature-id bound makes the `row[f]` access in-range whenever it
    /// does (callers assert the width once per batch).
    #[inline]
    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            let f = self.feature[i];
            let t = self.threshold[i];
            if f == LEAF {
                return t;
            }
            i = if row[f as usize] <= t {
                i + 1
            } else {
                self.right[i] as usize
            };
        }
    }

    /// Appends the subtree rooted at `root`, specialized against
    /// `prefix`, to `out`, returning the emitted subtree's depth in edges
    /// (see [`FlatForest::specialize_into`]).
    ///
    /// Splits on prefix features compare once here — with exactly the
    /// `x[f] <= t` semantics of the full walk — and collapse to the taken
    /// side; splits on suffix features are re-emitted (left child first,
    /// preserving the left-is-next-slot layout). Recursion depth is
    /// bounded by the emitted depth, itself bounded by the fitted tree
    /// depth.
    fn specialize_node(
        &self,
        root: usize,
        prefix: &[f64],
        prefix_len: usize,
        out: &mut PrunedForest,
    ) -> u32 {
        let mut i = root;
        // Resolve the chain of prefix-feature splits leading to the next
        // emitted node.
        let (slot, left, right) = loop {
            let f = self.feature[i];
            let t = self.threshold[i];
            if f == LEAF {
                out.nodes.push(PrunedNode {
                    threshold: t,
                    feature: PRUNED_LEAF,
                    right: 0,
                });
                return 0;
            }
            let fi = f as usize;
            if fi < prefix_len {
                i = if prefix[fi] <= t {
                    i + 1
                } else {
                    self.right[i] as usize
                };
                continue;
            }
            let slot = out.nodes.len();
            out.nodes.push(PrunedNode {
                threshold: t,
                feature: (fi - prefix_len) as u32,
                right: 0,
            });
            break (slot, i + 1, self.right[i] as usize);
        };
        let left_depth = self.specialize_node(left, prefix, prefix_len, out);
        out.nodes[slot].right = out.nodes.len() as u32;
        let right_depth = self.specialize_node(right, prefix, prefix_len, out);
        1 + left_depth.max(right_depth)
    }
}

/// A [`FlatForest`] partially evaluated against one snapshot's shared
/// feature prefix — the per-batch engine behind the Random-Forest
/// predictor's `predict_batch`.
///
/// Within one knob sweep every candidate row carries the *same* counter
/// prefix (written once by
/// [`FeatureBuffer::begin_snapshot`](crate::FeatureBuffer::begin_snapshot))
/// and differs only in the config suffix. Every tree split on a prefix
/// feature therefore takes the same branch for all rows; specialization
/// resolves those splits once and keeps only the suffix splits, so the
/// per-row walk touches a handful of nodes instead of the full tree
/// depth.
///
/// The buffers are reused across [`FlatForest::specialize_into`] calls —
/// steady-state specialization allocates nothing.
///
/// Nodes are stored array-of-structs: one 16-byte `PrunedNode` holds the
/// threshold, feature id, and right-child index together, so each walk
/// step touches a single cache line instead of three parallel arrays —
/// the pruned power forest typically spills past L1, where that halves
/// the loads in the dependent chain.
#[derive(Debug, Clone, Default)]
pub struct PrunedForest {
    nodes: Vec<PrunedNode>,
    roots: Vec<u32>,
    /// Depth in edges of each pruned tree, index-aligned with `roots`;
    /// lets the interleaved walk run an exact-count loop with no per-step
    /// are-all-lanes-done reduction.
    depths: Vec<u32>,
    num_features: usize,
    /// The `prefix_len` the forest was specialized with; node feature ids
    /// are stored relative to it, so the hot walk can run over compact
    /// suffix-only rows.
    suffix_base: usize,
}

/// Leaf sentinel in `PrunedNode::feature`; the threshold lane then
/// holds the leaf value.
const PRUNED_LEAF: u32 = u32::MAX;

/// One specialized split or leaf, packed into 16 bytes.
#[derive(Debug, Clone, Copy)]
struct PrunedNode {
    /// Split threshold, or the leaf value when `feature` is
    /// [`PRUNED_LEAF`].
    threshold: f64,
    /// Feature id compared at this node, relative to
    /// [`PrunedForest::suffix_base`].
    feature: u32,
    /// Right-child index; the left child is always the next slot.
    right: u32,
}

impl PrunedForest {
    /// Number of nodes across all pruned trees (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether every tree pruned down to a single leaf.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= self.roots.len()
    }

    /// Width of the compact suffix rows
    /// [`predict_suffix_batch_into`](PrunedForest::predict_suffix_batch_into)
    /// expects.
    pub fn suffix_width(&self) -> usize {
        self.num_features - self.suffix_base
    }

    /// Prices every row of `matrix`, writing the per-row forest means
    /// into `out` (cleared and refilled, allocation reused).
    ///
    /// Bit-identical to [`FlatForest::predict_batch_into`] on the source
    /// forest **provided** every row carries the prefix the forest was
    /// specialized against: the walk performs the same suffix
    /// comparisons, reaches the same leaves, and accumulates in the same
    /// tree order before one division per row. The interleaved hot path
    /// is [`predict_suffix_batch_into`](PrunedForest::predict_suffix_batch_into);
    /// this full-width walk is the plain reference form.
    ///
    /// # Panics
    ///
    /// Panics when the matrix width differs from the fitted
    /// dimensionality.
    pub fn predict_batch_into(&self, matrix: &FeatureMatrix, out: &mut Vec<f64>) {
        assert_eq!(
            crate::features::NUM_FEATURES,
            self.num_features,
            "feature matrix width differs from fitted dimensionality"
        );
        out.clear();
        out.resize(matrix.rows(), 0.0);
        for &root in &self.roots {
            for (acc, row) in out.iter_mut().zip(matrix.iter_rows()) {
                let mut i = root as usize;
                loop {
                    let node = self.nodes[i];
                    if node.feature == PRUNED_LEAF {
                        *acc += node.threshold;
                        break;
                    }
                    i = if row[self.suffix_base + node.feature as usize] <= node.threshold {
                        i + 1
                    } else {
                        node.right as usize
                    };
                }
            }
        }
        let n = self.roots.len() as f64;
        for acc in out.iter_mut() {
            *acc /= n;
        }
    }

    /// Prices compact suffix-only rows — the batch hot path.
    ///
    /// `suffix` is row-major with
    /// [`suffix_width`](PrunedForest::suffix_width) columns per row: just
    /// the features past the specialization prefix (for the power/perf
    /// model, the six config features — 6×8 bytes per row instead of the
    /// full 14, so a whole campaign sweep stays L1-resident next to the
    /// pruned nodes). Bit-identical to
    /// [`predict_batch_into`](PrunedForest::predict_batch_into) on rows
    /// whose suffix matches.
    ///
    /// # Panics
    ///
    /// Panics when `suffix.len()` is not a multiple of the suffix width.
    pub fn predict_suffix_batch_into(&self, suffix: &[f64], out: &mut Vec<f64>) {
        let width = self.suffix_width();
        assert_eq!(
            suffix.len() % width.max(1),
            0,
            "suffix rows must be {width} wide"
        );
        let rows = suffix.len() / width.max(1);
        out.clear();
        out.resize(rows, 0.0);
        let row_at = |r: usize| &suffix[r * width..r * width + width];
        let nodes = &self.nodes[..];
        for (&root, &depth) in self.roots.iter().zip(&self.depths) {
            let root = root as usize;
            // Eight interleaved traversals, advanced exactly `depth`
            // times: each walk is a dependent load chain (node → feature
            // → compare → next node), so advancing independent rows side
            // by side hides that latency. A lane that reaches its leaf
            // early parks there (`i` unchanged) — after `depth` steps
            // every lane sits at exactly the leaf the scalar walk
            // reaches, with no per-step are-we-done reduction.
            let mut r = 0;
            while r + 8 <= rows {
                let (r0, r1) = (row_at(r), row_at(r + 1));
                let (r2, r3) = (row_at(r + 2), row_at(r + 3));
                let (r4, r5) = (row_at(r + 4), row_at(r + 5));
                let (r6, r7) = (row_at(r + 6), row_at(r + 7));
                let (mut i0, mut i1, mut i2, mut i3) = (root, root, root, root);
                let (mut i4, mut i5, mut i6, mut i7) = (root, root, root, root);
                for _ in 0..depth {
                    i0 = step(i0, nodes[i0], r0);
                    i1 = step(i1, nodes[i1], r1);
                    i2 = step(i2, nodes[i2], r2);
                    i3 = step(i3, nodes[i3], r3);
                    i4 = step(i4, nodes[i4], r4);
                    i5 = step(i5, nodes[i5], r5);
                    i6 = step(i6, nodes[i6], r6);
                    i7 = step(i7, nodes[i7], r7);
                }
                out[r] += nodes[i0].threshold;
                out[r + 1] += nodes[i1].threshold;
                out[r + 2] += nodes[i2].threshold;
                out[r + 3] += nodes[i3].threshold;
                out[r + 4] += nodes[i4].threshold;
                out[r + 5] += nodes[i5].threshold;
                out[r + 6] += nodes[i6].threshold;
                out[r + 7] += nodes[i7].threshold;
                r += 8;
            }
            for (rr, acc) in out.iter_mut().enumerate().skip(r) {
                let row = row_at(rr);
                let mut i = root;
                loop {
                    let node = nodes[i];
                    if node.feature == PRUNED_LEAF {
                        *acc += node.threshold;
                        break;
                    }
                    i = if row[node.feature as usize] <= node.threshold {
                        i + 1
                    } else {
                        node.right as usize
                    };
                }
            }
        }
        let n = self.roots.len() as f64;
        for acc in out.iter_mut() {
            *acc /= n;
        }
    }
}

/// One interleaved-walk step: leaves self-loop, splits advance.
#[inline(always)]
fn step(i: usize, node: PrunedNode, row: &[f64]) -> usize {
    if node.feature == PRUNED_LEAF {
        i
    } else if row[node.feature as usize] <= node.threshold {
        i + 1
    } else {
        node.right as usize
    }
}

/// A whole forest in flat form: the batched inference engine.
///
/// # Examples
///
/// ```
/// use gpm_model::{FlatForest, ForestParams, RandomForest};
///
/// let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0]).collect();
/// let forest = RandomForest::fit(&xs, &ys, &ForestParams::default(), 7);
/// let flat = FlatForest::from_forest(&forest);
/// // Bit-identical to the nested traversal.
/// assert_eq!(flat.predict(&[30.0]), forest.predict(&[30.0]));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatForest {
    trees: Vec<FlatTree>,
    num_features: usize,
}

impl FlatForest {
    /// Flattens every tree of a fitted forest.
    ///
    /// # Panics
    ///
    /// Propagates the [`FlatTree::from_tree`] invariant panics.
    pub fn from_forest(forest: &RandomForest) -> FlatForest {
        FlatForest {
            trees: forest.trees().iter().map(FlatTree::from_tree).collect(),
            num_features: forest
                .trees()
                .first()
                .map_or(0, RegressionTree::num_features),
        }
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Dimensionality the forest was fitted on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Mean prediction over all trees for one row — bit-identical to
    /// [`RandomForest::predict`] on the source forest.
    ///
    /// # Panics
    ///
    /// Panics if `row` is narrower than the fitted dimensionality (via the
    /// feature access; see [`RegressionTree::predict`]'s contract).
    pub fn predict(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.num_features, "feature dimensionality");
        let mut sum = 0.0;
        for tree in &self.trees {
            sum += tree.predict_row(row);
        }
        sum / self.trees.len() as f64
    }

    /// Prices every row of `matrix` in one tree-major pass, writing the
    /// per-row forest means into `out` (cleared and refilled; the
    /// allocation is reused across calls, so steady-state batches
    /// allocate nothing).
    ///
    /// Per-row results are bit-identical to calling
    /// [`predict`](FlatForest::predict) on each row: trees accumulate in
    /// the same order and the division happens once per row.
    ///
    /// # Panics
    ///
    /// Panics when the matrix width differs from the fitted
    /// dimensionality — the batch-boundary check that replaces the
    /// demoted per-call assertions.
    pub fn predict_batch_into(&self, matrix: &FeatureMatrix, out: &mut Vec<f64>) {
        assert_eq!(
            crate::features::NUM_FEATURES,
            self.num_features,
            "feature matrix width differs from fitted dimensionality"
        );
        out.clear();
        out.resize(matrix.rows(), 0.0);
        for tree in &self.trees {
            for (acc, row) in out.iter_mut().zip(matrix.iter_rows()) {
                *acc += tree.predict_row(row);
            }
        }
        let n = self.trees.len() as f64;
        for acc in out.iter_mut() {
            *acc /= n;
        }
    }

    /// Allocating convenience wrapper around
    /// [`predict_batch_into`](FlatForest::predict_batch_into).
    pub fn predict_batch(&self, matrix: &FeatureMatrix) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_batch_into(matrix, &mut out);
        out
    }

    /// Partially evaluates every tree against the first `prefix_len`
    /// features of `prefix`, rebuilding `out` in place.
    ///
    /// `prefix` is typically a batch's first row: within one knob sweep
    /// all rows share a bit-identical counter prefix, so splits on those
    /// features resolve to the same side for every row and can be
    /// collapsed once here instead of being re-compared per row. The
    /// resulting [`PrunedForest`] predicts bit-identically to this forest
    /// for any row that carries that exact prefix.
    ///
    /// # Panics
    ///
    /// Panics when `prefix` is shorter than `prefix_len`.
    pub fn specialize_into(&self, prefix: &[f64], prefix_len: usize, out: &mut PrunedForest) {
        let _span = gpm_telemetry::span("flat.specialize");
        assert!(
            prefix.len() >= prefix_len,
            "prefix row narrower than prefix_len"
        );
        out.nodes.clear();
        out.roots.clear();
        out.depths.clear();
        out.num_features = self.num_features;
        out.suffix_base = prefix_len;
        for tree in &self.trees {
            let root = out.nodes.len() as u32;
            let depth = tree.specialize_node(0, prefix, prefix_len, out);
            out.roots.push(root);
            out.depths.push(depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{encode_features, FeatureBuffer, NUM_FEATURES};
    use crate::forest::ForestParams;
    use crate::tree::TreeParams;
    use gpm_hw::{ConfigSpace, HwConfig};
    use gpm_sim::CounterSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random regression problem of the model's real dimensionality.
    fn random_problem(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..NUM_FEATURES)
                    .map(|_| rng.gen_range(-5.0..5.0))
                    .collect()
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x[0] * 2.0 - x[3] + (x[7] * x[1]).sin() + rng.gen_range(-0.1..0.1))
            .collect();
        (xs, ys)
    }

    #[test]
    fn flat_predictions_bit_identical_to_nested_across_random_forests() {
        for seed in 0..8u64 {
            let (xs, ys) = random_problem(seed, 160);
            let params = ForestParams {
                num_trees: 9,
                tree: TreeParams {
                    max_depth: 7,
                    min_samples_leaf: 2,
                    feature_subsample: None,
                    threshold_candidates: 8,
                },
                bootstrap_fraction: 0.8,
            };
            let forest = RandomForest::fit(&xs, &ys, &params, seed ^ 0xDEAD);
            let flat = FlatForest::from_forest(&forest);
            for x in &xs {
                assert_eq!(
                    flat.predict(x).to_bits(),
                    forest.predict(x).to_bits(),
                    "seed {seed}: flat and nested traversal diverged"
                );
            }
        }
    }

    #[test]
    fn batch_predictions_bit_identical_to_looped_scalar() {
        let sim_counters = CounterSet::from_values([1e8, 40.0, 60.0, 1e5, 6.0, 3.0, 1e6, 1e6]);
        let space = ConfigSpace::paper_campaign();
        let xs: Vec<Vec<f64>> = space
            .iter()
            .map(|cfg| encode_features(&sim_counters, cfg))
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[11] * 3.0 - x[12]).collect();
        let forest = RandomForest::fit(&xs, &ys, &ForestParams::default(), 5);
        let flat = FlatForest::from_forest(&forest);

        let mut buf = FeatureBuffer::new();
        buf.begin_snapshot(&sim_counters);
        for cfg in &space {
            buf.push_config(cfg);
        }
        let batch = flat.predict_batch(buf.matrix());
        assert_eq!(batch.len(), space.len());
        for (out, x) in batch.iter().zip(&xs) {
            assert_eq!(out.to_bits(), forest.predict(x).to_bits());
            assert_eq!(out.to_bits(), flat.predict(x).to_bits());
        }
    }

    #[test]
    fn batch_into_reuses_allocation() {
        let (xs, ys) = random_problem(3, 80);
        let forest = RandomForest::fit(
            &xs,
            &ys,
            &ForestParams {
                num_trees: 4,
                ..ForestParams::default()
            },
            1,
        );
        let flat = FlatForest::from_forest(&forest);
        let mut buf = FeatureBuffer::new();
        buf.begin_snapshot(&CounterSet::default());
        for cfg in &ConfigSpace::paper_campaign() {
            buf.push_config(cfg);
        }
        let mut out = Vec::new();
        flat.predict_batch_into(buf.matrix(), &mut out);
        let cap = out.capacity();
        let first = out.clone();
        flat.predict_batch_into(buf.matrix(), &mut out);
        assert_eq!(out, first);
        assert_eq!(out.capacity(), cap, "refill must not reallocate");
    }

    #[test]
    fn specialized_forest_bit_identical_for_shared_prefix_rows() {
        use crate::features::NUM_CONFIG_FEATURES;
        const PREFIX: usize = NUM_FEATURES - NUM_CONFIG_FEATURES;
        for seed in 0..6u64 {
            let counters = {
                let mut rng = StdRng::seed_from_u64(seed);
                CounterSet::from_values([
                    rng.gen_range(0.0..1e9),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..1e6),
                    rng.gen_range(0.0..16.0),
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..1e7),
                    rng.gen_range(0.0..1e7),
                ])
            };
            let space = ConfigSpace::paper_campaign();
            // Train across several snapshots so the fitted trees split on
            // counter features too — otherwise there is nothing to prune.
            let other_a = CounterSet::from_values([9e8, 80.0, 20.0, 9e5, 15.0, 1.0, 9e6, 1e5]);
            let other_b = CounterSet::from_values([1e6, 5.0, 95.0, 1e3, 1.0, 9.0, 1e4, 8e6]);
            let xs: Vec<Vec<f64>> = [&counters, &other_a, &other_b]
                .into_iter()
                .flat_map(|c| space.iter().map(move |cfg| encode_features(c, cfg)))
                .collect();
            let ys: Vec<f64> = xs
                .iter()
                .map(|x| x[0] * 1e-9 + x[9] - 2.0 * x[12])
                .collect();
            let forest = RandomForest::fit(&xs, &ys, &ForestParams::default(), seed);
            let flat = FlatForest::from_forest(&forest);

            let mut buf = FeatureBuffer::new();
            buf.begin_snapshot(&counters);
            for cfg in &space {
                buf.push_config(cfg);
            }
            let mut pruned = PrunedForest::default();
            flat.specialize_into(buf.matrix().row(0), PREFIX, &mut pruned);
            assert!(
                pruned.len() < flat.trees.iter().map(FlatTree::len).sum::<usize>(),
                "seed {seed}: specialization removed no nodes"
            );
            let mut fast = Vec::new();
            pruned.predict_batch_into(buf.matrix(), &mut fast);
            let full = flat.predict_batch(buf.matrix());
            for (i, (a, b)) in fast.iter().zip(&full).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "seed {seed}, row {i}: pruned and full walks diverged"
                );
            }
            // The compact suffix-only walk (the hot path) must agree too.
            assert_eq!(pruned.suffix_width(), NUM_CONFIG_FEATURES);
            let suffix: Vec<f64> = buf
                .matrix()
                .iter_rows()
                .flat_map(|row| row[PREFIX..].to_vec())
                .collect();
            let mut compact = Vec::new();
            pruned.predict_suffix_batch_into(&suffix, &mut compact);
            for (i, (a, b)) in compact.iter().zip(&full).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "seed {seed}, row {i}: compact suffix walk diverged"
                );
            }
            // Reuse: re-specializing against another snapshot stays correct.
            let counters2 = CounterSet::from_values([5e8, 10.0, 90.0, 2e5, 3.0, 7.0, 4e6, 9e5]);
            let mut buf2 = FeatureBuffer::new();
            buf2.begin_snapshot(&counters2);
            for cfg in &space {
                buf2.push_config(cfg);
            }
            flat.specialize_into(buf2.matrix().row(0), PREFIX, &mut pruned);
            pruned.predict_batch_into(buf2.matrix(), &mut fast);
            let full2 = flat.predict_batch(buf2.matrix());
            for (a, b) in fast.iter().zip(&full2) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn single_leaf_tree_flattens() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64; NUM_FEATURES]).collect();
        let ys = vec![7.5; 20];
        let forest = RandomForest::fit(
            &xs,
            &ys,
            &ForestParams {
                num_trees: 2,
                ..ForestParams::default()
            },
            1,
        );
        let flat = FlatForest::from_forest(&forest);
        assert_eq!(flat.predict(&xs[0]), 7.5);
        assert!(flat.trees.iter().all(FlatTree::is_empty));
    }

    #[test]
    fn flat_forest_reports_shape() {
        let (xs, ys) = random_problem(9, 60);
        let params = ForestParams {
            num_trees: 5,
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&xs, &ys, &params, 2);
        let flat = FlatForest::from_forest(&forest);
        assert_eq!(flat.num_trees(), 5);
        assert_eq!(flat.num_features(), NUM_FEATURES);
        assert!(flat.trees.iter().all(|t| !t.feature.is_empty()));
        let _ = HwConfig::FAIL_SAFE; // keep the hw import exercised in all cfgs
    }
}

//! Bit-identity of the CART fit against the per-threshold scan it
//! replaced.
//!
//! `oracle` below is the earlier fit, kept verbatim: row-major bootstrap
//! copies, a sort per node and feature, and one rescan of the node's
//! samples per candidate threshold. Every property fits the same data with
//! both and requires the two results to print the same `Debug` text, which
//! spells out every float (so `-0.0` differs from `0.0`, and infinities
//! and NaN show). Where every float is finite, the oracle's model is also
//! read back through JSON and compared with `assert_eq!` as a
//! [`RegressionTree`] / [`RandomForest`] value.

use gpm_harness::{training_kernels, training_space, EvalOptions};
use gpm_hw::HwConfig;
use gpm_model::{Dataset, ForestParams, RandomForest, RegressionTree, TreeParams};
use gpm_sim::ApuSimulator;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The fit before the column-major rewrite, kept as the reference.
mod oracle {
    use gpm_model::{ForestParams, TreeParams};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::Rng;
    use rand::SeedableRng;
    use serde::Serialize;

    #[derive(Debug, Clone, Serialize)]
    pub enum Node {
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

    #[derive(Debug, Clone, Serialize)]
    pub struct RegressionTree {
        nodes: Vec<Node>,
        num_features: usize,
    }

    impl RegressionTree {
        pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: &TreeParams, seed: u64) -> RegressionTree {
            assert!(!xs.is_empty(), "cannot fit a tree to zero samples");
            assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
            let num_features = xs[0].len();
            assert!(
                xs.iter().all(|x| x.len() == num_features),
                "inconsistent feature dimensionality"
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tree = RegressionTree {
                nodes: Vec::new(),
                num_features,
            };
            let idx: Vec<usize> = (0..xs.len()).collect();
            tree.build(xs, ys, idx, 0, params, &mut rng);
            tree
        }

        fn build(
            &mut self,
            xs: &[Vec<f64>],
            ys: &[f64],
            idx: Vec<usize>,
            depth: usize,
            params: &TreeParams,
            rng: &mut StdRng,
        ) -> usize {
            let mean = idx.iter().map(|&i| ys[i]).sum::<f64>() / idx.len() as f64;
            let stop = depth >= params.max_depth
                || idx.len() < 2 * params.min_samples_leaf
                || idx.iter().all(|&i| (ys[i] - mean).abs() < 1e-15);
            if stop {
                self.nodes.push(Node::Leaf { value: mean });
                return self.nodes.len() - 1;
            }

            let split = self.best_split(xs, ys, &idx, params, rng);
            let Some((feature, threshold)) = split else {
                self.nodes.push(Node::Leaf { value: mean });
                return self.nodes.len() - 1;
            };

            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                idx.into_iter().partition(|&i| xs[i][feature] <= threshold);
            // Reserve this node's slot before recursing.
            let slot = self.nodes.len();
            self.nodes.push(Node::Leaf { value: mean });
            let left = self.build(xs, ys, left_idx, depth + 1, params, rng);
            let right = self.build(xs, ys, right_idx, depth + 1, params, rng);
            self.nodes[slot] = Node::Split {
                feature,
                threshold,
                left,
                right,
            };
            slot
        }

        fn best_split(
            &self,
            xs: &[Vec<f64>],
            ys: &[f64],
            idx: &[usize],
            params: &TreeParams,
            rng: &mut StdRng,
        ) -> Option<(usize, f64)> {
            let mut features: Vec<usize> = (0..self.num_features).collect();
            if let Some(k) = params.feature_subsample {
                features.shuffle(rng);
                features.truncate(k.max(1).min(self.num_features));
            }

            let n = idx.len() as f64;
            let sum: f64 = idx.iter().map(|&i| ys[i]).sum();
            let sum_sq: f64 = idx.iter().map(|&i| ys[i] * ys[i]).sum();
            let parent_sse_base = sum_sq - sum * sum / n;

            let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
            for &f in &features {
                let mut vals: Vec<f64> = idx.iter().map(|&i| xs[i][f]).collect();
                vals.sort_by(|a, b| a.total_cmp(b));
                vals.dedup();
                if vals.len() < 2 {
                    continue;
                }
                let step = (vals.len() - 1).max(1) as f64 / params.threshold_candidates as f64;
                let mut thresholds: Vec<f64> = Vec::new();
                let mut t = step;
                while t < (vals.len() - 1) as f64 + 1e-9
                    && thresholds.len() < params.threshold_candidates
                {
                    let k = (t as usize).min(vals.len() - 2);
                    thresholds.push((vals[k] + vals[k + 1]) / 2.0);
                    t += step.max(1e-9);
                }
                thresholds.dedup();

                for &thr in &thresholds {
                    let mut nl = 0.0f64;
                    let mut sl = 0.0f64;
                    let mut ql = 0.0f64;
                    for &i in idx {
                        if xs[i][f] <= thr {
                            nl += 1.0;
                            sl += ys[i];
                            ql += ys[i] * ys[i];
                        }
                    }
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
            best.map(|(f, t, _)| (f, t))
        }
    }

    #[derive(Debug, Clone, Serialize)]
    pub struct RandomForest {
        trees: Vec<RegressionTree>,
        in_bag: Vec<Vec<bool>>,
    }

    impl RandomForest {
        pub fn fit_with_threads(
            xs: &[Vec<f64>],
            ys: &[f64],
            params: &ForestParams,
            seed: u64,
            threads: usize,
        ) -> RandomForest {
            assert!(!xs.is_empty(), "cannot fit a forest to zero samples");
            assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
            let num_features = xs[0].len();
            let mut tree_params = params.tree.clone();
            if tree_params.feature_subsample.is_none() {
                let k = (num_features as f64).sqrt().ceil() as usize;
                tree_params.feature_subsample = Some(k.max(1));
            }

            let mut rng = StdRng::seed_from_u64(seed);
            let sample_n = ((xs.len() as f64 * params.bootstrap_fraction).round() as usize)
                .clamp(1, xs.len() * 4);
            let num_trees = params.num_trees.max(1);
            // Bags come from the shared stream, in tree order, before any
            // fitting starts — the part that must stay sequential.
            let mut bags = Vec::with_capacity(num_trees);
            for _ in 0..num_trees {
                let mut bx = Vec::with_capacity(sample_n);
                let mut by = Vec::with_capacity(sample_n);
                let mut bag = vec![false; xs.len()];
                for _ in 0..sample_n {
                    let i = rng.gen_range(0..xs.len());
                    bag[i] = true;
                    bx.push(xs[i].clone());
                    by.push(ys[i]);
                }
                bags.push((bx, by, bag));
            }

            let threads = if threads == 0 {
                std::thread::available_parallelism().map_or(1, usize::from)
            } else {
                threads
            }
            .clamp(1, num_trees);
            let tree_seed = |t: usize| seed ^ (t as u64).wrapping_mul(0x9e37);
            let mut slots: Vec<Option<RegressionTree>> = vec![None; num_trees];
            if threads == 1 {
                for (t, slot) in slots.iter_mut().enumerate() {
                    let (bx, by, _) = &bags[t];
                    *slot = Some(RegressionTree::fit(bx, by, &tree_params, tree_seed(t)));
                }
            } else {
                let chunk = num_trees.div_ceil(threads);
                let bags_ref = &bags;
                let tree_params_ref = &tree_params;
                std::thread::scope(|scope| {
                    for (w, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
                        scope.spawn(move || {
                            for (off, slot) in slot_chunk.iter_mut().enumerate() {
                                let t = w * chunk + off;
                                let (bx, by, _) = &bags_ref[t];
                                *slot = Some(RegressionTree::fit(
                                    bx,
                                    by,
                                    tree_params_ref,
                                    tree_seed(t),
                                ));
                            }
                        });
                    }
                });
            }
            let trees = slots
                .into_iter()
                .map(|slot| slot.expect("every tree fitted"))
                .collect();
            let in_bag = bags.into_iter().map(|(_, _, bag)| bag).collect();
            RandomForest { trees, in_bag }
        }
    }
}

/// Asserts that `fitted` and the oracle's `reference` are the same model:
/// the same `Debug` text and, when JSON can carry every float, equal
/// values once the reference is read back as the fitted type.
fn assert_bit_identical<T, R>(fitted: &T, reference: &R)
where
    T: serde::de::DeserializeOwned + PartialEq + std::fmt::Debug,
    R: serde::Serialize + std::fmt::Debug,
{
    assert_eq!(format!("{fitted:?}"), format!("{reference:?}"));
    let reference_json = serde_json::to_string(reference).expect("serialize reference");
    // JSON writes a non-finite float as `null`.
    if !reference_json.contains("null") {
        let reference: T = serde_json::from_str(&reference_json).expect("read reference back");
        assert_eq!(*fitted, reference);
    }
}

/// How the values of one generated column are drawn.
#[derive(Debug, Clone, Copy)]
enum Column {
    /// Uniform on (-10, 10): nearly all values distinct.
    Continuous,
    /// Drawn from a small pool of values, so ties dominate.
    Levels(usize),
    /// One value for every row.
    Constant,
}

/// A pool of `k` values that starts with both signed zeros, so thresholds
/// and partitions meet `-0.0` and `0.0` side by side. Some pools also hold
/// infinities and NaNs of both signs.
fn level_pool(rng: &mut StdRng, k: usize) -> Vec<f64> {
    let mut pool = vec![-0.0, 0.0];
    if rng.gen_bool(0.25) {
        pool.extend([f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        pool.shuffle(rng);
    }
    while pool.len() < k {
        pool.push((rng.gen_range(-8i32..=8) as f64) * 0.5);
    }
    pool.truncate(k);
    pool
}

fn draw_column(rng: &mut StdRng, kind: Column, rows: usize) -> Vec<f64> {
    match kind {
        Column::Continuous => {
            // Some columns sprinkle NaNs of both signs among the values.
            let nan_rate = if rng.gen_bool(0.3) { 0.15 } else { 0.0 };
            (0..rows)
                .map(|_| match rng.gen_bool(nan_rate) {
                    true if rng.gen_bool(0.5) => f64::NAN,
                    true => -f64::NAN,
                    false => rng.gen_range(-10.0..10.0),
                })
                .collect()
        }
        Column::Levels(k) => {
            let pool = level_pool(rng, k);
            (0..rows)
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect()
        }
        Column::Constant => {
            let v = if rng.gen_bool(0.5) { -0.0 } else { 3.25 };
            vec![v; rows]
        }
    }
}

fn draw_kind(rng: &mut StdRng) -> Column {
    match rng.gen_range(0..4u32) {
        0 => Column::Continuous,
        1 => Column::Constant,
        _ => Column::Levels(rng.gen_range(1..=9)),
    }
}

/// A random regression problem mixing continuous, low-cardinality and
/// constant features, with duplicated rows and tied, signed-zero targets.
/// The target depends on feature 0, which may hold non-finite values;
/// a non-finite draw for the target itself becomes `1.0`.
fn random_problem(seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = rng.gen_range(1..=90);
    let num_features = rng.gen_range(1..=6);
    let columns: Vec<Vec<f64>> = (0..num_features)
        .map(|_| {
            let kind = draw_kind(&mut rng);
            draw_column(&mut rng, kind, rows)
        })
        .collect();
    let mut xs: Vec<Vec<f64>> = (0..rows)
        .map(|r| columns.iter().map(|c| c[r]).collect())
        .collect();
    let target = draw_kind(&mut rng);
    let noise: Vec<f64> = draw_column(&mut rng, target, rows)
        .into_iter()
        .map(|e| if e.is_finite() { e } else { 1.0 })
        .collect();
    let mut ys: Vec<f64> = xs
        .iter()
        .zip(&noise)
        .map(|(x, &e)| {
            if x[0] > 0.0 && x[0] < 9.0 {
                e + x[0] * 1.5
            } else {
                e
            }
        })
        .collect();
    // Exact duplicate rows, as a bootstrap would produce.
    for _ in 0..rng.gen_range(0..=rows / 3) {
        let r = rng.gen_range(0..rows);
        xs.push(xs[r].clone());
        ys.push(ys[r]);
    }
    (xs, ys)
}

fn random_tree_params(rng: &mut StdRng, num_features: usize) -> TreeParams {
    TreeParams {
        max_depth: rng.gen_range(0..=12),
        min_samples_leaf: rng.gen_range(1..=8),
        feature_subsample: rng
            .gen_bool(0.5)
            .then(|| rng.gen_range(1..=num_features + 1)),
        threshold_candidates: rng.gen_range(1..=32),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tree_fit_matches_the_per_threshold_scan(
        seed in 0u64..(1u64 << 40),
        tree_seed in 0u64..u64::MAX,
    ) {
        let (xs, ys) = random_problem(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7EE);
        let params = random_tree_params(&mut rng, xs[0].len());
        let fitted = RegressionTree::fit(&xs, &ys, &params, tree_seed);
        let reference = oracle::RegressionTree::fit(&xs, &ys, &params, tree_seed);
        assert_bit_identical(&fitted, &reference);
    }

    #[test]
    fn forest_fit_matches_the_per_threshold_scan(
        seed in 0u64..(1u64 << 40),
        forest_seed in 0u64..u64::MAX,
        num_trees in 1usize..=6,
        bootstrap_fraction in 0.2f64..1.6,
        threads in prop_oneof![Just(0usize), Just(1usize), Just(2usize)],
    ) {
        let (xs, ys) = random_problem(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF0);
        let params = ForestParams {
            num_trees,
            tree: random_tree_params(&mut rng, xs[0].len()),
            bootstrap_fraction,
        };
        let fitted = RandomForest::fit_with_threads(&xs, &ys, &params, forest_seed, threads);
        let reference = oracle::RandomForest::fit_with_threads(&xs, &ys, &params, forest_seed, threads);
        assert_bit_identical(&fitted, &reference);
    }
}

/// The fast context's real training set: both forests of
/// `EvalContext::build(EvalOptions::fast())`, fitted on the same split.
#[test]
fn fast_training_set_forests_match_the_per_threshold_scan() {
    let options = EvalOptions::fast();
    let sim = ApuSimulator::new(options.sim_params.clone());
    let dataset = Dataset::from_campaign(
        &sim,
        &training_kernels(),
        &training_space(4),
        HwConfig::FAIL_SAFE,
    );
    let (train, _) = dataset.split(options.test_fraction, options.seed);
    let xs = train.xs();
    for (ys, seed) in [
        (train.ys_log_time(), options.seed),
        (train.ys_power(), options.seed.wrapping_add(1)),
    ] {
        let fitted = RandomForest::fit_with_threads(&xs, &ys, &options.forest, seed, 0);
        let reference = oracle::RandomForest::fit_with_threads(&xs, &ys, &options.forest, seed, 0);
        assert_bit_identical(&fitted, &reference);
    }
}

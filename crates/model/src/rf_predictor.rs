//! The trained Random-Forest predictor behind the
//! [`PowerPerfPredictor`] interface.

use crate::dataset::Dataset;
use crate::features::{
    encode_config_features, encode_counter_features, FeatureBuffer, NUM_CONFIG_FEATURES,
    NUM_FEATURES,
};
use crate::flat::{FlatForest, FlatTree, PrunedForest};
use crate::forest::{ForestParams, RandomForest};
use crate::metrics;
use gpm_hw::HwConfig;
use gpm_sim::predictor::{KernelSnapshot, PowerPerfEstimate, PowerPerfPredictor};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Held-out accuracy of a trained predictor, in the units the paper
/// reports (MAPE fractions; Section VI-D quotes 25% performance and 12%
/// power).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// MAPE of execution-time predictions on the held-out set.
    pub time_mape: f64,
    /// MAPE of GPU-power predictions on the held-out set.
    pub power_mape: f64,
    /// R² of log-time predictions.
    pub time_r2: f64,
    /// R² of power predictions.
    pub power_r2: f64,
    /// Training samples used.
    pub train_samples: usize,
    /// Held-out samples evaluated.
    pub test_samples: usize,
}

/// Random-Forest power/performance predictor (Section IV-A3).
///
/// Two forests: one regressing `ln(time)`, one regressing GPU power.
///
/// # Examples
///
/// ```
/// use gpm_hw::{ConfigSpace, HwConfig, CpuPState, GpuDpm};
/// use gpm_model::{Dataset, ForestParams, RandomForestPredictor};
/// use gpm_sim::{ApuSimulator, KernelCharacteristics};
///
/// let sim = ApuSimulator::default();
/// let kernels = vec![KernelCharacteristics::compute_bound("k", 10.0)];
/// let space = ConfigSpace::nb_cu_sweep(CpuPState::P5, GpuDpm::Dpm4);
/// let ds = Dataset::from_campaign(&sim, &kernels, &space, HwConfig::FAIL_SAFE);
/// let rf = RandomForestPredictor::train(&ds, &ForestParams::default(), 1);
/// # let _ = rf;
/// ```
/// Inference happens on flattened [`FlatForest`] copies of the fitted
/// forests (bit-identical to the nested traversal; see the [`crate::flat`]
/// module). The serialized format carries only the two nested forests —
/// the flat engines are deterministic re-encodings rebuilt on
/// deserialization, so saved contexts stay compatible.
#[derive(Debug, Clone)]
pub struct RandomForestPredictor {
    time_forest: RandomForest,
    power_forest: RandomForest,
    time_flat: FlatForest,
    power_flat: FlatForest,
    /// Process-unique tag for the thread-local specialization cache; never
    /// reused across predictor constructions, so a stale cache entry can
    /// only ever match the forests it was built from. Clones share the tag
    /// — their forests are identical, so cache hits stay correct.
    generation: u64,
}

/// Source of [`RandomForestPredictor::generation`] tags; starts at 1 so 0
/// can mean "nothing cached".
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

impl PartialEq for RandomForestPredictor {
    fn eq(&self, other: &Self) -> bool {
        // The flat engines are deterministic re-encodings and the
        // generation is cache identity, not model state: the fitted
        // forests are the whole comparison.
        self.time_forest == other.time_forest && self.power_forest == other.power_forest
    }
}

/// Serialized form of [`RandomForestPredictor`]: the fitted forests only,
/// field-compatible with predictors saved before the flat engine existed.
#[derive(Serialize, Deserialize)]
struct SavedForests {
    time_forest: RandomForest,
    power_forest: RandomForest,
}

// Hand-written so the wire format stays exactly `SavedForests` while the
// in-memory type also carries the derived flat engines.
impl Serialize for RandomForestPredictor {
    fn serialize_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            (
                serde::Content::Str("time_forest".to_owned()),
                self.time_forest.serialize_content(),
            ),
            (
                serde::Content::Str("power_forest".to_owned()),
                self.power_forest.serialize_content(),
            ),
        ])
    }
}

// Validates before building the flat engines, so a corrupted saved
// predictor is a deserialization error rather than a panic in
// `FlatTree::from_tree`.
impl Deserialize for RandomForestPredictor {
    fn deserialize_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        let saved = SavedForests::deserialize_content(content)?;
        for (name, forest) in [
            ("time_forest", &saved.time_forest),
            ("power_forest", &saved.power_forest),
        ] {
            check_forest(forest).map_err(|e| serde::DeError::custom(format!("{name}: {e}")))?;
        }
        Ok(RandomForestPredictor::from_forests(
            saved.time_forest,
            saved.power_forest,
        ))
    }
}

/// Checks that a saved forest can serve this predictor: at least one
/// tree, every tree as wide as the feature encoder, and every tree
/// flattenable ([`FlatTree::check`]).
fn check_forest(forest: &RandomForest) -> Result<(), String> {
    if forest.trees().is_empty() {
        return Err("forest has no trees".to_string());
    }
    for (t, tree) in forest.trees().iter().enumerate() {
        if tree.num_features() != NUM_FEATURES {
            return Err(format!(
                "tree {t} has {} features, the encoder {NUM_FEATURES}",
                tree.num_features()
            ));
        }
        FlatTree::check(tree).map_err(|e| format!("tree {t}: {e}"))?;
    }
    Ok(())
}

thread_local! {
    /// Per-thread scratch for the hot path: feature rows and per-forest
    /// outputs live here so `predict`/`predict_batch` allocate nothing in
    /// steady state while staying `&self`.
    static SCRATCH: RefCell<PredictScratch> = RefCell::new(PredictScratch::default());
}

#[derive(Default)]
struct PredictScratch {
    buf: FeatureBuffer,
    time_pruned: PrunedForest,
    power_pruned: PrunedForest,
    /// Compact row-major config suffixes (6 values per candidate) — the
    /// only per-row data the pruned walks read.
    suffix: Vec<f64>,
    time_out: Vec<f64>,
    power_out: Vec<f64>,
    /// Generation of the predictor the pruned forests were specialized
    /// for (0 = nothing cached), plus the exact bit pattern of the
    /// counter prefix they were specialized against. Governor searches
    /// sweep candidates for one snapshot over several `predict_batch`
    /// calls, so the specialization is re-derived only when the snapshot
    /// (or the predictor) actually changes.
    cached_generation: u64,
    cached_prefix: Vec<u64>,
    /// Per-snapshot value memo: for a fixed (predictor, snapshot) pair
    /// the estimate for a config is a pure function of the config, so
    /// each of the [`HwConfig::DENSE_COUNT`] lattice points is walked at
    /// most once per snapshot. `memo_epoch[dense_index] == epoch` marks a
    /// live entry; bumping `epoch` on re-specialization invalidates the
    /// whole table in O(1).
    memo: Vec<PowerPerfEstimate>,
    memo_epoch: Vec<u64>,
    epoch: u64,
    /// Dense indices of batch rows missing from the memo, in walk order.
    pending: Vec<u32>,
}

impl RandomForestPredictor {
    /// Trains both forests on `dataset`.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train(dataset: &Dataset, params: &ForestParams, seed: u64) -> RandomForestPredictor {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let xs = dataset.xs();
        let time_forest = RandomForest::fit(&xs, &dataset.ys_log_time(), params, seed);
        let power_forest =
            RandomForest::fit(&xs, &dataset.ys_power(), params, seed.wrapping_add(1));
        RandomForestPredictor::from_forests(time_forest, power_forest)
    }

    /// Assembles a predictor from fitted forests, building the flat
    /// inference engines. Each assembly gets a fresh
    /// [`generation`](RandomForestPredictor::generation) tag, so
    /// retraining (e.g. via [`RandomForest::fit_with_threads`]) can never
    /// be served stale per-thread specialization state.
    pub fn from_forests(
        time_forest: RandomForest,
        power_forest: RandomForest,
    ) -> RandomForestPredictor {
        let time_flat = FlatForest::from_forest(&time_forest);
        let power_flat = FlatForest::from_forest(&power_forest);
        RandomForestPredictor {
            time_forest,
            power_forest,
            time_flat,
            power_flat,
            generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Evaluates held-out accuracy on `test`.
    pub fn evaluate(&self, test: &Dataset, train_samples: usize) -> TrainReport {
        let mut time_pred = Vec::with_capacity(test.len());
        let mut power_pred = Vec::with_capacity(test.len());
        let mut time_truth = Vec::with_capacity(test.len());
        let mut power_truth = Vec::with_capacity(test.len());
        let mut log_time_pred = Vec::with_capacity(test.len());
        let mut log_time_truth = Vec::with_capacity(test.len());
        for s in test.samples() {
            let lt = self.time_forest.predict(&s.features);
            log_time_pred.push(lt);
            log_time_truth.push(s.time_s.max(1e-12).ln());
            time_pred.push(lt.exp());
            time_truth.push(s.time_s);
            power_pred.push(self.power_forest.predict(&s.features));
            power_truth.push(s.gpu_power_w);
        }
        TrainReport {
            time_mape: metrics::mape(&time_pred, &time_truth),
            power_mape: metrics::mape(&power_pred, &power_truth),
            time_r2: metrics::r2(&log_time_pred, &log_time_truth),
            power_r2: metrics::r2(&power_pred, &power_truth),
            train_samples,
            test_samples: test.len(),
        }
    }

    /// The fitted `ln(time)` forest (for diagnostics such as permutation
    /// importance).
    pub fn time_forest(&self) -> &RandomForest {
        &self.time_forest
    }

    /// The fitted GPU-power forest.
    pub fn power_forest(&self) -> &RandomForest {
        &self.power_forest
    }

    /// This predictor's cache-identity tag: process-unique and strictly
    /// increasing across assemblies, never 0 (the thread-local scratch's
    /// "empty" sentinel). Two predictors share specialization state only
    /// if their generations are equal — i.e. never.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Convenience: split, train, and report in one call.
    pub fn train_and_evaluate(
        dataset: &Dataset,
        params: &ForestParams,
        test_fraction: f64,
        seed: u64,
    ) -> (RandomForestPredictor, TrainReport) {
        let (train, test) = dataset.split(test_fraction, seed);
        let rf = RandomForestPredictor::train(&train, params, seed);
        let report = rf.evaluate(&test, train.len());
        (rf, report)
    }
}

impl PowerPerfPredictor for RandomForestPredictor {
    fn predict(&self, snapshot: &KernelSnapshot, cfg: HwConfig) -> PowerPerfEstimate {
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.buf.begin_snapshot(&snapshot.counters);
            scratch.buf.push_config(cfg);
            let row = scratch.buf.matrix().row(0);
            PowerPerfEstimate {
                time_s: self.time_flat.predict(row).exp().max(1e-9),
                gpu_power_w: self.power_flat.predict(row).max(0.1),
            }
        })
    }

    fn predict_batch(
        &self,
        snapshot: &KernelSnapshot,
        cfgs: &[HwConfig],
        out: &mut Vec<PowerPerfEstimate>,
    ) {
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            if cfgs.is_empty() {
                out.clear();
                return;
            }
            // Every row of the batch shares the snapshot's counter
            // prefix, so prefix splits resolve once per batch and the
            // per-row walk only compares config features — the batch
            // never materializes full feature rows at all, just the
            // compact config suffixes. The specialized forests are cached
            // against the exact prefix bits: repeated sweeps over the
            // same snapshot (hill-climb rounds, MPC horizon steps) skip
            // re-specialization entirely.
            let prefix = encode_counter_features(&snapshot.counters);
            const PREFIX_LEN: usize = crate::features::NUM_FEATURES - NUM_CONFIG_FEATURES;
            let hit = scratch.cached_generation == self.generation
                && scratch.cached_prefix.len() == PREFIX_LEN
                && scratch
                    .cached_prefix
                    .iter()
                    .zip(&prefix)
                    .all(|(&bits, v)| bits == v.to_bits());
            if !hit {
                self.time_flat
                    .specialize_into(&prefix, PREFIX_LEN, &mut scratch.time_pruned);
                self.power_flat
                    .specialize_into(&prefix, PREFIX_LEN, &mut scratch.power_pruned);
                scratch.cached_generation = self.generation;
                scratch.cached_prefix.clear();
                scratch
                    .cached_prefix
                    .extend(prefix.iter().map(|v| v.to_bits()));
                scratch.epoch += 1;
            }
            if scratch.memo.len() != HwConfig::DENSE_COUNT {
                scratch.memo.resize(
                    HwConfig::DENSE_COUNT,
                    PowerPerfEstimate {
                        time_s: 0.0,
                        gpu_power_w: 0.0,
                    },
                );
                scratch.memo_epoch.resize(HwConfig::DENSE_COUNT, 0);
            }
            // Walk only the configs this snapshot hasn't priced yet;
            // everything else is a memo copy. Duplicate candidates in one
            // batch are walked per occurrence and scatter the same value.
            scratch.suffix.clear();
            scratch.pending.clear();
            for &cfg in cfgs {
                let dense = cfg.dense_index();
                if scratch.memo_epoch[dense] != scratch.epoch {
                    scratch.pending.push(dense as u32);
                    scratch
                        .suffix
                        .extend_from_slice(&encode_config_features(cfg));
                }
            }
            if !scratch.pending.is_empty() {
                scratch
                    .time_pruned
                    .predict_suffix_batch_into(&scratch.suffix, &mut scratch.time_out);
                scratch
                    .power_pruned
                    .predict_suffix_batch_into(&scratch.suffix, &mut scratch.power_out);
                for ((&dense, &log_time), &power) in scratch
                    .pending
                    .iter()
                    .zip(&scratch.time_out)
                    .zip(&scratch.power_out)
                {
                    scratch.memo[dense as usize] = PowerPerfEstimate {
                        time_s: log_time.exp().max(1e-9),
                        gpu_power_w: power.max(0.1),
                    };
                    scratch.memo_epoch[dense as usize] = scratch.epoch;
                }
            }
            out.clear();
            out.extend(cfgs.iter().map(|cfg| scratch.memo[cfg.dense_index()]));
        });
    }

    fn name(&self) -> &str {
        "random-forest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_hw::{ConfigSpace, CpuPState, GpuDpm};
    use gpm_sim::{ApuSimulator, KernelCharacteristics};

    fn campaign() -> (ApuSimulator, Vec<KernelCharacteristics>, Dataset) {
        let sim = ApuSimulator::default();
        let kernels = vec![
            KernelCharacteristics::compute_bound("cb", 15.0),
            KernelCharacteristics::memory_bound("mb", 1.5),
            KernelCharacteristics::peak("pk", 8.0),
            KernelCharacteristics::unscalable("us", 0.01),
        ];
        let space = ConfigSpace::paper_campaign();
        let ds = Dataset::from_campaign(&sim, &kernels, &space, HwConfig::FAIL_SAFE);
        (sim, kernels, ds)
    }

    #[test]
    fn training_produces_usable_accuracy() {
        let (_, _, ds) = campaign();
        let (_, report) =
            RandomForestPredictor::train_and_evaluate(&ds, &ForestParams::default(), 0.2, 11);
        // In-distribution accuracy should beat the paper's out-of-sample
        // 25%/12% MAPE comfortably.
        assert!(report.time_mape < 0.25, "time MAPE {}", report.time_mape);
        assert!(report.power_mape < 0.15, "power MAPE {}", report.power_mape);
        assert!(report.time_r2 > 0.8, "time R² {}", report.time_r2);
        assert_eq!(report.train_samples + report.test_samples, ds.len());
    }

    #[test]
    fn predictor_tracks_config_trends() {
        let (sim, kernels, ds) = campaign();
        let rf = RandomForestPredictor::train(&ds, &ForestParams::default(), 11);
        let cb = &kernels[0];
        let out = sim.evaluate(cb, HwConfig::FAIL_SAFE);
        let snap = gpm_sim::predictor::KernelSnapshot::counters_only(
            out.counters,
            HwConfig::FAIL_SAFE,
            cb.ginstructions(),
        );
        // Compute-bound kernel: 8 CUs at DPM4 must be predicted faster than
        // 2 CUs at DPM0.
        let fast = rf.predict(&snap, HwConfig::MAX_PERF);
        let slow_cfg = HwConfig::new(
            CpuPState::P7,
            gpm_hw::NbState::Nb3,
            GpuDpm::Dpm0,
            gpm_hw::CuCount::MIN,
        );
        let slow = rf.predict(&snap, slow_cfg);
        assert!(
            fast.time_s < slow.time_s,
            "fast {} slow {}",
            fast.time_s,
            slow.time_s
        );
        assert!(fast.gpu_power_w > slow.gpu_power_w);
    }

    #[test]
    fn prediction_is_deterministic() {
        let (_, _, ds) = campaign();
        let rf = RandomForestPredictor::train(&ds, &ForestParams::default(), 11);
        let snap = gpm_sim::predictor::KernelSnapshot::counters_only(
            gpm_sim::CounterSet::default(),
            HwConfig::FAIL_SAFE,
            1.0,
        );
        let a = rf.predict(&snap, HwConfig::MAX_PERF);
        let b = rf.predict(&snap, HwConfig::MAX_PERF);
        assert_eq!(a, b);
    }

    #[test]
    fn predict_matches_nested_reference_path() {
        // The flat hot path must reproduce the seed formula bit-for-bit:
        // one-shot encoding + nested forest traversal + exp/clamp.
        let (_, _, ds) = campaign();
        let rf = RandomForestPredictor::train(&ds, &ForestParams::default(), 11);
        let snap = gpm_sim::predictor::KernelSnapshot::counters_only(
            gpm_sim::CounterSet::from_values([1e8, 40.0, 60.0, 1e5, 6.0, 3.0, 1e6, 1e6]),
            HwConfig::FAIL_SAFE,
            1.0,
        );
        for cfg in &ConfigSpace::paper_campaign() {
            let features = crate::features::encode_features(&snap.counters, cfg);
            let reference = PowerPerfEstimate {
                time_s: rf.time_forest().predict(&features).exp().max(1e-9),
                gpu_power_w: rf.power_forest().predict(&features).max(0.1),
            };
            let est = rf.predict(&snap, cfg);
            assert_eq!(est.time_s.to_bits(), reference.time_s.to_bits(), "{cfg}");
            assert_eq!(
                est.gpu_power_w.to_bits(),
                reference.gpu_power_w.to_bits(),
                "{cfg}"
            );
        }
    }

    #[test]
    fn predict_batch_bit_identical_to_scalar_loop() {
        let (_, _, ds) = campaign();
        let rf = RandomForestPredictor::train(&ds, &ForestParams::default(), 11);
        let snap = gpm_sim::predictor::KernelSnapshot::counters_only(
            gpm_sim::CounterSet::from_values([1e7, 30.0, 55.0, 1e4, 2.0, 1.0, 1e5, 1e5]),
            HwConfig::FAIL_SAFE,
            1.0,
        );
        let cfgs: Vec<HwConfig> = ConfigSpace::paper_campaign().iter().collect();
        let mut batch = Vec::new();
        rf.predict_batch(&snap, &cfgs, &mut batch);
        assert_eq!(batch.len(), cfgs.len());
        for (est, &cfg) in batch.iter().zip(&cfgs) {
            let scalar = rf.predict(&snap, cfg);
            assert_eq!(est.time_s.to_bits(), scalar.time_s.to_bits(), "{cfg}");
            assert_eq!(
                est.gpu_power_w.to_bits(),
                scalar.gpu_power_w.to_bits(),
                "{cfg}"
            );
        }
    }

    #[test]
    fn specialization_cache_invalidates_on_snapshot_and_predictor_change() {
        // Alternates two snapshots and two predictors on one thread; the
        // thread-local specialization cache must miss on every switch and
        // stay bit-identical to the scalar path throughout.
        let (_, _, ds) = campaign();
        let rf_a = RandomForestPredictor::train(&ds, &ForestParams::default(), 11);
        let rf_b = RandomForestPredictor::train(&ds, &ForestParams::default(), 23);
        let snap_a = gpm_sim::predictor::KernelSnapshot::counters_only(
            gpm_sim::CounterSet::from_values([1e7, 30.0, 55.0, 1e4, 2.0, 1.0, 1e5, 1e5]),
            HwConfig::FAIL_SAFE,
            1.0,
        );
        let snap_b = gpm_sim::predictor::KernelSnapshot::counters_only(
            gpm_sim::CounterSet::from_values([9e8, 80.0, 20.0, 9e5, 15.0, 1.0, 9e6, 1e5]),
            HwConfig::FAIL_SAFE,
            1.0,
        );
        let cfgs: Vec<HwConfig> = ConfigSpace::paper_campaign().iter().collect();
        let mut batch = Vec::new();
        for _ in 0..2 {
            for rf in [&rf_a, &rf_b] {
                for snap in [&snap_a, &snap_b] {
                    rf.predict_batch(snap, &cfgs, &mut batch);
                    for (est, &cfg) in batch.iter().zip(&cfgs) {
                        let scalar = rf.predict(snap, cfg);
                        assert_eq!(est.time_s.to_bits(), scalar.time_s.to_bits(), "{cfg}");
                        assert_eq!(est.gpu_power_w.to_bits(), scalar.gpu_power_w.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn serde_roundtrip_rebuilds_flat_engines() {
        let (_, _, ds) = campaign();
        let params = ForestParams {
            num_trees: 6,
            ..ForestParams::default()
        };
        let rf = RandomForestPredictor::train(&ds, &params, 11);
        let json = serde_json::to_string(&rf).unwrap();
        let back: RandomForestPredictor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rf, "flat engines must rebuild identically on load");
        // The wire format carries only the nested forests.
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let keys: Vec<&str> = value
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str().unwrap())
            .collect();
        assert_eq!(keys, ["time_forest", "power_forest"]);
    }

    #[test]
    fn predictions_are_positive_even_on_garbage() {
        let (_, _, ds) = campaign();
        let rf = RandomForestPredictor::train(&ds, &ForestParams::default(), 11);
        let snap = gpm_sim::predictor::KernelSnapshot::counters_only(
            gpm_sim::CounterSet::from_values([0.0; 8]),
            HwConfig::FAIL_SAFE,
            1.0,
        );
        let est = rf.predict(&snap, HwConfig::FAIL_SAFE);
        assert!(est.time_s > 0.0);
        assert!(est.gpu_power_w > 0.0);
    }

    /// One tree in the saved wire format.
    fn tree(nodes: &str, num_features: usize) -> String {
        format!(r#"{{"nodes":[{nodes}],"num_features":{num_features}}}"#)
    }

    /// A valid three-node tree: root split, two leaves.
    const STUMP: &str = r#"{"Split":{"feature":0,"threshold":1.0,"left":1,"right":2}},{"Leaf":{"value":1.0}},{"Leaf":{"value":2.0}}"#;

    /// Loads a saved predictor whose time forest holds `time_trees`
    /// (comma-separated trees) and whose power forest is a valid stump.
    fn load(time_trees: &str) -> Result<RandomForestPredictor, String> {
        let good = tree(STUMP, NUM_FEATURES);
        let json = format!(
            r#"{{"time_forest":{{"trees":[{time_trees}],"in_bag":[]}},"power_forest":{{"trees":[{good}],"in_bag":[]}}}}"#
        );
        serde_json::from_str(&json).map_err(|e| e.to_string())
    }

    fn assert_rejected(time_trees: &str, why: &str) {
        let err = load(time_trees).expect_err("corrupted forest must not load");
        assert!(err.contains("time_forest") && err.contains(why), "{err}");
    }

    fn split(feature: usize, left: usize, right: usize) -> String {
        format!(
            r#"{{"Split":{{"feature":{feature},"threshold":1.0,"left":{left},"right":{right}}}}},{{"Leaf":{{"value":1.0}}}},{{"Leaf":{{"value":2.0}}}}"#
        )
    }

    #[test]
    fn hand_built_forest_loads_and_predicts() {
        let rf = load(&tree(STUMP, NUM_FEATURES)).unwrap();
        let snap = gpm_sim::predictor::KernelSnapshot::counters_only(
            gpm_sim::CounterSet::from_values([1e7, 30.0, 55.0, 1e4, 2.0, 1.0, 1e5, 1e5]),
            HwConfig::FAIL_SAFE,
            1.0,
        );
        assert!(rf.predict(&snap, HwConfig::MAX_PERF).time_s.is_finite());
    }

    #[test]
    fn load_rejects_a_forest_without_trees() {
        assert_rejected("", "no trees");
    }

    #[test]
    fn load_rejects_a_tree_without_nodes() {
        assert_rejected(&tree("", NUM_FEATURES), "no nodes");
    }

    #[test]
    fn load_rejects_a_tree_narrower_than_the_encoder() {
        assert_rejected(&tree(STUMP, NUM_FEATURES - 1), "the encoder");
    }

    #[test]
    fn load_rejects_a_non_adjacent_left_child() {
        assert_rejected(
            &tree(&split(0, 2, 2), NUM_FEATURES),
            "non-adjacent left child",
        );
    }

    #[test]
    fn load_rejects_a_right_child_past_the_end() {
        assert_rejected(
            &tree(&split(0, 1, 1_000_000), NUM_FEATURES),
            "out-of-range right child",
        );
    }

    #[test]
    fn load_rejects_a_right_child_that_does_not_advance() {
        assert_rejected(
            &tree(&split(0, 1, 0), NUM_FEATURES),
            "out-of-range right child",
        );
    }

    #[test]
    fn load_rejects_a_feature_outside_the_tree_width() {
        assert_rejected(
            &tree(&split(NUM_FEATURES, 1, 2), NUM_FEATURES),
            "references feature",
        );
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let _ = RandomForestPredictor::train(&Dataset::default(), &ForestParams::default(), 1);
    }
}

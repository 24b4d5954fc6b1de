//! Shared machinery: the closed measurement loop, set-up timing, the
//! result record, input generation and output digests.

use crate::catalog;
use crate::stats;
use gpm_harness::{BaselineCacheStats, RunResult};
use gpm_workloads::{generate_workload, suite, Category, GeneratorParams, Workload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Each workload builds its set-up at least this many times, and until
/// [`SETUP_MIN_S`] have passed; `setup_s` is the median build time.
pub const SETUP_REPS: usize = 3;

/// The least total time spent on set-up builds, seconds.
pub const SETUP_MIN_S: f64 = 2.0;

/// The fewest timed passes a run makes, however long they take.
pub const MIN_PASSES: usize = 3;

/// Splitmix64 finalizer: derives independent sub-seeds from the
/// workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over 64-bit words: the digest the output checks compare.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one float in by its bits.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Folds every chosen configuration and per-kernel energy of a run.
    pub fn run(&mut self, run: &RunResult) {
        self.word(run.per_kernel.len() as u64);
        for k in &run.per_kernel {
            self.word(k.config.dense_index() as u64);
            self.float(k.energy_j);
            self.float(k.time_s);
        }
        self.float(run.overhead_time_s);
        self.float(run.total_energy_j());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Kernel counts the generated apps cycle through (the generator's
/// default range is 6–28).
pub const GENERATED_LENGTHS: [usize; 4] = [8, 14, 20, 26];

/// The four categories the generated apps cycle through.
const CATEGORIES: [Category; 4] = [
    Category::Regular,
    Category::IrregularRepeating,
    Category::IrregularNonRepeating,
    Category::IrregularInputVarying,
];

/// One seeded generated app of the given category and kernel count: the
/// first draw of the generator, from sub-seeds of `seed`, that lands in
/// `category` (the generator picks repeating versus non-repeating
/// itself, so those two are drawn until they match).
fn generated_app(seed: u64, category: Category, kernels: usize) -> Workload {
    let params = GeneratorParams {
        min_kernels: kernels,
        max_kernels: kernels,
        regular_fraction: if category == Category::Regular {
            1.0
        } else {
            0.0
        },
        input_varying_fraction: if category == Category::IrregularInputVarying {
            1.0
        } else {
            0.0
        },
    };
    (0..)
        .map(|attempt| generate_workload(&params, mix(seed, attempt)))
        .find(|w| w.category() == category)
        .expect("the generator reaches every category")
}

/// The suite's 15 benchmarks followed by `generated` seeded applications.
/// The generated apps are stratified — they cycle through the four
/// categories and the kernel counts of [`GENERATED_LENGTHS`] — so every
/// seed yields the same mix of shapes and only the kernels differ.
pub fn app_set(seed: u64, generated: usize) -> Vec<Workload> {
    let mut apps = suite();
    apps.extend((0..generated).map(|i| {
        let category = CATEGORIES[i % CATEGORIES.len()];
        let kernels = GENERATED_LENGTHS[(i / CATEGORIES.len()) % GENERATED_LENGTHS.len()];
        generated_app(mix(seed, 0x6170_7000 + i as u64), category, kernels)
    }));
    apps
}

/// Records the input properties of an application mix: the share of
/// apps per [`Category`] and the app and kernel counts.
pub fn record_mix<'a>(report: &mut Report, apps: impl IntoIterator<Item = &'a Workload>) {
    let mut counts = [0usize; 4];
    let (mut n, mut kernels) = (0usize, 0usize);
    for w in apps {
        n += 1;
        kernels += w.len();
        counts[match w.category() {
            Category::Regular => 0,
            Category::IrregularRepeating => 1,
            Category::IrregularNonRepeating => 2,
            Category::IrregularInputVarying => 3,
        }] += 1;
    }
    let pct = |c: usize| 100.0 * c as f64 / n.max(1) as f64;
    report.set("input.apps", n as f64);
    report.set("input.kernels", kernels as f64);
    report.set("input.regular_pct", pct(counts[0]));
    report.set("input.repeating_pct", pct(counts[1]));
    report.set("input.non_repeating_pct", pct(counts[2]));
    report.set("input.input_varying_pct", pct(counts[3]));
}

/// Checks that a replay dispatched every kernel of its application.
pub fn check_dispatched(run: &RunResult, app: &Workload) -> Result<(), String> {
    if run.per_kernel.len() == app.len() {
        Ok(())
    } else {
        Err(format!(
            "{}: dispatched {} of {} kernels",
            app.name(),
            run.per_kernel.len(),
            app.len()
        ))
    }
}

/// Stores the first digest seen for each call slot and checks every
/// later one against it.
#[derive(Debug, Default)]
pub struct Reference(Vec<Option<u64>>);

impl Reference {
    /// Empty references for `n` call slots.
    pub fn new(n: usize) -> Reference {
        Reference(vec![None; n])
    }

    /// Records (first time) or checks `digest` for slot `i`.
    pub fn check(&mut self, i: usize, digest: u64, what: &str) -> Result<(), String> {
        match self.0[i] {
            None => {
                self.0[i] = Some(digest);
                Ok(())
            }
            Some(d) if d == digest => Ok(()),
            Some(d) => Err(format!(
                "{what}: digest {digest:016x} differs from first replay {d:016x}"
            )),
        }
    }

    /// All stored digests folded into one (0 for an unfilled slot).
    pub fn combined(&self) -> u64 {
        let mut d = Digest::default();
        for v in &self.0 {
            d.word(v.unwrap_or(0));
        }
        d.value()
    }
}

/// Builds the set-up at least [`SETUP_REPS`] times and for at least
/// [`SETUP_MIN_S`]; returns the last build and the median build time in
/// seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// What one timed call reports: the governor decisions it made.
pub type CallResult = Result<u64, String>;

/// The samples of one closed-loop measurement.
#[derive(Debug, Default)]
pub struct Loop {
    /// Per-call latency, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Per-pass call rate, calls per second.
    pub pass_call_rates: Vec<f64>,
    /// Per-pass decision rate, decisions per second.
    pub pass_decision_rates: Vec<f64>,
    /// Measured wall time, seconds.
    pub elapsed_s: f64,
    /// The percentile reported as `call_tail_ms`.
    pub tail_p: f64,
}

/// Counts of attempted and failed calls, with the first failures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that panicked or failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Runs one call, catching a panic, and counts it.
    pub fn call(&mut self, f: impl FnOnce() -> CallResult) -> Option<u64> {
        self.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(f))
            .unwrap_or_else(|p| Err(format!("panic: {}", panic_message(&p))));
        match outcome {
            Ok(d) => Some(d),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Counts a failed check outside any call.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Runs one untimed reference pass over `pass_len` call slots. It warms
/// every cache, and its outputs become the reference the timed passes
/// are checked against. The call's second argument is `false` here and
/// `true` in [`timed_passes`].
pub fn reference_pass(
    tally: &mut Tally,
    pass_len: usize,
    call: &mut impl FnMut(usize, bool) -> CallResult,
) {
    for i in 0..pass_len {
        tally.call(|| call(i, false));
    }
}

/// Runs timed passes over `pass_len` call slots until `seconds` have
/// elapsed, at least [`MIN_PASSES`] passes are done and at least
/// [`stats::MIN_BEYOND`] calls lie beyond the tail percentile `tail_p`
/// of their latencies.
pub fn timed_passes(
    tally: &mut Tally,
    seconds: f64,
    tail_p: f64,
    pass_len: usize,
    call: &mut impl FnMut(usize, bool) -> CallResult,
) -> Loop {
    let mut out = Loop {
        tail_p,
        ..Loop::default()
    };
    let start = Instant::now();
    while out.pass_call_rates.len() < MIN_PASSES
        || stats::beyond(out.latencies_ms.len(), tail_p) < stats::MIN_BEYOND
        || start.elapsed().as_secs_f64() < seconds
    {
        let pass = Instant::now();
        let mut decisions = 0u64;
        for i in 0..pass_len {
            let t = Instant::now();
            decisions += tally.call(|| call(i, true)).unwrap_or(0);
            out.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let secs = pass.elapsed().as_secs_f64();
        out.pass_call_rates.push(pass_len as f64 / secs);
        out.pass_decision_rates.push(decisions as f64 / secs);
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

impl Loop {
    /// Median per-pass call rate.
    pub fn calls_per_s(&self) -> f64 {
        stats::median(&self.pass_call_rates)
    }

    /// Records the host-time end-to-end metrics of this loop.
    pub fn record(&self, report: &mut Report) {
        let sorted = stats::sorted(&self.latencies_ms);
        report.set("calls_per_s", self.calls_per_s());
        report.set("decisions_per_s", stats::median(&self.pass_decision_rates));
        report.set("call_p50_ms", stats::median_sorted(&sorted));
        if let Some(v) = stats::tail(&sorted, self.tail_p) {
            report.set("call_tail_ms", v);
        }
        report.note("call_tail_percentile", self.tail_p);

        report.note("calls_timed", sorted.len());
        report.note("passes_timed", self.pass_call_rates.len());
        report.note("timed_s", self.elapsed_s);
    }
}

/// Records the Turbo Core baseline-cache hit ratio between two
/// snapshots taken around a reference pass, with its base.
pub fn record_baseline_hits(
    report: &mut Report,
    before: BaselineCacheStats,
    after: BaselineCacheStats,
) {
    let hits = after.hits - before.hits;
    let computed = after.computed - before.computed;
    let base = hits + computed;
    report.set("input.baseline_resolutions", base as f64);
    report.set(
        "input.baseline_hit_pct",
        100.0 * hits as f64 / base.max(1) as f64,
    );
}

/// Records the traced and untraced call rates and the tracing overhead.
pub fn record_overhead(report: &mut Report, untraced: &Loop, traced: &Loop) {
    let (u, t) = (untraced.calls_per_s(), traced.calls_per_s());
    report.set("untraced.calls_per_s", u);
    report.set("traced.calls_per_s", t);
    report.set("trace.overhead_pct", (u / t - 1.0) * 100.0);
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

/// Resource usage of this process, or `None` if the call fails.
fn rusage() -> Option<RUsage> {
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the layout of the 64-bit Linux `struct
    // rusage` (two timevals followed by fourteen longs), so the kernel
    // writes only inside the value we own; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    (rc == 0).then_some(usage)
}

/// Peak resident set size of this process, megabytes.
pub fn peak_rss_mb() -> f64 {
    rusage().map_or(0.0, |u| u.maxrss_kb as f64 / 1024.0)
}

/// The metrics of one run plus notes (input properties and sample
/// counts printed beside them).
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    notes: BTreeMap<String, String>,
}

impl Report {
    /// Sets catalog metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalog — a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = catalog::END_TO_END
            .iter()
            .chain(catalog::PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalog"));
        self.metrics.insert(key, value);
    }

    /// Adds a free-form note printed on the details line.
    pub fn note(&mut self, name: &str, value: impl std::fmt::Display) {
        self.notes.insert(name.to_string(), value.to_string());
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// The catalog section printed by this run, in catalog order, with
    /// unset per-layer metrics (layers the workload never calls) at 0.
    /// Errors name any unset or non-finite end-to-end metric.
    pub fn section(&self, traced: bool) -> (Vec<(&'static str, &'static str, f64)>, Vec<String>) {
        let list = if traced {
            catalog::PER_LAYER
        } else {
            catalog::END_TO_END
        };
        let mut errors = Vec::new();
        let rows = list
            .iter()
            .map(|&(name, unit)| {
                let value = match self.get(name) {
                    Some(v) if v.is_finite() => v,
                    Some(v) => {
                        errors.push(format!("metric {name} is not finite ({v})"));
                        0.0
                    }
                    None if traced => 0.0,
                    None => {
                        errors.push(format!("metric {name} was not measured"));
                        0.0
                    }
                };
                (name, unit, value)
            })
            .collect();
        (rows, errors)
    }

    /// The notes, for the details line.
    pub fn notes(&self) -> &BTreeMap<String, String> {
        &self.notes
    }
}

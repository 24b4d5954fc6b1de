//! Timing wrappers for the traced run.
//!
//! Each wrapper forwards every call to the wrapped layer unchanged and
//! adds the elapsed host time to a shared [`Ledger`]. None of them
//! touches an argument or a result, so a replay through the wrappers
//! makes the same decisions as one without; the traced run checks that
//! by digest.

use gpm_governors::{Governor, GovernorDecision, KernelContext};
use gpm_hw::HwConfig;
use gpm_sim::predictor::{KernelSnapshot, PowerPerfEstimate, PowerPerfPredictor};
use gpm_sim::{EnergyBreakdown, KernelCharacteristics, KernelOutcome, Platform, SimParams};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Call counts and busy times of the wrapped layers.
#[derive(Debug, Default)]
pub struct Ledger {
    /// `Governor::select` latencies, microseconds, one per call.
    pub select_us: RefCell<Vec<f64>>,
    /// Busy time in `Governor::observe`.
    pub observe: Cell<Duration>,
    /// Busy time in `Governor::end_run`.
    pub end_run: Cell<Duration>,
    /// Scalar `predict` calls.
    pub predict_calls: Cell<u64>,
    /// `predict_batch` calls.
    pub predict_batches: Cell<u64>,
    /// Candidate configurations predicted, scalar and batched.
    pub predict_candidates: Cell<u64>,
    /// Busy time in the predictor.
    pub predict: Cell<Duration>,
    /// `Platform::evaluate` calls.
    pub sim_calls: Cell<u64>,
    /// Busy time in `Platform::evaluate`.
    pub sim: Cell<Duration>,
}

fn add(cell: &Cell<Duration>, since: Instant) {
    cell.set(cell.get() + since.elapsed());
}

impl Ledger {
    /// Total time inside `select`.
    pub fn select_total(&self) -> Duration {
        Duration::from_secs_f64(self.select_us.borrow().iter().sum::<f64>() / 1e6)
    }
}

/// A [`Governor`] whose `select`, `observe` and `end_run` are timed.
pub struct TimedGovernor<G> {
    /// The governor making the decisions.
    pub inner: G,
    ledger: Rc<Ledger>,
}

impl<G: Governor> TimedGovernor<G> {
    /// Wraps `inner`, recording into `ledger`.
    pub fn new(inner: G, ledger: Rc<Ledger>) -> TimedGovernor<G> {
        TimedGovernor { inner, ledger }
    }
}

impl<G: Governor> Governor for TimedGovernor<G> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(&mut self, ctx: &KernelContext) -> GovernorDecision {
        let t = Instant::now();
        let decision = self.inner.select(ctx);
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.ledger.select_us.borrow_mut().push(us);
        decision
    }

    fn observe(
        &mut self,
        ctx: &KernelContext,
        executed_at: HwConfig,
        outcome: &KernelOutcome,
        truth: Option<&KernelCharacteristics>,
    ) {
        let t = Instant::now();
        self.inner.observe(ctx, executed_at, outcome, truth);
        add(&self.ledger.observe, t);
    }

    fn end_run(&mut self) {
        let t = Instant::now();
        self.inner.end_run();
        add(&self.ledger.end_run, t);
    }

    fn set_trace_sink(&mut self, sink: std::sync::Arc<dyn gpm_trace::TraceSink>) {
        self.inner.set_trace_sink(sink);
    }

    fn set_fault_injector(&mut self, faults: std::sync::Arc<dyn gpm_faults::FaultInjector>) {
        self.inner.set_fault_injector(faults);
    }
}

/// A [`PowerPerfPredictor`] whose scalar and batched predictions are
/// counted and timed.
#[derive(Debug)]
pub struct TimedPredictor<P> {
    inner: P,
    ledger: Rc<Ledger>,
}

impl<P> TimedPredictor<P> {
    /// Wraps `inner`, recording into `ledger`.
    pub fn new(inner: P, ledger: Rc<Ledger>) -> TimedPredictor<P> {
        TimedPredictor { inner, ledger }
    }
}

impl<P: PowerPerfPredictor> PowerPerfPredictor for TimedPredictor<P> {
    fn predict(&self, snapshot: &KernelSnapshot, cfg: HwConfig) -> PowerPerfEstimate {
        let t = Instant::now();
        let est = self.inner.predict(snapshot, cfg);
        add(&self.ledger.predict, t);
        let l = &self.ledger;
        l.predict_calls.set(l.predict_calls.get() + 1);
        l.predict_candidates.set(l.predict_candidates.get() + 1);
        est
    }

    fn predict_batch(
        &self,
        snapshot: &KernelSnapshot,
        cfgs: &[HwConfig],
        out: &mut Vec<PowerPerfEstimate>,
    ) {
        let t = Instant::now();
        self.inner.predict_batch(snapshot, cfgs, out);
        add(&self.ledger.predict, t);
        let l = &self.ledger;
        l.predict_batches.set(l.predict_batches.get() + 1);
        l.predict_candidates
            .set(l.predict_candidates.get() + cfgs.len() as u64);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A [`Platform`] whose kernel evaluations are counted and timed.
pub struct TimedPlatform<'a, S: ?Sized> {
    inner: &'a S,
    ledger: Rc<Ledger>,
}

impl<'a, S: Platform + ?Sized> TimedPlatform<'a, S> {
    /// Wraps `inner`, recording into `ledger`.
    pub fn new(inner: &'a S, ledger: Rc<Ledger>) -> TimedPlatform<'a, S> {
        TimedPlatform { inner, ledger }
    }
}

impl<S: Platform + ?Sized> Platform for TimedPlatform<'_, S> {
    fn evaluate(&self, kernel: &KernelCharacteristics, cfg: HwConfig) -> KernelOutcome {
        let t = Instant::now();
        let out = self.inner.evaluate(kernel, cfg);
        add(&self.ledger.sim, t);
        let l = &self.ledger;
        l.sim_calls.set(l.sim_calls.get() + 1);
        out
    }

    fn optimizer_energy(&self, cfg: HwConfig, duration_s: f64) -> EnergyBreakdown {
        self.inner.optimizer_energy(cfg, duration_s)
    }

    fn params(&self) -> &SimParams {
        self.inner.params()
    }
}

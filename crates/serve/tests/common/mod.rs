//! A model wrapper that parks every inference at a gate the test opens, so
//! batch formation is driven by the test instead of by timing: while one
//! batch is held inside the engine, everything submitted queues behind it
//! and forms the next batches once the gate opens.

use heatvit::selector::PruneScratch;
use heatvit::vit::ViTConfig;
use heatvit::{CostProfile, InferenceModel, ModelOutput};
use heatvit_tensor::Tensor;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How long either side waits before declaring the test broken — a bound
/// that only a bug reaches, so a failure never hangs the suite.
const GIVE_UP: Duration = Duration::from_secs(60);

#[derive(Default)]
struct GateState {
    open: bool,
    /// Inferences that have reached the gate so far.
    entered: usize,
}

/// The test's side of a [`Gated`] model.
#[derive(Default)]
pub struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

impl Gate {
    /// Blocks until at least `n` inferences have reached the gate.
    pub fn wait_entered(&self, n: usize) {
        let state = self.state.lock().unwrap();
        let (state, timeout) = self
            .changed
            .wait_timeout_while(state, GIVE_UP, |s| s.entered < n)
            .unwrap();
        assert!(
            !timeout.timed_out(),
            "only {} of {n} inferences reached the gate",
            state.entered
        );
    }

    /// Lets every held and every later inference through.
    pub fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.changed.notify_all();
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.entered += 1;
        self.changed.notify_all();
        let (_open, timeout) = self
            .changed
            .wait_timeout_while(state, GIVE_UP, |s| !s.open)
            .unwrap();
        assert!(!timeout.timed_out(), "the test never opened the gate");
    }
}

/// `inner`, except that each image first waits at the shared [`Gate`].
pub struct Gated<M> {
    inner: M,
    gate: Arc<Gate>,
}

/// Wraps `inner` behind a closed gate and hands back the gate.
pub fn gated<M>(inner: M) -> (Gated<M>, Arc<Gate>) {
    let gate = Arc::new(Gate::default());
    let model = Gated {
        inner,
        gate: Arc::clone(&gate),
    };
    (model, gate)
}

impl<M: InferenceModel> InferenceModel for Gated<M> {
    fn variant(&self) -> &str {
        self.inner.variant()
    }

    fn config(&self) -> &ViTConfig {
        self.inner.config()
    }

    fn infer_one(&self, image: &Tensor, scratch: &mut PruneScratch) -> ModelOutput {
        self.gate.pass();
        self.inner.infer_one(image, scratch)
    }

    fn dense_macs(&self) -> u64 {
        self.inner.dense_macs()
    }

    fn cost_profile(&self) -> CostProfile {
        self.inner.cost_profile()
    }
}

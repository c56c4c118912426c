//! The `nn` layer alone: the packed LSTM step and policy head of the
//! trained model, called directly at the model's own dimensions.

use crate::stats::median;
use nn::{LstmScratch, LstmState};
use rl4oasd::TrainedModel;
use std::hint::black_box;
use std::time::Instant;

const CALLS: usize = 20_000;
const REPS: usize = 5;

/// `(lstm step ns, policy head ns, calls timed per kernel)`, each time
/// the median over [`REPS`] timings of [`CALLS`] calls.
pub fn step_ns(model: &TrainedModel) -> (f64, f64, u64) {
    let packed = model.packed();
    let x: Vec<f32> = (0..packed.lstm.input_dim())
        .map(|i| (i % 7) as f32 * 0.05)
        .collect();
    let mut state = LstmState::zeros(packed.lstm.hidden_dim());
    let mut scratch = LstmScratch::default();
    let feats: Vec<f32> = (0..packed.policy.in_dim())
        .map(|i| (i % 5) as f32 * 0.1)
        .collect();
    let mut logits = vec![0.0f32; packed.policy.out_dim()];
    let (mut lstm, mut head) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        for _ in 0..CALLS {
            packed
                .lstm
                .infer_step(black_box(&x), &mut state, &mut scratch);
        }
        black_box(&state);
        lstm.push(t.elapsed().as_nanos() as f64 / CALLS as f64);
        let t = Instant::now();
        for _ in 0..CALLS {
            packed.policy.infer(black_box(&feats), &mut logits);
            black_box(&logits);
        }
        head.push(t.elapsed().as_nanos() as f64 / CALLS as f64);
    }
    (median(&mut lstm), median(&mut head), (REPS * CALLS) as u64)
}

//! The workspace pool stays bounded on warm paths.
//!
//! Every layer draws its outputs, input gradients and backward caches from
//! the caller's [`Workspace`] and returns them on drop, so once a
//! workload's buffer set is resident the pool neither grows its free list
//! nor its resident bytes. Two legs pin that:
//!
//! * inference on a [`Modality::Hard`] pipeline (the hardware encoder
//!   writes its codes straight into a pooled buffer), over 100 warm
//!   `classify_batch` calls;
//! * training on `resnet_proxy` (batch norm, residual blocks, pooling):
//!   `forward_ws(Train)` + `backward_ws` on one test-owned workspace.

use leca::core::config::LecaConfig;
use leca::core::encoder::Modality;
use leca::core::pipeline::LecaPipeline;
use leca::core::session::InferenceSession;
use leca::nn::backbone::{resnet_proxy, tiny_cnn};
use leca::nn::loss::SoftmaxCrossEntropy;
use leca::nn::{Layer, Mode};
use leca::tensor::{Tensor, Workspace, WorkspaceStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The occupancy part of the pool counters (hits/misses keep counting).
fn occupancy(s: WorkspaceStats) -> (usize, usize, usize) {
    (s.live, s.free, s.bytes_resident)
}

#[test]
fn hard_session_pool_is_bounded_over_warm_classify_calls() {
    let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
    let bb = tiny_cnn(4, &mut StdRng::seed_from_u64(0));
    let mut p = LecaPipeline::new(&cfg, Modality::Hard, bb, 7).unwrap();
    let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.1, 0.9, &mut StdRng::seed_from_u64(1));
    let mut session = InferenceSession::for_pipeline(&mut p);
    let mut preds = Vec::new();
    for _ in 0..3 {
        session.classify_batch(&x, &mut preds).unwrap();
    }
    let warm = session.stats();
    for call in 0..100 {
        session.classify_batch(&x, &mut preds).unwrap();
        assert_eq!(
            occupancy(session.stats()),
            occupancy(warm),
            "pool grew on warm classify_batch call {call}: {} vs warm {warm}",
            session.stats()
        );
    }
}

#[test]
fn resnet_proxy_training_pool_is_bounded() {
    let mut bb = resnet_proxy(4, &mut StdRng::seed_from_u64(3));
    let x = Tensor::rand_uniform(&[4, 3, 16, 16], 0.1, 0.9, &mut StdRng::seed_from_u64(4));
    let labels = [0, 1, 2, 3];
    let loss = SoftmaxCrossEntropy::new();
    let ws = Workspace::new();
    let mut warm = None;
    for step in 0..6 {
        bb.zero_grad();
        let logits = bb.forward_ws(&x, Mode::Train, &ws).unwrap();
        let (_, grad) = loss.forward(&logits, &labels).unwrap();
        drop(logits);
        let gx = bb.backward_ws(&grad, &ws).unwrap();
        assert_eq!(gx.shape(), x.shape());
        drop(gx);
        let now = occupancy(ws.stats());
        assert_eq!(now.0, 0, "step {step} left pooled buffers live");
        match warm {
            None if step == 1 => warm = Some(now),
            Some(w) => assert_eq!(now, w, "pool grew on training step {step}"),
            None => {}
        }
    }
}

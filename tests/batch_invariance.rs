//! Batch-composition invariance of f32 inference.
//!
//! An image's logits must not depend on which other images share its
//! batch: classified alone, in a batch of 5 or in a batch of 32, image `i`
//! gets the same logits bit for bit. The forward convolutions run one
//! image at a time and every other layer is per-image in eval mode, so
//! nothing couples the images. `leca-serve` relies on this: its dynamic
//! batcher groups whatever requests are queued, and its oracle compares
//! the batched replies with standalone predictions.
//!
//! Covered: the proxy (3x24x24, `resnet_proxy`) and full (3x48x48,
//! `resnet_full`) pipelines at the paper's CR-8 design point, through
//! `InferenceSession::logits`, at `LECA_THREADS` 1 and 2. The hard
//! encoder is used because the noisy one draws fresh device noise on
//! every forward.

use leca::core::config::LecaConfig;
use leca::core::encoder::Modality;
use leca::core::pipeline::LecaPipeline;
use leca::core::session::InferenceSession;
use leca::nn::backbone::{resnet_full, resnet_proxy, Backbone};
use leca::tensor::parallel::refresh_num_threads;
use leca::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

const CLASSES: usize = 12;
const BATCH: usize = 32;
const SMALL_BATCH: usize = 5;

/// Runs `body` with `LECA_THREADS` set to `threads`, restoring the
/// previous value (and cached count) afterwards.
fn with_threads<T>(threads: usize, body: impl FnOnce() -> T) -> T {
    let old = std::env::var("LECA_THREADS").ok();
    std::env::set_var("LECA_THREADS", threads.to_string());
    refresh_num_threads();
    let out = body();
    match old {
        Some(v) => std::env::set_var("LECA_THREADS", v),
        None => std::env::remove_var("LECA_THREADS"),
    }
    refresh_num_threads();
    out
}

/// Images `first .. first + count` of the batch `x`.
fn images(x: &Tensor, first: usize, count: usize) -> Tensor {
    let d = x.shape();
    let chw = d[1] * d[2] * d[3];
    let data = x.as_slice()[first * chw..(first + count) * chw].to_vec();
    Tensor::from_vec(data, &[count, d[1], d[2], d[3]]).unwrap()
}

/// The logits rows of `x`, as bit patterns.
fn logits_bits(session: &mut InferenceSession<'_>, x: &Tensor) -> Vec<Vec<u32>> {
    let logits = session.logits(x).unwrap();
    logits
        .as_slice()
        .chunks_exact(CLASSES)
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Checks that image `i`'s logits are the same alone, in the first
/// [`SMALL_BATCH`] images and in the full batch, at both thread counts,
/// and that the full-batch logits agree across the thread counts.
fn check_pipeline(name: &str, side: usize, backbone: fn(usize, &mut StdRng) -> Backbone) {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let x = Tensor::rand_uniform(
        &[BATCH, 3, side, side],
        0.05,
        0.95,
        &mut StdRng::seed_from_u64(5),
    );
    let mut per_threads = Vec::new();
    for threads in [1usize, 2] {
        let full = with_threads(threads, || {
            let cfg = LecaConfig::paper_for_cr(8).unwrap();
            let bb = backbone(CLASSES, &mut StdRng::seed_from_u64(3));
            let mut p = LecaPipeline::new(&cfg, Modality::Hard, bb, 4).unwrap();
            let mut session = InferenceSession::for_pipeline(&mut p);
            let full = logits_bits(&mut session, &x);
            let small = logits_bits(&mut session, &images(&x, 0, SMALL_BATCH));
            for (i, row) in small.iter().enumerate() {
                assert_eq!(
                    row, &full[i],
                    "{name}: image {i} in a batch of {SMALL_BATCH} vs {BATCH} at LECA_THREADS={threads}"
                );
            }
            for i in [0, 1, SMALL_BATCH - 1, BATCH - 1] {
                let alone = logits_bits(&mut session, &images(&x, i, 1));
                assert_eq!(
                    alone[0], full[i],
                    "{name}: image {i} alone vs in a batch of {BATCH} at LECA_THREADS={threads}"
                );
            }
            full
        });
        per_threads.push(full);
    }
    assert_eq!(
        per_threads[0], per_threads[1],
        "{name}: batch logits differ between LECA_THREADS=1 and 2"
    );
}

#[test]
fn proxy_logits_do_not_depend_on_batch_composition() {
    check_pipeline("proxy", 24, resnet_proxy::<StdRng>);
}

#[test]
fn full_logits_do_not_depend_on_batch_composition() {
    check_pipeline("full", 48, resnet_full::<StdRng>);
}

//! Bit-exactness of the workspace inference path.
//!
//! Every layer has one implementation, `forward_ws`; the one-off
//! `Layer::forward` runs it on a fresh workspace, while a session reuses
//! its pool across batches. Reuse must never change a bit — checkouts are
//! zero-filled exactly like `Tensor::zeros` and no reduction order
//! depends on which buffer a stage lands in. This file pins that at
//! `LECA_THREADS` 1 and 8 and across kernel backends, for the Soft and
//! the Hard pipeline (whose hardware encoder also writes into the pool).
//!
//! `tests/determinism.rs` holds the goldens; this file only needs
//! relative equality because the fresh-pool path is itself pinned there.

use leca::core::config::LecaConfig;
use leca::core::encoder::Modality;
use leca::core::pipeline::LecaPipeline;
use leca::core::session::InferenceSession;
use leca::nn::backbone::tiny_cnn;
use leca::nn::{Layer, Mode};
use leca::tensor::backend::refresh_backend;
use leca::tensor::parallel::refresh_num_threads;
use leca::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

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

/// Runs `body` with `LECA_BACKEND` set to `name` (`"scalar"` /
/// `"avx2"`), restoring the previous value (and cached dispatch)
/// afterwards.
fn with_backend<T>(name: &str, body: impl FnOnce() -> T) -> T {
    let old = std::env::var("LECA_BACKEND").ok();
    std::env::set_var("LECA_BACKEND", name);
    refresh_backend();
    let out = body();
    match old {
        Some(v) => std::env::set_var("LECA_BACKEND", v),
        None => std::env::remove_var("LECA_BACKEND"),
    }
    refresh_backend();
    out
}

/// Order-sensitive bit-level checksum of a tensor's contents.
fn checksum(t: &Tensor) -> u64 {
    t.as_slice()
        .iter()
        .fold(0u64, |h, v| h.rotate_left(7) ^ u64::from(v.to_bits()))
}

fn pipeline(modality: Modality) -> LecaPipeline {
    let cfg = LecaConfig::new(2, 4, 3.0).unwrap();
    let bb = tiny_cnn(4, &mut StdRng::seed_from_u64(0));
    LecaPipeline::new(&cfg, modality, bb, 7).unwrap()
}

fn input() -> Tensor {
    let mut rng = StdRng::seed_from_u64(42);
    Tensor::rand_uniform(&[4, 3, 16, 16], 0.1, 0.9, &mut rng)
}

/// (allocating-forward checksum, session-logits checksum over 3 passes).
fn forward_vs_session(modality: Modality) -> (u64, Vec<u64>) {
    let mut p = pipeline(modality);
    let x = input();
    let alloc_ck = checksum(&Layer::forward(&mut p, &x, Mode::Eval).unwrap());
    let mut session = InferenceSession::for_pipeline(&mut p);
    let session_cks = (0..3)
        .map(|_| checksum(&session.logits(&x).unwrap()))
        .collect();
    (alloc_ck, session_cks)
}

#[test]
fn workspace_path_is_bit_identical_to_allocating_path() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for modality in [Modality::Soft, Modality::Hard] {
        for threads in [1, 8] {
            let (alloc_ck, session_cks) = with_threads(threads, || forward_vs_session(modality));
            for (pass, ck) in session_cks.iter().enumerate() {
                assert_eq!(
                    *ck, alloc_ck,
                    "{modality:?} session pass {pass} diverged from the allocating \
                     forward at LECA_THREADS={threads}"
                );
            }
        }
    }
}

#[test]
fn workspace_path_is_thread_count_invariant() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for modality in [Modality::Soft, Modality::Hard] {
        let single = with_threads(1, || forward_vs_session(modality));
        let eight = with_threads(8, || forward_vs_session(modality));
        assert_eq!(
            single, eight,
            "{modality:?} workspace inference must not depend on LECA_THREADS"
        );
    }
}

#[test]
fn workspace_path_is_kernel_backend_invariant() {
    // The full LECA_BACKEND x LECA_THREADS matrix: every leg must produce
    // byte-identical logits (checksums are order-sensitive and bit-level).
    // On hosts without AVX2 the `avx2` leg degrades to scalar and the
    // assertion holds trivially.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for modality in [Modality::Soft, Modality::Hard] {
        let mut legs = Vec::new();
        for backend in ["scalar", "avx2"] {
            for threads in [1, 8] {
                let got = with_backend(backend, || {
                    with_threads(threads, || forward_vs_session(modality))
                });
                legs.push((backend, threads, got));
            }
        }
        let (_, _, reference) = &legs[0];
        for (backend, threads, got) in &legs {
            assert_eq!(
                got, reference,
                "{modality:?} diverged at LECA_BACKEND={backend} LECA_THREADS={threads}"
            );
        }
    }
}

/// Int8 session leg: enable the quantized engine from a pinned
/// calibration batch, checksum `logits_int8` over 3 passes (engine
/// scratch reuse must not change bits), and collect the predictions.
fn int8_session_results() -> (Vec<u64>, Vec<usize>) {
    let mut p = pipeline(Modality::Soft);
    let x = input();
    let mut calib_rng = StdRng::seed_from_u64(7);
    let calib = Tensor::rand_uniform(&[4, 3, 16, 16], 0.1, 0.9, &mut calib_rng);
    let mut session = InferenceSession::for_pipeline(&mut p);
    session.enable_int8(&calib).unwrap();
    let cks = (0..3)
        .map(|_| {
            session
                .logits_int8(&x)
                .unwrap()
                .iter()
                .fold(0u64, |h, v| h.rotate_left(7) ^ u64::from(v.to_bits()))
        })
        .collect();
    let mut preds = Vec::new();
    session
        .classify_batch_with(&x, &mut preds, leca::core::session::Precision::Int8)
        .unwrap();
    (cks, preds)
}

#[test]
fn int8_path_is_invariant_across_the_backend_thread_matrix() {
    // The quantized engine accumulates in exact i32 arithmetic and its
    // epilogues round deterministically, so — like the f32 workspace
    // path — every LECA_BACKEND x LECA_THREADS leg must be bit-identical,
    // and repeated passes through the cached scratch must not drift.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut legs = Vec::new();
    for backend in ["scalar", "avx2"] {
        for threads in [1, 8] {
            let got = with_backend(backend, || with_threads(threads, int8_session_results));
            assert!(
                got.0.windows(2).all(|w| w[0] == w[1]),
                "int8 logits drifted across passes at LECA_BACKEND={backend} LECA_THREADS={threads}"
            );
            legs.push((backend, threads, got));
        }
    }
    let (_, _, reference) = &legs[0];
    for (backend, threads, got) in &legs {
        assert_eq!(
            got, reference,
            "int8 diverged at LECA_BACKEND={backend} LECA_THREADS={threads}"
        );
    }
}

#[test]
fn classify_batch_agrees_with_argmax_at_both_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 8] {
        with_threads(threads, || {
            let mut p = pipeline(Modality::Soft);
            let x = input();
            let expect = Layer::forward(&mut p, &x, Mode::Eval)
                .unwrap()
                .argmax_rows()
                .unwrap();
            let mut session = InferenceSession::for_pipeline(&mut p);
            let mut preds = Vec::new();
            session.classify_batch(&x, &mut preds).unwrap();
            assert_eq!(preds, expect, "LECA_THREADS={threads}");
        });
    }
}

//! Fig. 4(a): proxy-pipeline accuracy vs encoder kernel size K.
//!
//! Sweeps K in {2, 3, 4} at fixed compression ratios. K also sets the
//! stride, so larger K downsamples more but keeps CR constant by raising
//! N_ch. Soft modality (the hardware fixes K = 2; this sweep is the
//! algorithmic design-space exploration that *justified* K = 2).

use leca_bench as harness;
use leca_core::config::LecaConfig;
use leca_core::encoder::Modality;

fn main() {
    let data = harness::proxy_data();
    let (_, baseline) = harness::cached_backbone("backbone-proxy", &data).expect("backbone trains");
    println!(
        "frozen backbone baseline accuracy: {}",
        harness::pct(baseline)
    );

    // Configurations holding CR fixed while K varies (Eq. (1)):
    // CR = K²·3·8 / (N_ch·Q_bit).
    type Sweep = (usize, &'static [(usize, usize, f32)]);
    let sweeps: &[Sweep] = &[
        // (CR, [(K, N_ch, Q_bit)])
        (4, &[(2, 8, 3.0), (3, 9, 6.0), (4, 12, 8.0)]),
        (8, &[(2, 4, 3.0), (4, 12, 4.0)]),
    ];
    let size = data.train().image_shape().map(|s| s[1]).unwrap_or(24);

    let mut rows = Vec::new();
    for (cr, configs) in sweeps {
        for (k, n_ch, qbit) in configs.iter() {
            let mut cfg = LecaConfig::new(*k, *n_ch, *qbit).expect("valid config");
            // Skip K values that do not tile the dataset's image size.
            if !size.is_multiple_of(*k) {
                rows.push(vec![
                    format!("{cr}x"),
                    k.to_string(),
                    format!("{n_ch}|{qbit}"),
                    format!("{:.1}", cfg.compression_ratio()),
                    format!("skipped ({size} not divisible by K)"),
                ]);
                continue;
            }
            cfg.decoder_filters = 16;
            // K = 2 configurations are shared with the Fig. 4(b) sweep.
            let tag = if *k == 2 {
                format!("pipe-proxy-n{n_ch}q{qbit}-soft")
            } else {
                format!("pipe-proxy-k{k}-n{n_ch}q{qbit}-soft")
            };
            let (_, acc) =
                harness::cached_pipeline(&tag, &cfg, Modality::Soft, &data, "backbone-proxy")
                    .expect("pipeline trains");
            rows.push(vec![
                format!("{cr}x"),
                k.to_string(),
                format!("{n_ch}|{qbit}"),
                format!("{:.1}", cfg.compression_ratio()),
                harness::pct(acc),
            ]);
        }
    }
    harness::print_table(
        "Fig. 4(a) — accuracy vs kernel size K (proxy pipeline, soft training)",
        &["Target CR", "K", "N_ch|Q_bit", "Eq.(1) CR", "Accuracy"],
        &rows,
    );
    println!(
        "\npaper finding: K in {{2, 3, 4}} gives similar accuracy; K = 2 chosen for hardware \
         efficiency (fewer consecutive MACs, smaller ofmap buffer)."
    );
}

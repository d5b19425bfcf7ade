//! Ablation: decoder capacity (DnCNN depth M and width F).
//!
//! Sec. 3.2 fixes M = 15, F = 64 and notes that "complicated decoder
//! designs used for image quality enhancement are not necessary". This
//! reproduction defaults to a smaller decoder for the single-core budget;
//! the ablation sweeps (M, F) at the CR = 8 design point to show the trend
//! — diminishing returns beyond a modest capacity.
//!
//! Not part of `run_experiments.sh` by default (it trains four pipelines);
//! run it directly:
//!
//! ```text
//! cargo run --release -p leca-bench --bin ablation_decoder
//! ```

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

    let mut rows = Vec::new();
    for (m, f) in [(1usize, 8usize), (1, 16), (3, 16), (5, 24)] {
        let mut cfg = LecaConfig::paper_for_cr(8).expect("design point");
        cfg.decoder_layers = m;
        cfg.decoder_filters = f;
        let tag = format!("pipe-proxy-n4q3-soft-decM{m}F{f}");
        let (mut pipe, acc) =
            harness::cached_pipeline(&tag, &cfg, Modality::Soft, &data, "backbone-proxy")
                .expect("trains");
        let mut params = 0usize;
        leca_nn::Layer::visit_params(pipe.decoder_mut(), &mut |p| params += p.len());
        rows.push(vec![
            format!("M={m}, F={f}"),
            params.to_string(),
            harness::pct(acc),
            format!("{:.2}pp", (baseline - acc) * 100.0),
        ]);
    }
    harness::print_table(
        "Ablation — decoder capacity at CR=8 (proxy, soft training)",
        &["Decoder", "Decoder params", "Accuracy", "Loss vs baseline"],
        &rows,
    );
    println!(
        "\nexpected trend: accuracy improves with decoder capacity and then saturates — \
         the decoder only needs to recover task-salient structure, not PSNR (paper uses \
         M=15, F=64 at ImageNet scale)."
    );
}

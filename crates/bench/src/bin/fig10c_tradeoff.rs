//! Fig. 10(c): accuracy-loss vs compression tradeoff across all methods
//! (proxy pipeline).
//!
//! Baseline codecs (SD, LR, CS, MS, AGT) are evaluated through the frozen
//! backbone; LeCA points come from the (cached) trained pipelines across
//! CRs, so running `fig4b_nch_qbit` first makes this instant.

use leca_baselines::agt::Agt;
use leca_baselines::cs::Cs;
use leca_baselines::lr::Lr;
use leca_baselines::ms::Ms;
use leca_baselines::sd::Sd;
use leca_baselines::Codec;
use leca_bench as harness;
use leca_core::config::LecaConfig;
use leca_core::encoder::Modality;
use leca_core::eval::evaluate_codec;

fn main() {
    let data = harness::proxy_data();
    let (mut backbone, baseline) =
        harness::cached_backbone("backbone-proxy", &data).expect("backbone trains");
    println!(
        "frozen backbone baseline accuracy: {}",
        harness::pct(baseline)
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut push_codec = |codec: &dyn Codec, backbone: &mut leca_nn::backbone::Backbone| {
        let r = evaluate_codec(codec, backbone, data.val()).expect("codec eval");
        rows.push(vec![
            r.name.to_string(),
            format!("{:.2}", r.mean_cr),
            harness::pct(r.accuracy),
            format!("{:.2}pp", (baseline - r.accuracy) * 100.0),
            format!("{:.1}", r.mean_psnr),
            format!("{:.3}", r.mean_ssim),
        ]);
    };

    for cr in [4usize, 6, 8] {
        push_codec(&Sd::for_cr(cr).expect("config"), &mut backbone);
        push_codec(&Lr::for_cr(cr).expect("config"), &mut backbone);
    }
    push_codec(&Cs::paper_4x(7).expect("config"), &mut backbone);
    push_codec(&Ms::new(), &mut backbone);
    push_codec(&Agt::paper(), &mut backbone);

    // LeCA points across the CR range (soft-trained sweep configurations).
    for (n_ch, qbit) in [(8usize, 3.0f32), (4, 4.0), (4, 3.0), (4, 2.0)] {
        let cfg = LecaConfig::new(2, n_ch, qbit).expect("valid");
        let tag = format!("pipe-proxy-n{n_ch}q{qbit}-soft");
        let (_, acc) =
            harness::cached_pipeline(&tag, &cfg, Modality::Soft, &data, "backbone-proxy")
                .expect("pipeline trains");
        rows.push(vec![
            format!("LeCA {n_ch}|{qbit}"),
            format!("{:.2}", cfg.compression_ratio()),
            harness::pct(acc),
            format!("{:.2}pp", (baseline - acc) * 100.0),
            "-".into(),
            "-".into(),
        ]);
    }

    harness::print_table(
        "Fig. 10(c) — accuracy loss vs compression (proxy pipeline)",
        &["Method", "CR", "Accuracy", "Loss", "PSNR (dB)", "SSIM"],
        &rows,
    );
    println!(
        "\npaper reference at CR=4: MS loses 5.3pp, CS 18pp, LeCA <1pp — task-specific \
         training dominates the task-agnostic baselines."
    );
}

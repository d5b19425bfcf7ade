//! Sec. 6.4 "Standard compression": JPEG vs LeCA.
//!
//! The paper measures a 0.51 pp accuracy loss for JPEG at 5.07x against
//! LeCA's 0.98 pp at 6x — but JPEG needs a power-hungry digital engine
//! *after* full-rate 8-bit acquisition, while LeCA compresses before
//! digitization. This bench sweeps JPEG quality and prints both views.

use leca_baselines::jpeg::Jpeg;
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

    let mut rows = Vec::new();
    for quality in [85u32, 60, 35, 15] {
        let rep = evaluate_codec(
            &Jpeg::new(quality).expect("quality in range"),
            &mut backbone,
            data.val(),
        )
        .expect("jpeg eval");
        rows.push(vec![
            format!("JPEG q={quality}"),
            format!("{:.2}", rep.mean_cr),
            harness::pct(rep.accuracy),
            format!("{:.2}pp", (baseline - rep.accuracy) * 100.0),
            "digital engine after 8-bit acquisition".into(),
        ]);
    }

    let cfg = LecaConfig::paper_for_cr(6).expect("design point");
    let (_, acc) = harness::cached_pipeline(
        &format!("pipe-proxy-n{}q{}-hard", cfg.n_ch, cfg.qbit),
        &cfg,
        Modality::Hard,
        &data,
        "backbone-proxy",
    )
    .expect("pipeline trains");
    rows.push(vec![
        "LeCA CR=6 (4|4)".into(),
        "6.00".into(),
        harness::pct(acc),
        format!("{:.2}pp", (baseline - acc) * 100.0),
        "analog, before digitization".into(),
    ]);

    harness::print_table(
        "Sec. 6.4 — JPEG vs LeCA (proxy pipeline)",
        &[
            "Method",
            "CR",
            "Accuracy",
            "Loss",
            "Where compression happens",
        ],
        &rows,
    );
    println!(
        "\npaper reference: JPEG 0.51pp loss at 5.07x; LeCA 0.98pp at 6x — comparable \
         accuracy, but JPEG adds nJ/pixel digital compression energy on top of full \
         acquisition cost."
    );
}

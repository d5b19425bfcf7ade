//! Fig. 10(a,b): downstream classification accuracy of SD, LR and LeCA at
//! CR in {4, 6, 8} on the proxy and full pipelines.
//!
//! LeCA pipelines are hard-trained (the Fig. 9 step-1 protocol) with the
//! frozen pre-trained backbone; SD/LR are codecs evaluated through the same
//! backbone. Results are cached under `.leca-cache/`.

use leca_baselines::lr::Lr;
use leca_baselines::sd::Sd;
use leca_bench as harness;
use leca_core::config::LecaConfig;
use leca_core::encoder::Modality;
use leca_core::eval::evaluate_codec;
use leca_data::SynthVision;

fn run(pipeline_name: &str, data: &SynthVision) {
    let (mut backbone, baseline_acc) =
        harness::cached_backbone(&format!("backbone-{pipeline_name}"), data)
            .expect("backbone trains");
    println!(
        "\n### {pipeline_name} pipeline — frozen backbone baseline accuracy {} ###",
        harness::pct(baseline_acc)
    );

    let mut rows = Vec::new();
    for cr in [4usize, 6, 8] {
        let sd = evaluate_codec(
            &Sd::for_cr(cr).expect("paper config"),
            &mut backbone,
            data.val(),
        )
        .expect("sd eval");
        let lr = evaluate_codec(
            &Lr::for_cr(cr).expect("paper config"),
            &mut backbone,
            data.val(),
        )
        .expect("lr eval");

        let cfg = LecaConfig::paper_for_cr(cr).expect("paper design point");
        let tag = format!("pipe-{pipeline_name}-n{}q{}-hard", cfg.n_ch, cfg.qbit);
        let (_, leca_acc) = harness::cached_pipeline(
            &tag,
            &cfg,
            Modality::Hard,
            data,
            &format!("backbone-{pipeline_name}"),
        )
        .expect("leca trains");

        rows.push(vec![
            format!("{cr}x"),
            harness::pct(sd.accuracy),
            harness::pct(lr.accuracy),
            harness::pct(leca_acc),
            harness::pct(baseline_acc),
            format!("{:.2}pp", (baseline_acc - leca_acc) * 100.0),
        ]);
    }
    harness::print_table(
        &format!("Fig. 10 — accuracy on the {pipeline_name} pipeline"),
        &["CR", "SD", "LR", "LeCA", "CNV baseline", "LeCA loss"],
        &rows,
    );
}

fn main() {
    run("proxy", &harness::proxy_data());
    run("full", &harness::full_data());
    println!(
        "\npaper reference (ImageNet/ResNet-50): LeCA 75.05 / 75.04 / 74.01% at CR 4/6/8 \
         vs 76.02% baseline (losses 0.97 / 0.98 / 2.01 pp)"
    );
}

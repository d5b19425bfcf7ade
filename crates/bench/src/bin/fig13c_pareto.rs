//! Fig. 13(c): sensor energy vs accuracy-loss tradeoff (proxy pipeline).
//!
//! Joins the Fig. 13 energy model with the Fig. 10(c) accuracy protocol:
//! each sensor configuration is a point (frame energy, accuracy loss); the
//! paper's claim is that LeCA defines the Pareto frontier.

use leca_baselines::agt::Agt;
use leca_baselines::cnv::Cnv;
use leca_baselines::cs::Cs;
use leca_baselines::lr::Lr;
use leca_baselines::ms::Ms;
use leca_baselines::sd::Sd;
use leca_baselines::Codec;
use leca_bench as harness;
use leca_core::config::LecaConfig;
use leca_core::encoder::Modality;
use leca_core::eval::evaluate_codec;
use leca_sensor::energy::EnergyModel;
use leca_sensor::SensorGeometry;

struct Point {
    name: String,
    energy_uj: f64,
    loss_pp: f32,
}

fn main() {
    let data = harness::proxy_data();
    let (mut backbone, baseline) =
        harness::cached_backbone("backbone-proxy", &data).expect("backbone trains");
    let m = EnergyModel::paper();
    let (r, c) = (448usize, 448usize);
    let mut points: Vec<Point> = Vec::new();

    let codec_point =
        |codec: &dyn Codec, name: &str, energy: f64, backbone: &mut leca_nn::backbone::Backbone| {
            let rep = evaluate_codec(codec, backbone, data.val()).expect("codec eval");
            Point {
                name: name.to_string(),
                energy_uj: energy,
                loss_pp: (baseline - rep.accuracy) * 100.0,
            }
        };

    points.push(codec_point(
        &Cnv::new(),
        "CNV",
        m.cnv_frame(r, c).expect("model").total_uj(),
        &mut backbone,
    ));
    points.push(codec_point(
        &Sd::for_cr(4).expect("cfg"),
        "SD (CR4)",
        m.sd_frame(r, c, 2).expect("model").total_uj(),
        &mut backbone,
    ));
    points.push(codec_point(
        &Lr::for_cr(4).expect("cfg"),
        "LR (3-bit)",
        m.lr_frame(r, c, 3.0).expect("model").total_uj(),
        &mut backbone,
    ));
    points.push(codec_point(
        &Cs::paper_4x(7).expect("cfg"),
        "CS (4x)*",
        m.cs_frame(r, c).expect("model").total_uj(),
        &mut backbone,
    ));
    points.push(codec_point(
        &Ms::new(),
        "MS*",
        m.ms_frame(r, c).expect("model").total_uj(),
        &mut backbone,
    ));
    points.push(codec_point(
        &Agt::paper(),
        "AGT",
        m.agt_frame(r, c).expect("model").total_uj(),
        &mut backbone,
    ));

    // LeCA design points (cached hard-trained pipelines from fig10).
    for cr in [4usize, 6, 8] {
        let cfg = LecaConfig::paper_for_cr(cr).expect("design point");
        let tag = format!("pipe-proxy-n{}q{}-hard", cfg.n_ch, cfg.qbit);
        let (_, acc) =
            harness::cached_pipeline(&tag, &cfg, Modality::Hard, &data, "backbone-proxy")
                .expect("pipeline trains");
        let geom = SensorGeometry::paper(cfg.n_ch);
        points.push(Point {
            name: format!("LeCA CR={cr}"),
            energy_uj: m.leca_frame(&geom, cfg.qbit).expect("model").total_uj(),
            loss_pp: (baseline - acc) * 100.0,
        });
    }

    // A point is Pareto-optimal if no other point has both lower energy
    // and lower loss.
    let pareto: Vec<bool> = points
        .iter()
        .map(|p| {
            !points
                .iter()
                .any(|q| q.energy_uj < p.energy_uj - 1e-9 && q.loss_pp < p.loss_pp - 1e-4)
        })
        .collect();

    let rows: Vec<Vec<String>> = points
        .iter()
        .zip(&pareto)
        .map(|(p, &on)| {
            vec![
                p.name.clone(),
                format!("{:.1}", p.energy_uj),
                format!("{:.2}", p.loss_pp),
                if on { "yes".into() } else { String::new() },
            ]
        })
        .collect();
    harness::print_table(
        "Fig. 13(c) — energy vs accuracy-loss (448x448 frame energy; proxy accuracy)",
        &[
            "Sensor",
            "Frame energy (uJ)",
            "Accuracy loss (pp)",
            "Pareto-optimal",
        ],
        &rows,
    );
    let leca_on_frontier = points
        .iter()
        .zip(&pareto)
        .filter(|(p, &on)| p.name.starts_with("LeCA") && on)
        .count();
    println!(
        "\nLeCA points on the Pareto frontier: {leca_on_frontier}/3 \
         (*MS/CS compression is resolution/content dependent)"
    );
}

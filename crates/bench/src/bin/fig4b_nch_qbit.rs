//! Fig. 4(b): N_ch x Q_bit design-space sweep at K = 2.
//!
//! For each compression ratio in {4, 6, 8, 12}, trains LeCA pipelines over
//! the feasible `N_ch|Q_bit` combinations (Eq. (1)) and reports accuracy —
//! reproducing the paper's finding that the best configuration sits in the
//! middle of each iso-CR line (too few channels *or* too aggressive bits
//! both hurt), with optima 8|3, 4|4, 4|3 at CR 4, 6, 8.

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

    // Iso-CR lines: N_ch · Q_bit = 96 / CR (K=2, C=3, Q_full=8).
    let lines: &[(usize, &[(usize, f32)])] = &[
        (4, &[(3, 8.0), (8, 3.0), (12, 2.0)]),
        (6, &[(2, 8.0), (4, 4.0)]),
        (8, &[(4, 3.0), (8, 1.5)]),
        (12, &[(2, 4.0), (4, 2.0)]),
    ];

    let mut rows = Vec::new();
    for (cr, configs) in lines {
        let mut best: Option<(String, f32)> = None;
        for (n_ch, qbit) in configs.iter() {
            let cfg = LecaConfig::new(2, *n_ch, *qbit).expect("valid config");
            assert!((cfg.compression_ratio() - *cr as f32).abs() < 1e-3);
            let tag = format!("pipe-proxy-n{n_ch}q{qbit}-soft");
            let (_, acc) =
                harness::cached_pipeline(&tag, &cfg, Modality::Soft, &data, "backbone-proxy")
                    .expect("pipeline trains");
            let label = format!("{n_ch}|{qbit}");
            if best.as_ref().map(|(_, a)| acc > *a).unwrap_or(true) {
                best = Some((label.clone(), acc));
            }
            rows.push(vec![
                format!("{cr}x"),
                label,
                harness::pct(acc),
                format!("{:.2}pp", (baseline - acc) * 100.0),
            ]);
        }
        if let Some((label, acc)) = best {
            rows.push(vec![
                format!("{cr}x"),
                format!("best: {label}"),
                harness::pct(acc),
                String::new(),
            ]);
        }
    }
    harness::print_table(
        "Fig. 4(b) — N_ch|Q_bit sweep at K=2 (proxy pipeline, soft training)",
        &["CR", "N_ch|Q_bit", "Accuracy", "Loss vs baseline"],
        &rows,
    );
    println!("\npaper optima: 8|3 (CR 4), 4|4 (CR 6), 4|3 (CR 8).");
}

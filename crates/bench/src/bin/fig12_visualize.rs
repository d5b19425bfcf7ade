//! Fig. 12: visualization of encoded and decoded features.
//!
//! Dumps, for one validation image: the original (PPM), the four encoded
//! feature-map channels (PGM), and the decoded reconstruction (PPM), at
//! two bit depths — showing that the cross-entropy-trained decoder still
//! produces structurally recognizable images, degrading with aggressive
//! quantization.

use leca_bench as harness;
use leca_core::config::LecaConfig;
use leca_core::encoder::Modality;
use leca_data::io::{write_pgm, write_ppm};
use leca_nn::Mode;
use leca_tensor::Tensor;

fn main() {
    let data = harness::proxy_data();
    let out_dir = std::path::PathBuf::from("fig12_out");
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    let img = data.val().images()[0].clone();
    write_ppm(out_dir.join("original.ppm"), &img).expect("write original");
    println!("wrote {}", out_dir.join("original.ppm").display());

    for (label, cr) in [("q4", 6usize), ("q3", 8usize)] {
        let cfg = LecaConfig::paper_for_cr(cr).expect("paper design point");
        let tag = format!("pipe-proxy-n{}q{}-hard", cfg.n_ch, cfg.qbit);
        let (mut pipe, acc) =
            harness::cached_pipeline(&tag, &cfg, Modality::Hard, &data, "backbone-proxy")
                .expect("trains");

        let s = img.shape().to_vec();
        let x = img.reshape(&[1, s[0], s[1], s[2]]).expect("batch dim");
        let ofmap = pipe.encode(&x, Mode::Eval).expect("encode");
        let decoded = pipe.decode(&ofmap, Mode::Eval).expect("decode");

        // Encoded channels (normalize [-1,1] → [0,1] for PGM).
        let (n_ch, oh, ow) = (ofmap.shape()[1], ofmap.shape()[2], ofmap.shape()[3]);
        for k in 0..n_ch.min(4) {
            let mut plane = Tensor::zeros(&[oh, ow]);
            for y in 0..oh {
                for xx in 0..ow {
                    plane.set(&[y, xx], (ofmap.at4(0, k, y, xx) + 1.0) / 2.0);
                }
            }
            let path = out_dir.join(format!("encoded_{label}_ch{k}.pgm"));
            write_pgm(&path, &plane).expect("write channel");
            println!("wrote {}", path.display());
        }

        // Decoded reconstruction.
        let dec = decoded
            .reshape(&[s[0], s[1], s[2]])
            .expect("drop batch dim")
            .clamp(0.0, 1.0);
        let path = out_dir.join(format!("decoded_{label}.ppm"));
        write_ppm(&path, &dec).expect("write decoded");
        let psnr = leca_data::metrics::psnr(&img, &dec, 1.0).expect("psnr");
        let ssim = leca_data::metrics::ssim(&img, &dec).expect("ssim");
        println!(
            "wrote {} — CR {}x pipeline (val acc {}), reconstruction PSNR {:.1} dB, SSIM {:.3}",
            path.display(),
            cr,
            harness::pct(acc),
            psnr,
            ssim
        );
    }
    println!(
        "\npaper observation: despite cross-entropy-only training, decoded images remain \
         structurally similar to the original; quality decays with more aggressive quantization."
    );
}

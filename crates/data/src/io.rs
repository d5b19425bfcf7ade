//! Minimal PPM (P6) / PGM (P5) image files.
//!
//! Used by the Fig. 12 experiment to dump encoded feature maps and decoded
//! reconstructions for visual inspection without any image-codec
//! dependency.

use leca_tensor::{Tensor, TensorError};
use std::io::{self, Read, Write};
use std::path::Path;

/// Errors from image file I/O.
#[derive(Debug)]
pub enum ImageIoError {
    /// Filesystem failure.
    Io(io::Error),
    /// The tensor is not a writable image shape.
    Shape(TensorError),
    /// The file is not a supported PPM/PGM.
    Format(String),
}

impl std::fmt::Display for ImageIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageIoError::Io(e) => write!(f, "image io error: {e}"),
            ImageIoError::Shape(e) => write!(f, "image shape error: {e}"),
            ImageIoError::Format(m) => write!(f, "image format error: {m}"),
        }
    }
}

impl std::error::Error for ImageIoError {}

impl From<io::Error> for ImageIoError {
    fn from(e: io::Error) -> Self {
        ImageIoError::Io(e)
    }
}

fn to_byte(v: f32) -> u8 {
    (v.clamp(0.0, 1.0) * 255.0).round() as u8
}

/// Writes a `(3, H, W)` tensor in `[0, 1]` as a binary PPM file.
///
/// # Errors
///
/// Returns [`ImageIoError::Shape`] for non-`(3, H, W)` tensors and
/// [`ImageIoError::Io`] on filesystem failures.
pub fn write_ppm<P: AsRef<Path>>(path: P, rgb: &Tensor) -> Result<(), ImageIoError> {
    if rgb.rank() != 3 || rgb.shape()[0] != 3 {
        return Err(ImageIoError::Shape(TensorError::RankMismatch {
            op: "write_ppm",
            expected: 3,
            actual: rgb.rank(),
        }));
    }
    let (h, w) = (rgb.shape()[1], rgb.shape()[2]);
    let mut out = Vec::with_capacity(3 * h * w + 32);
    out.extend_from_slice(format!("P6\n{w} {h}\n255\n").as_bytes());
    let src = rgb.as_slice();
    for y in 0..h {
        for x in 0..w {
            for c in 0..3 {
                out.push(to_byte(src[(c * h + y) * w + x]));
            }
        }
    }
    std::fs::File::create(path)?.write_all(&out)?;
    Ok(())
}

/// Writes an `(H, W)` (or `(1, H, W)`) tensor in `[0, 1]` as a binary PGM.
///
/// # Errors
///
/// Returns [`ImageIoError::Shape`] for unsupported shapes and
/// [`ImageIoError::Io`] on filesystem failures.
pub fn write_pgm<P: AsRef<Path>>(path: P, gray: &Tensor) -> Result<(), ImageIoError> {
    let (h, w) = match gray.shape() {
        [h, w] => (*h, *w),
        [1, h, w] => (*h, *w),
        _ => {
            return Err(ImageIoError::Shape(TensorError::RankMismatch {
                op: "write_pgm",
                expected: 2,
                actual: gray.rank(),
            }))
        }
    };
    let mut out = Vec::with_capacity(h * w + 32);
    out.extend_from_slice(format!("P5\n{w} {h}\n255\n").as_bytes());
    for &v in gray.as_slice() {
        out.push(to_byte(v));
    }
    std::fs::File::create(path)?.write_all(&out)?;
    Ok(())
}

/// The next whitespace-delimited header token at or after `*pos`, leaving
/// `*pos` on the byte just past it (empty at end of input).
fn next_token<'a>(data: &'a [u8], pos: &mut usize) -> &'a [u8] {
    while data.get(*pos).is_some_and(u8::is_ascii_whitespace) {
        *pos += 1;
    }
    let start = *pos;
    while data.get(*pos).is_some_and(|b| !b.is_ascii_whitespace()) {
        *pos += 1;
    }
    &data[start..*pos]
}

fn header_number(data: &[u8], pos: &mut usize, what: &str) -> Result<usize, ImageIoError> {
    std::str::from_utf8(next_token(data, pos))
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ImageIoError::Format(format!("missing {what}")))
}

/// Parses `magic width height maxval` plus the single whitespace byte that
/// ends the header, returning `(width, height, offset of the pixel data)`.
fn parse_header(data: &[u8], magic: &str) -> Result<(usize, usize, usize), ImageIoError> {
    let mut pos = 0;
    let m = next_token(data, &mut pos);
    if m != magic.as_bytes() {
        return Err(ImageIoError::Format(format!(
            "expected {magic}, got {}",
            String::from_utf8_lossy(m)
        )));
    }
    let w = header_number(data, &mut pos, "width")?;
    let h = header_number(data, &mut pos, "height")?;
    let maxv = header_number(data, &mut pos, "maxval")?;
    if maxv != 255 {
        return Err(ImageIoError::Format(format!("unsupported maxval {maxv}")));
    }
    if !data.get(pos).is_some_and(u8::is_ascii_whitespace) {
        return Err(ImageIoError::Format(
            "missing separator after maxval".into(),
        ));
    }
    Ok((w, h, pos + 1))
}

/// Reads a binary PPM (P6) file into a `(3, H, W)` tensor in `[0, 1]`.
///
/// # Errors
///
/// Returns [`ImageIoError::Format`] for malformed files and
/// [`ImageIoError::Io`] on filesystem failures.
pub fn read_ppm<P: AsRef<Path>>(path: P) -> Result<Tensor, ImageIoError> {
    let mut data = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut data)?;
    let (w, h, pos) = parse_header(&data, "P6")?;
    // Checked before allocating: a hostile header must not size the
    // tensor, only the bytes actually present can.
    match w.checked_mul(h).and_then(|px| px.checked_mul(3)) {
        Some(need) if need <= data.len() - pos => {}
        _ => return Err(ImageIoError::Format("truncated pixel data".into())),
    }
    let mut t = Tensor::zeros(&[3, h, w]);
    let dst = t.as_mut_slice();
    for y in 0..h {
        for x in 0..w {
            for c in 0..3 {
                dst[(c * h + y) * w + x] = data[pos + (y * w + x) * 3 + c] as f32 / 255.0;
            }
        }
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("leca_data_io_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn ppm_roundtrip_within_quantization() {
        let mut rng = StdRng::seed_from_u64(0);
        let img = Tensor::rand_uniform(&[3, 5, 7], 0.0, 1.0, &mut rng);
        let p = tmp("roundtrip.ppm");
        write_ppm(&p, &img).unwrap();
        let back = read_ppm(&p).unwrap();
        assert_eq!(back.shape(), img.shape());
        for (a, b) in img.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= 0.5 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn ppm_rejects_bad_shape() {
        assert!(write_ppm(tmp("bad.ppm"), &Tensor::zeros(&[1, 2, 2])).is_err());
        assert!(write_ppm(tmp("bad.ppm"), &Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn pgm_accepts_2d_and_3d_gray() {
        write_pgm(tmp("a.pgm"), &Tensor::zeros(&[4, 4])).unwrap();
        write_pgm(tmp("b.pgm"), &Tensor::zeros(&[1, 4, 4])).unwrap();
        assert!(write_pgm(tmp("c.pgm"), &Tensor::zeros(&[2, 4, 4])).is_err());
    }

    #[test]
    fn values_clamped_to_unit_range() {
        let img = Tensor::from_vec(vec![-1.0, 0.5, 2.0, 0.0], &[1, 2, 2]).unwrap();
        let p = tmp("clamp.pgm");
        write_pgm(&p, &img).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        let px = &bytes[bytes.len() - 4..];
        assert_eq!(px[0], 0);
        assert_eq!(px[1], 128);
        assert_eq!(px[2], 255);
    }

    #[test]
    fn read_rejects_wrong_magic() {
        let p = tmp("notppm.ppm");
        std::fs::write(&p, b"P5\n2 2\n255\n0000").unwrap();
        assert!(matches!(read_ppm(&p), Err(ImageIoError::Format(_))));
    }

    #[test]
    fn read_rejects_truncated() {
        let p = tmp("trunc.ppm");
        std::fs::write(&p, b"P6\n4 4\n255\nxx").unwrap();
        assert!(read_ppm(&p).is_err());
    }

    #[test]
    fn read_is_total_on_hostile_headers_and_truncations() {
        let valid = b"P6\n2 1\n255\nabcdef".to_vec();
        let mut cases: Vec<Vec<u8>> = vec![
            // No separator after maxval: the header must not be read as
            // pixel data.
            b"P6 1 1 255".to_vec(),
            // `w * h` and `3 * w * h` overflow usize.
            b"P6\n4611686018427387904 4\n255\n".to_vec(),
            b"P6\n6148914691236517206 1\n255\n".to_vec(),
            // Plausible but absent pixel data must not be allocated.
            b"P6\n1000000000 1000000000\n255\n".to_vec(),
            b"P6\n2 1\n65535\nabcdef".to_vec(),
            b"P6\n-2 1\n255\nabcdef".to_vec(),
            b"P6\xff 1 1 255\nabc".to_vec(),
        ];
        cases.extend((0..valid.len()).map(|n| valid[..n].to_vec()));
        for (i, bytes) in cases.iter().enumerate() {
            let p = tmp(&format!("hostile_{i}.ppm"));
            std::fs::write(&p, bytes).unwrap();
            let got = std::panic::catch_unwind(|| read_ppm(&p).map(|t| t.shape().to_vec()));
            assert!(
                matches!(got, Ok(Err(ImageIoError::Format(_)))),
                "{:?} must be a format error, got {got:?}",
                String::from_utf8_lossy(bytes)
            );
        }
        let p = tmp("hostile_valid.ppm");
        std::fs::write(&p, &valid).unwrap();
        assert_eq!(read_ppm(&p).unwrap().shape(), &[3, 1, 2]);
    }

    #[test]
    fn read_missing_file() {
        assert!(matches!(
            read_ppm("/definitely/missing.ppm"),
            Err(ImageIoError::Io(_))
        ));
    }
}

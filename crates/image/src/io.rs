//! PPM/PGM image I/O for the qualitative figures.
//!
//! The experiment harnesses save before/after images (Figures 1, 3, 4, 5 of
//! the paper) as binary PPM (`P6`) so they can be inspected with any image
//! viewer; feature heatmaps are saved as binary PGM (`P5`).

use crate::error::{ImageError, Result};
use crate::image::Image;
use bea_tensor::FeatureMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Writes an image as binary PPM (`P6`, maxval 255).
///
/// # Errors
///
/// Propagates I/O failures from the writer.
pub fn write_ppm<W: Write>(img: &Image, mut writer: W) -> Result<()> {
    write!(writer, "P6\n{} {}\n255\n", img.width(), img.height())?;
    let mut buf = Vec::with_capacity(img.pixel_count() * 3);
    for y in 0..img.height() {
        for x in 0..img.width() {
            let [r, g, b] = img.pixel(x, y);
            buf.push(r.round().clamp(0.0, 255.0) as u8);
            buf.push(g.round().clamp(0.0, 255.0) as u8);
            buf.push(b.round().clamp(0.0, 255.0) as u8);
        }
    }
    writer.write_all(&buf)?;
    Ok(())
}

/// Writes an image as binary PPM to a file path.
///
/// # Errors
///
/// Propagates I/O failures (e.g. missing parent directory).
pub fn save_ppm<P: AsRef<Path>>(img: &Image, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_ppm(img, std::io::BufWriter::new(file))
}

/// Reads a binary PPM (`P6`) image.
///
/// # Errors
///
/// Returns [`ImageError::Format`] for malformed headers or truncated pixel
/// data, and propagates I/O failures.
pub fn read_ppm<R: Read>(reader: R) -> Result<Image> {
    let mut reader = BufReader::new(reader);
    let magic = read_token(&mut reader)?;
    if magic != "P6" {
        return Err(ImageError::Format { what: format!("expected P6 magic, found {magic:?}") });
    }
    let width: usize = parse_token(&mut reader, "width")?;
    let height: usize = parse_token(&mut reader, "height")?;
    let maxval: usize = parse_token(&mut reader, "maxval")?;
    if maxval != 255 {
        return Err(ImageError::Format { what: format!("unsupported maxval {maxval}") });
    }
    let mut buf = vec![0u8; width * height * 3];
    reader.read_exact(&mut buf).map_err(|_| ImageError::Format {
        what: format!("truncated pixel data for {width}x{height} image"),
    })?;
    let mut img = Image::black(width, height);
    for y in 0..height {
        for x in 0..width {
            let i = (y * width + x) * 3;
            img.put_pixel(x, y, [buf[i] as f32, buf[i + 1] as f32, buf[i + 2] as f32]);
        }
    }
    Ok(img)
}

/// Reads a binary PPM image from a file path.
///
/// # Errors
///
/// See [`read_ppm`].
pub fn load_ppm<P: AsRef<Path>>(path: P) -> Result<Image> {
    read_ppm(std::fs::File::open(path)?)
}

/// Writes a single-channel map as binary PGM (`P5`), linearly rescaling
/// values so the map minimum maps to 0 and the maximum to 255.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_pgm<W: Write>(map: &FeatureMap, channel: usize, mut writer: W) -> Result<()> {
    let plane = map.channel(channel);
    let lo = plane.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = plane.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let range = if hi > lo { hi - lo } else { 1.0 };
    write!(writer, "P5\n{} {}\n255\n", map.width(), map.height())?;
    let bytes: Vec<u8> = plane.iter().map(|&v| (255.0 * (v - lo) / range).round() as u8).collect();
    writer.write_all(&bytes)?;
    Ok(())
}

/// Writes a heatmap channel as binary PGM to a file path.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save_pgm<P: AsRef<Path>>(map: &FeatureMap, channel: usize, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_pgm(map, channel, std::io::BufWriter::new(file))
}

/// Magic header of the binary filter-mask format.
const MASK_MAGIC: &[u8] = b"BEAMASK1\n";

/// Writes a filter mask in the binary `BEAMASK1` format:
/// magic, ASCII `width height\n`, then `3*width*height` little-endian
/// `i16` genes in channel-major order.
///
/// # Errors
///
/// Propagates I/O failures from the writer.
pub fn write_mask<W: Write>(mask: &crate::FilterMask, mut writer: W) -> Result<()> {
    writer.write_all(MASK_MAGIC)?;
    writeln!(writer, "{} {}", mask.width(), mask.height())?;
    let mut buf = Vec::with_capacity(mask.gene_count() * 2);
    for &v in mask.as_slice() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    writer.write_all(&buf)?;
    Ok(())
}

/// Saves a filter mask to a file (see [`write_mask`] for the format).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save_mask<P: AsRef<Path>>(mask: &crate::FilterMask, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_mask(mask, std::io::BufWriter::new(file))
}

/// Reads a filter mask in the binary `BEAMASK1` format.
///
/// # Errors
///
/// Returns [`ImageError::Format`] for a bad magic, a malformed or
/// overflowing header or truncated gene data, and propagates I/O
/// failures.
pub fn read_mask<R: Read>(mut reader: R) -> Result<crate::FilterMask> {
    let mut magic = [0u8; 9];
    reader
        .read_exact(&mut magic)
        .map_err(|_| ImageError::Format { what: "truncated mask magic".into() })?;
    if magic != MASK_MAGIC {
        return Err(ImageError::Format { what: "not a BEAMASK1 stream".into() });
    }
    let mut reader = BufReader::new(reader);
    let width: usize = parse_token(&mut reader, "mask width")?;
    let height: usize = parse_token(&mut reader, "mask height")?;
    let truncated =
        || ImageError::Format { what: format!("truncated gene data for {width}x{height} mask") };
    let bytes = crate::FilterMask::checked_gene_count(width, height)?
        .checked_mul(2)
        .ok_or_else(truncated)?;
    // Read through `take` rather than into a buffer sized from the
    // header: a corrupt header must not allocate more than the stream
    // holds.
    let mut buf = Vec::new();
    reader.take(bytes as u64).read_to_end(&mut buf)?;
    if buf.len() != bytes {
        return Err(truncated());
    }
    let values: Vec<i16> = buf.chunks_exact(2).map(|b| i16::from_le_bytes([b[0], b[1]])).collect();
    crate::FilterMask::from_values(width, height, values)
}

/// Loads a filter mask from a file.
///
/// # Errors
///
/// See [`read_mask`].
pub fn load_mask<P: AsRef<Path>>(path: P) -> Result<crate::FilterMask> {
    read_mask(std::fs::File::open(path)?)
}

/// Reads one whitespace-delimited token, skipping `#` comments.
fn read_token<R: BufRead>(reader: &mut R) -> Result<String> {
    let mut token = String::new();
    let mut in_comment = false;
    loop {
        let mut byte = [0u8; 1];
        match reader.read_exact(&mut byte) {
            Ok(()) => {}
            Err(_) if !token.is_empty() => return Ok(token),
            Err(_) => return Err(ImageError::Format { what: "unexpected end of header".into() }),
        }
        let ch = byte[0] as char;
        if in_comment {
            if ch == '\n' {
                in_comment = false;
            }
            continue;
        }
        if ch == '#' {
            in_comment = true;
            continue;
        }
        if ch.is_whitespace() {
            if token.is_empty() {
                continue;
            }
            return Ok(token);
        }
        token.push(ch);
    }
}

fn parse_token<R: BufRead, T: std::str::FromStr>(reader: &mut R, field: &str) -> Result<T> {
    let token = read_token(reader)?;
    token.parse().map_err(|_| ImageError::Format { what: format!("invalid {field}: {token:?}") })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppm_roundtrip() {
        let mut img = Image::black(3, 2);
        img.put_pixel(0, 0, [255.0, 0.0, 0.0]);
        img.put_pixel(2, 1, [0.0, 128.0, 64.0]);
        let mut buf = Vec::new();
        write_ppm(&img, &mut buf).unwrap();
        let back = read_ppm(&buf[..]).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn ppm_header_is_wellformed() {
        let img = Image::black(5, 7);
        let mut buf = Vec::new();
        write_ppm(&img, &mut buf).unwrap();
        let header = String::from_utf8_lossy(&buf[..12]);
        assert!(header.starts_with("P6\n5 7\n255\n"));
        assert_eq!(buf.len(), 11 + 5 * 7 * 3);
    }

    #[test]
    fn read_rejects_bad_magic() {
        let data = b"P3\n1 1\n255\n   ".to_vec();
        assert!(matches!(read_ppm(&data[..]), Err(ImageError::Format { .. })));
    }

    #[test]
    fn read_rejects_truncated_pixels() {
        let data = b"P6\n2 2\n255\nxx".to_vec();
        assert!(matches!(read_ppm(&data[..]), Err(ImageError::Format { .. })));
    }

    #[test]
    fn read_skips_comments() {
        let mut data = b"P6\n# a comment line\n1 1\n255\n".to_vec();
        data.extend_from_slice(&[10, 20, 30]);
        let img = read_ppm(&data[..]).unwrap();
        assert_eq!(img.pixel(0, 0), [10.0, 20.0, 30.0]);
    }

    #[test]
    fn pgm_rescales_to_full_range() {
        let mut map = FeatureMap::zeros(1, 1, 3);
        map.set(0, 0, 0, -1.0);
        map.set(0, 0, 1, 0.0);
        map.set(0, 0, 2, 1.0);
        let mut buf = Vec::new();
        write_pgm(&map, 0, &mut buf).unwrap();
        let pixels = &buf[buf.len() - 3..];
        assert_eq!(pixels[0], 0);
        assert_eq!(pixels[2], 255);
        assert!((pixels[1] as i32 - 128).abs() <= 1);
    }

    #[test]
    fn mask_roundtrip() {
        use crate::FilterMask;
        let mut mask = FilterMask::zeros(5, 3);
        mask.set(0, 1, 2, -255);
        mask.set(2, 2, 4, 127);
        let mut buf = Vec::new();
        write_mask(&mask, &mut buf).unwrap();
        let back = read_mask(&buf[..]).unwrap();
        assert_eq!(back, mask);
    }

    #[test]
    fn mask_reader_rejects_garbage() {
        assert!(matches!(read_mask(&b"not a mask"[..]), Err(ImageError::Format { .. })));
        let mut buf = Vec::new();
        write_mask(&crate::FilterMask::zeros(4, 4), &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(read_mask(&buf[..]), Err(ImageError::Format { .. })));
    }

    #[test]
    fn save_and_load_file() {
        let dir = std::env::temp_dir().join("bea_image_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ppm");
        let img = Image::filled(4, 4, [9.0, 99.0, 199.0]);
        save_ppm(&img, &path).unwrap();
        let back = load_ppm(&path).unwrap();
        assert_eq!(back, img);
        let _ = std::fs::remove_file(&path);
    }
}

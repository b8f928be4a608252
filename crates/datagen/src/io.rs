//! Dataset persistence: text and binary formats.
//!
//! * **CSV** — `id,v0,v1,…` per line, full round-trip precision; human
//!   inspectable and consumable by external tools.
//! * **Binary** — a compact little-endian block format (magic, dim,
//!   cardinality header, then fixed-width records), ~3× smaller and an
//!   order of magnitude faster to load; the right choice for the
//!   paper-scale benchmark datasets.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read as _, Write};
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use skymr_common::{Dataset, Tuple};

/// Magic bytes identifying the binary dataset format (`SKYMR` + version).
const BINARY_MAGIC: &[u8; 6] = b"SKYMR1";

/// Writes a dataset as one `id,v0,v1,…` line per tuple.
pub fn write_csv(dataset: &Dataset, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for t in dataset.tuples() {
        write!(w, "{}", t.id)?;
        for v in t.values.iter() {
            // `{:?}` on f64 prints shortest round-trip representation.
            write!(w, ",{v:?}")?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Reads a dataset written by [`write_csv`].
///
/// Returns an error when a line is malformed, dimensions are inconsistent,
/// or values fall outside `[0,1)`.
pub fn read_csv(path: impl AsRef<Path>) -> io::Result<Dataset> {
    let reader = BufReader::new(File::open(path)?);
    let mut tuples = Vec::new();
    let mut dim: Option<usize> = None;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        let id: u64 = parts
            .next()
            .ok_or_else(|| bad_line(lineno, "missing id"))?
            .trim()
            .parse()
            .map_err(|e| bad_line(lineno, &format!("bad id: {e}")))?;
        let values: Vec<f64> = parts
            .map(|p| p.trim().parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|e| bad_line(lineno, &format!("bad value: {e}")))?;
        match dim {
            None => dim = Some(values.len()),
            Some(d) if d != values.len() => {
                return Err(bad_line(
                    lineno,
                    &format!("expected {d} values, got {}", values.len()),
                ));
            }
            _ => {}
        }
        tuples.push(Tuple::new(id, values));
    }
    let dim =
        dim.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty dataset file"))?;
    Dataset::new(dim, tuples).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

fn bad_line(lineno: usize, msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("line {}: {msg}", lineno + 1),
    )
}

/// Encodes a dataset into the binary format.
pub fn encode_binary(dataset: &Dataset) -> Bytes {
    let record = 8 + 8 * dataset.dim();
    let mut buf = BytesMut::with_capacity(BINARY_MAGIC.len() + 12 + record * dataset.len());
    buf.put_slice(BINARY_MAGIC);
    buf.put_u32_le(dataset.dim() as u32);
    buf.put_u64_le(dataset.len() as u64);
    for t in dataset.tuples() {
        buf.put_u64_le(t.id);
        for &v in t.values.iter() {
            buf.put_f64_le(v);
        }
    }
    buf.freeze()
}

/// Decodes a dataset from the binary format, validating header, length,
/// and the `[0,1)` value invariant.
pub fn decode_binary(mut data: Bytes) -> io::Result<Dataset> {
    let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if data.remaining() < BINARY_MAGIC.len() + 12 {
        return Err(invalid("binary dataset truncated before header"));
    }
    let mut magic = [0u8; 6];
    data.copy_to_slice(&mut magic);
    if &magic != BINARY_MAGIC {
        return Err(invalid("not a skymr binary dataset (bad magic)"));
    }
    let dim = data.get_u32_le() as usize;
    let len = data.get_u64_le() as usize;
    if dim == 0 {
        return Err(invalid("binary dataset header declares zero dimensions"));
    }
    // A hostile header can declare a body no address space holds: the
    // product is checked, never wrapped into a length that passes.
    let record = dim.checked_mul(8).and_then(|values| values.checked_add(8));
    let body = record.and_then(|record| record.checked_mul(len));
    if body != Some(data.remaining()) {
        return Err(invalid("binary dataset body length disagrees with header"));
    }
    let mut tuples = Vec::with_capacity(len);
    for _ in 0..len {
        let id = data.get_u64_le();
        let values: Vec<f64> = (0..dim).map(|_| data.get_f64_le()).collect();
        tuples.push(Tuple::new(id, values));
    }
    Dataset::new(dim, tuples).map_err(|e| invalid(&e.to_string()))
}

/// Writes a dataset in the binary format.
pub fn write_binary(dataset: &Dataset, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&encode_binary(dataset))?;
    w.flush()
}

/// Reads a dataset written by [`write_binary`].
pub fn read_binary(path: impl AsRef<Path>) -> io::Result<Dataset> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    decode_binary(Bytes::from(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{generate, Distribution};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("skymr-datagen-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_dataset_exactly() {
        let ds = generate(Distribution::Anticorrelated, 3, 50, 9);
        let path = temp_path("roundtrip.csv");
        write_csv(&ds, &path).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(ds, back);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn read_rejects_inconsistent_dimensions() {
        let path = temp_path("baddim.csv");
        std::fs::write(&path, "0,0.1,0.2\n1,0.3\n").unwrap();
        let err = read_csv(&path).unwrap_err();
        assert!(err.to_string().contains("line 2"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn read_rejects_garbage() {
        let path = temp_path("garbage.csv");
        std::fs::write(&path, "0,zero.one\n").unwrap();
        assert!(read_csv(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn read_rejects_empty_file() {
        let path = temp_path("empty.csv");
        std::fs::write(&path, "").unwrap();
        assert!(read_csv(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn read_skips_blank_lines() {
        let path = temp_path("blank.csv");
        std::fs::write(&path, "0,0.1\n\n1,0.2\n").unwrap();
        let ds = read_csv(&path).unwrap();
        assert_eq!(ds.len(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn read_rejects_out_of_range_values() {
        let path = temp_path("range.csv");
        std::fs::write(&path, "0,1.5\n").unwrap();
        assert!(read_csv(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let ds = generate(Distribution::Anticorrelated, 5, 300, 19);
        let back = decode_binary(encode_binary(&ds)).unwrap();
        assert_eq!(ds, back);
        // And through the filesystem.
        let path = temp_path("roundtrip.bin");
        write_binary(&ds, &path).unwrap();
        assert_eq!(read_binary(&path).unwrap(), ds);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn binary_rejects_garbage_and_truncation() {
        assert!(decode_binary(Bytes::from_static(b"nope")).is_err());
        assert!(decode_binary(Bytes::from_static(b"GARBAGEGARBAGEGARBAGE")).is_err());
        let ds = generate(Distribution::Independent, 2, 10, 3);
        let full = encode_binary(&ds);
        let truncated = full.slice(0..full.len() - 3);
        assert!(decode_binary(truncated).is_err());
    }

    #[test]
    fn binary_rejects_a_header_whose_body_length_overflows() {
        // Magic, `dim = 1`, `len = 2^60`: 16 · 2^60 overflows usize.
        let mut bytes = BINARY_MAGIC.to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 60).to_le_bytes());
        assert_eq!(bytes.len(), 18);
        let err = decode_binary(Bytes::from(bytes)).expect_err("overflowing header");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn binary_empty_dataset_roundtrips() {
        let ds = Dataset::new(3, vec![]).unwrap();
        assert_eq!(decode_binary(encode_binary(&ds)).unwrap(), ds);
    }

    #[test]
    fn binary_is_smaller_than_csv() {
        let ds = generate(Distribution::Independent, 4, 500, 21);
        let bin_len = encode_binary(&ds).len();
        let csv_path = temp_path("size.csv");
        write_csv(&ds, &csv_path).unwrap();
        let csv_len = std::fs::metadata(&csv_path).unwrap().len() as usize;
        std::fs::remove_file(csv_path).ok();
        assert!(
            bin_len < csv_len,
            "binary {bin_len} not smaller than CSV {csv_len}"
        );
    }
}

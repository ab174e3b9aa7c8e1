//! Typed pack/unpack helpers with an explicit big-endian wire format.
//!
//! The paper's wide-area cluster mixes UltraSPARC (big-endian), MIPS
//! (big-endian) and x86 (little-endian) machines; MPICH-G converts at
//! the wire. We fix network byte order for all cross-rank payloads so
//! the same property holds regardless of the build host.

use std::io;

pub fn pack_f64s(values: &[f64]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(values.len() * 8);
    for v in values {
        buf.extend_from_slice(&v.to_be_bytes());
    }
    buf
}

pub fn unpack_f64s(bytes: &[u8]) -> io::Result<Vec<f64>> {
    if !bytes.len().is_multiple_of(8) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "f64 array length not a multiple of 8",
        ));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| {
            let mut a = [0u8; 8];
            a.copy_from_slice(c);
            f64::from_be_bytes(a)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misaligned_arrays_rejected() {
        assert!(unpack_f64s(&[0; 7]).is_err());
        assert!(unpack_f64s(&[0; 12]).is_err());
    }

    #[test]
    fn wire_format_is_big_endian() {
        assert_eq!(pack_f64s(&[1.0]), vec![0x3f, 0xf0, 0, 0, 0, 0, 0, 0]);
    }

    /// SplitMix64 — a local deterministic stream for randomized tests.
    fn test_rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Pack/unpack round trips across random vectors.
    #[test]
    fn random_vectors_roundtrip() {
        let mut r = test_rng(0xda7a);
        for _ in 0..200 {
            let n = (r() % 64) as usize;
            // Normal (non-NaN, non-subnormal) floats compare exactly.
            let f64s: Vec<f64> = (0..n)
                .map(|_| 1.0 + (r() % 1_000_000) as f64 / 997.0)
                .collect();
            assert_eq!(unpack_f64s(&pack_f64s(&f64s)).unwrap(), f64s);
        }
    }
}

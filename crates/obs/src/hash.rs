//! The workspace's two byte-level hash primitives, defined once here in the
//! dependency-free crate both `dace-core` and `dace-serve` build on:
//! 64-bit FNV-1a over a byte string (checkpoint and journal checksums,
//! tenant-name salts) and the splitmix64 finalizer (trace ids, fault rolls,
//! salt mixing).

/// FNV-1a (64-bit) over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// splitmix64: a bijective mixer on `u64` (Steele, Lea & Flood's fast
/// splittable PRNG finalizer). Distinct inputs give distinct outputs, so
/// driving it from a monotone counter yields unique, well-distributed ids.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fnv1a64_matches_the_standard_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The first output of the reference SplitMix64 generator seeded
        // with 0 is the finalizer applied to the state 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn splitmix_is_a_bijection_probe() {
        // Spot-check injectivity over a contiguous range (full proof is
        // algebraic; this catches transcription errors in the constants).
        let outs: HashSet<u64> = (0..100_000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 100_000);
    }
}

//! Stable 64-bit content fingerprints (`DESIGN.md` §8).
//!
//! The sweep engine (`revmax-engine`) keys its solve cache on a content
//! fingerprint of everything a solve depends on: the WTP entries (the CSR
//! arena the market — or per-cohort sub-market — holds), the resolved model [`crate::params::Params`], and the
//! price-search mode. Two markets with the same fingerprint produce
//! bit-identical solves, so a cached outcome can stand in for a fresh one.
//!
//! The hash is a plain FNV-1a over a canonical byte stream with a
//! splitmix64 finalizer for avalanche — deliberately dependency-free
//! (vendor policy) and **stable across runs and platforms**: it hashes
//! content (ids, value bits, dimensions), never addresses, capacities, or
//! iteration order of unordered containers. It is not cryptographic; a
//! 64-bit digest is collision-safe for cache sizes in the millions, not
//! against adversaries.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a/64 hasher with a strong finalizer.
///
/// All multi-byte writes are little-endian, and every variable-length
/// field should be preceded by its length (the callers in `wtp.rs` do
/// this) so that distinct streams cannot collide by concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprinter {
    state: u64,
}

impl Fingerprinter {
    /// Start a fingerprint for one domain; the `tag` separates domains
    /// (e.g. `"wtp"` vs `"params"`) so equal byte streams in different
    /// domains do not collide.
    pub fn new(tag: &str) -> Self {
        let mut fp = Fingerprinter { state: FNV_OFFSET };
        fp.write_bytes(tag.as_bytes());
        fp
    }

    /// Absorb raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb a `usize` (as `u64`, so 32- and 64-bit targets agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorb an `f64` by its raw bit pattern. `-0.0` and `0.0` therefore
    /// fingerprint differently — callers that care must normalize; the
    /// WTP/params invariants (entries > 0, validated params) make the
    /// distinction unreachable in practice.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorb a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Final digest (splitmix64 finalizer over the FNV state).
    pub fn finish(&self) -> u64 {
        let mut z = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One-shot fingerprint of a string (method names, labels).
pub fn fingerprint_str(s: &str) -> u64 {
    let mut fp = Fingerprinter::new("str");
    fp.write_str(s);
    fp.finish()
}

/// Order-dependent combination of two digests (e.g. market ⊕ method into a
/// solve-cache key). Not commutative: `combine(a, b) != combine(b, a)`.
pub fn combine(a: u64, b: u64) -> u64 {
    let mut fp = Fingerprinter::new("combine");
    fp.write_u64(a);
    fp.write_u64(b);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        let mut a = Fingerprinter::new("t");
        a.write_u64(7);
        a.write_f64(1.25);
        let mut b = Fingerprinter::new("t");
        b.write_u64(7);
        b.write_f64(1.25);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn tag_separates_domains() {
        let mut a = Fingerprinter::new("wtp");
        a.write_u64(1);
        let mut b = Fingerprinter::new("params");
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn single_bit_changes_digest() {
        let mut a = Fingerprinter::new("t");
        a.write_f64(1.0);
        let mut b = Fingerprinter::new("t");
        b.write_f64(1.0 + f64::EPSILON);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn str_fingerprints_distinguish_methods() {
        assert_ne!(fingerprint_str("Pure Matching"), fingerprint_str("Mixed Matching"));
        assert_eq!(fingerprint_str("Components"), fingerprint_str("Components"));
    }

    #[test]
    fn combine_is_order_dependent() {
        assert_ne!(combine(1, 2), combine(2, 1));
        assert_eq!(combine(3, 4), combine(3, 4));
    }

    #[test]
    fn length_prefix_blocks_concatenation_collisions() {
        let mut a = Fingerprinter::new("t");
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fingerprinter::new("t");
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}

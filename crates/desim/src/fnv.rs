//! FNV-1a fingerprints and RNG stream-seed derivation.
//!
//! These are the workspace's two determinism primitives: every harness
//! that fans work out across threads reduces each unit's observable
//! outcome to one `u64` via FNV-1a and recombines the digests **in unit
//! index order** (never completion order), and every randomized unit gets
//! its RNG seed partitioned up front by [`derive_seed`]`(base, index)`.
//! Together they make a parallel run a pure function of `(config, seed)`,
//! invariant to worker count and scheduling — the contract both the sweep
//! engine and the pod shard pool assert at runtime.

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    /// Absorb raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorb a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Absorb an `f64` by exact bit pattern — no rounding, no tolerance.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Absorb a string (by UTF-8 bytes, length-prefixed so `("ab","c")` and
    /// `("a","bc")` differ).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The raw internal state (identical to [`finish`](Self::finish); named
    /// for symmetry with [`from_state`](Self::from_state) at snapshot sites).
    pub fn state(&self) -> u64 {
        self.0
    }

    /// Rebuild a hasher from a previously captured [`state`](Self::state).
    ///
    /// This is the snapshot/restore primitive: a running digest captured at
    /// a snapshot boundary can be resumed bit-identically after a restart,
    /// so a resumed journal chains to the same hash as an uninterrupted one.
    pub fn from_state(state: u64) -> Self {
        Fnv(state)
    }
}

/// Combine per-unit fingerprints into one run fingerprint.
///
/// The slice must be ordered by unit index; position matters (FNV-1a is
/// not commutative), which is exactly the point: a worker pool that
/// reordered results would be caught.
pub fn combine(fingerprints: &[u64]) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(fingerprints.len() as u64);
    for &fp in fingerprints {
        h.write_u64(fp);
    }
    h.finish()
}

/// Derive the RNG seed of unit `index` from a run's base seed.
///
/// SplitMix64 over `base ⊕ (index+1)·φ64` — the same finalizer
/// [`SimRng`](crate::SimRng) seeds itself with, so per-unit streams are
/// decorrelated even for adjacent indices, and a unit's stream depends
/// only on `(base, index)`, never on which worker runs it.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ (index.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Fnv::new().finish(), FNV_OFFSET);
        // FNV-1a of "a" (standard test vector).
        assert_eq!(Fnv::new().write_bytes(b"a").finish(), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn str_framing_disambiguates() {
        let ab_c = Fnv::new().write_str("ab").write_str("c").finish();
        let a_bc = Fnv::new().write_str("a").write_str("bc").finish();
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine(&[1, 2]), combine(&[2, 1]));
        assert_eq!(combine(&[1, 2]), combine(&[1, 2]));
        assert_ne!(combine(&[]), combine(&[0]));
    }

    #[test]
    fn derived_seeds_differ_per_index() {
        let base = 42;
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(derive_seed(base, i)), "collision at index {i}");
        }
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
    }

    #[test]
    fn derive_seed_is_pinned() {
        // Every committed sweep and pod fingerprint rests on these streams.
        assert_eq!(derive_seed(0, 0), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(derive_seed(7, 3), 0xb4a0_472e_5780_69ae);
    }
}

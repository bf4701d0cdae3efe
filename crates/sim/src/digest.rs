//! The workspace's one FNV-1a (64-bit) hasher. Two multipliers are
//! pinned by committed results: [`Fnv64::new`] is standard FNV-1a (prime
//! `0x100_0000_01b3`), behind the run manifest's hashes; [`Fnv64::sim`]
//! multiplies by `0x1000_0000_01b3` and keys every `DetRng` label, config
//! digest, checkpoint, rollup fingerprint and the traffic corruption
//! mask, so changing it would move every figure.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const SIM_PRIME: u64 = 0x0000_1000_0000_01b3;

/// Streaming FNV-1a (64-bit) state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
    prime: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// Standard FNV-1a at the offset basis.
    #[inline]
    pub const fn new() -> Self {
        Fnv64 {
            state: OFFSET_BASIS,
            prime: FNV_PRIME,
        }
    }

    /// The simulation variant (multiplier `0x1000_0000_01b3`, see the
    /// module docs) at the offset basis.
    #[inline]
    pub const fn sim() -> Self {
        Fnv64 {
            state: OFFSET_BASIS,
            prime: SIM_PRIME,
        }
    }

    /// Absorb `bytes` in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(self.prime);
        }
        self
    }

    /// Absorb `v` as its eight little-endian bytes.
    #[inline]
    pub fn word(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest of everything absorbed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vectors() {
        assert_eq!(Fnv64::new().bytes(b"").finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            format!("{:016x}", Fnv64::new().bytes(b"").finish()),
            "cbf29ce484222325"
        );
        // The simulation variant shares the offset basis and is pinned
        // to its historic outputs.
        assert_eq!(Fnv64::sim().bytes(b"").finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::sim().bytes(b"a").finish(), 0xaf74_d84c_8601_ec8c);
        assert_eq!(
            Fnv64::sim().bytes(b"hyperfleet").finish(),
            0x1eeb_718f_fc99_4e43
        );
    }

    #[test]
    fn word_is_its_little_endian_bytes() {
        for v in [0u64, 1, 0x0102_0304_0506_0708, u64::MAX] {
            for h in [Fnv64::new(), Fnv64::sim()] {
                let (mut by_word, mut by_bytes) = (h, h);
                assert_eq!(
                    by_word.word(v).finish(),
                    by_bytes.bytes(&v.to_le_bytes()).finish()
                );
            }
        }
    }

    #[test]
    fn absorbing_is_concatenation() {
        let mut split = Fnv64::sim();
        split.bytes(b"mosaic-").bytes(b"rollup");
        assert_eq!(
            split.finish(),
            Fnv64::sim().bytes(b"mosaic-rollup").finish()
        );
    }
}

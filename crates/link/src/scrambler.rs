//! The 64b/66b self-synchronizing scrambler, polynomial x⁵⁸ + x³⁹ + 1.
//!
//! Ethernet scrambles every 64-bit payload (not the sync header) so the
//! line has enough transitions for clock recovery and no DC wander —
//! both properties matter even more for LED channels, whose receivers are
//! AC-coupled and whose CDRs are deliberately simple. Self-synchronizing
//! means the descrambler needs no seed exchange: it recovers after 58 bits
//! of any error, at the cost of each line error trippling (the error and
//! its two tap echoes) — which is why the FEC sits *after* descrambling in
//! the analytic budget.

/// Scrambler/descrambler state (58-bit shift register).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scrambler {
    state: u64,
}

impl Default for Scrambler {
    fn default() -> Self {
        // Any non-zero init works; hardware commonly uses all-ones.
        Scrambler {
            state: (1u64 << 58) - 1,
        }
    }
}

impl Scrambler {
    /// Create with the all-ones initial state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scramble one bit.
    #[inline]
    pub fn scramble_bit(&mut self, bit: u8) -> u8 {
        let fb = ((self.state >> 57) ^ (self.state >> 38)) & 1;
        let out = (bit as u64 ^ fb) & 1;
        self.state = ((self.state << 1) | out) & ((1u64 << 58) - 1);
        out as u8
    }

    /// Descramble one bit (self-synchronizing: state is fed with the
    /// *received* bit).
    #[inline]
    pub fn descramble_bit(&mut self, bit: u8) -> u8 {
        let fb = ((self.state >> 57) ^ (self.state >> 38)) & 1;
        let out = (bit as u64 ^ fb) & 1;
        self.state = ((self.state << 1) | bit as u64) & ((1u64 << 58) - 1);
        out as u8
    }

    /// Scramble a 64-bit word LSB-first. Dispatches to the word-parallel
    /// kernel by default; `--features scalar-kernels` retains the bit
    /// loop as the differential oracle.
    #[inline]
    pub fn scramble_word(&mut self, word: u64) -> u64 {
        #[cfg(feature = "scalar-kernels")]
        {
            self.scramble_word_scalar(word)
        }
        #[cfg(not(feature = "scalar-kernels"))]
        {
            self.scramble_word_sliced(word)
        }
    }

    /// Descramble a 64-bit word LSB-first. Dispatches like
    /// [`Scrambler::scramble_word`].
    #[inline]
    pub fn descramble_word(&mut self, word: u64) -> u64 {
        #[cfg(feature = "scalar-kernels")]
        {
            self.descramble_word_scalar(word)
        }
        #[cfg(not(feature = "scalar-kernels"))]
        {
            self.descramble_word_sliced(word)
        }
    }

    /// The 58-bit history window in *stream order*: bit `k` is the line
    /// bit from 58−k steps ago (register bit 57−k). The register holds
    /// the newest bit at its LSB, so stream order is the register
    /// reversed — `reverse_bits()` maps bit 57 → bit 6, then `>> 6`
    /// aligns the oldest bit to position 0.
    #[inline]
    fn history_window(&self) -> u64 {
        self.state.reverse_bits() >> 6
    }

    /// Store a stream-order history window back as the register (the
    /// inverse of [`Scrambler::history_window`]).
    #[inline]
    fn set_history_window(&mut self, h: u64) {
        self.state = (h << 6).reverse_bits() & ((1u64 << 58) - 1);
    }

    /// Word-parallel scramble of one word: [`Scrambler::scramble_words_sliced`]
    /// on a one-word slice.
    #[inline]
    pub fn scramble_word_sliced(&mut self, word: u64) -> u64 {
        let mut w = [word];
        self.scramble_words_sliced(&mut w);
        w[0]
    }

    /// Word-parallel descramble of one word:
    /// [`Scrambler::descramble_words_sliced`] on a one-word slice.
    #[inline]
    pub fn descramble_word_sliced(&mut self, word: u64) -> u64 {
        let mut w = [word];
        self.descramble_words_sliced(&mut w);
        w[0]
    }

    /// Scramble `words` in place, LSB-first, word after word.
    /// Dispatches to the word-parallel kernel by default; `--features
    /// scalar-kernels` retains the bit loop as the differential oracle.
    pub fn scramble_words(&mut self, words: &mut [u64]) {
        #[cfg(feature = "scalar-kernels")]
        for w in words.iter_mut() {
            *w = self.scramble_word_scalar(*w);
        }
        #[cfg(not(feature = "scalar-kernels"))]
        self.scramble_words_sliced(words);
    }

    /// Descramble `words` in place. Dispatches like
    /// [`Scrambler::scramble_words`].
    pub fn descramble_words(&mut self, words: &mut [u64]) {
        #[cfg(feature = "scalar-kernels")]
        for w in words.iter_mut() {
            *w = self.descramble_word_scalar(*w);
        }
        #[cfg(not(feature = "scalar-kernels"))]
        self.descramble_words_sliced(words);
    }

    /// Word-parallel scramble: all 64 output bits of a word in a handful
    /// of shifts and XORs (DESIGN §11). With the stream window
    /// `window = h | out << 58` over the 58-bit history `h`, each output
    /// bit is `out_i = word_i ^ window_i ^ window_{i+19}` (the taps at
    /// stream distances 58 and 39); in 64-bit halves `window >> 19` is
    /// `h >> 19 | out << 39`. The feedback distance 39 < 64 makes out
    /// bits 39.. depend on out bits 0..25 of the *same* word, so the
    /// closed form is iterated twice: pass 1 settles bits 0..39 (history
    /// only), pass 2 settles the rest (chain depth ⌈64/39⌉ = 2). The
    /// history stays in stream order from word to word — the last 58
    /// line bits of a word are `out >> 6` — so the register is reversed
    /// into and out of stream order once per slice, not twice per word.
    pub fn scramble_words_sliced(&mut self, words: &mut [u64]) {
        let mut h = self.history_window();
        for w in words.iter_mut() {
            let mut out = 0u64;
            for _ in 0..2 {
                out = *w ^ h ^ (out << 58) ^ (h >> 19) ^ (out << 39);
            }
            h = out >> 6;
            *w = out;
        }
        self.set_history_window(h);
    }

    /// Word-parallel descramble. Self-synchronizing, so the window is
    /// fed with *received* bits — no feedback dependency, single pass:
    /// `out_i = word_i ^ window_i ^ window_{i+19}` with
    /// `window = h | word << 58`, history kept in stream order like
    /// [`Scrambler::scramble_words_sliced`].
    pub fn descramble_words_sliced(&mut self, words: &mut [u64]) {
        let mut h = self.history_window();
        for w in words.iter_mut() {
            let line = *w;
            *w = line ^ h ^ (line << 58) ^ (h >> 19) ^ (line << 39);
            h = line >> 6;
        }
        self.set_history_window(h);
    }

    /// Bit-at-a-time scramble, retained as the differential oracle for
    /// [`Scrambler::scramble_word_sliced`].
    pub fn scramble_word_scalar(&mut self, word: u64) -> u64 {
        let mut out = 0u64;
        for i in 0..64 {
            let b = ((word >> i) & 1) as u8;
            out |= (self.scramble_bit(b) as u64) << i;
        }
        out
    }

    /// Bit-at-a-time descramble, retained as the differential oracle for
    /// [`Scrambler::descramble_word_sliced`].
    pub fn descramble_word_scalar(&mut self, word: u64) -> u64 {
        let mut out = 0u64;
        for i in 0..64 {
            let b = ((word >> i) & 1) as u8;
            out |= (self.descramble_bit(b) as u64) << i;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_with_matched_state() {
        let mut tx = Scrambler::new();
        let mut rx = Scrambler::new();
        for word in [0u64, u64::MAX, 0xDEAD_BEEF_0BAD_F00D, 1, 2, 3] {
            assert_eq!(rx.descramble_word(tx.scramble_word(word)), word);
        }
    }

    #[test]
    fn descrambler_self_synchronizes() {
        // Start the receiver with a *wrong* state; after 58 received bits
        // it must track exactly.
        let mut tx = Scrambler::new();
        let mut rx = Scrambler { state: 0x1234_5678 };
        let words: Vec<u64> = (0..8).map(|i| 0x0101_0101_0101_0101u64 * i).collect();
        let mut recovered = vec![];
        for &w in &words {
            recovered.push(rx.descramble_word(tx.scramble_word(w)));
        }
        // First word may be corrupted; all subsequent words are clean.
        assert_eq!(&recovered[1..], &words[1..]);
    }

    #[test]
    fn single_line_error_multiplies_by_three() {
        let mut tx = Scrambler::new();
        let mut rx_clean = Scrambler::new();
        let mut rx_dirty = Scrambler::new();
        let words = [0u64; 4];
        let mut scrambled: Vec<u64> = words.iter().map(|&w| tx.scramble_word(w)).collect();
        let clean: Vec<u64> = scrambled
            .iter()
            .map(|&w| rx_clean.descramble_word(w))
            .collect();
        // Flip one bit on the line in word 1.
        scrambled[1] ^= 1 << 10;
        let dirty: Vec<u64> = scrambled
            .iter()
            .map(|&w| rx_dirty.descramble_word(w))
            .collect();
        let flipped: u32 = clean
            .iter()
            .zip(&dirty)
            .map(|(&a, &b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 3, "x^58+x^39+1 echoes each error at two taps");
    }

    #[test]
    fn scrambled_stream_has_transitions() {
        // The whole point: an all-zeros payload must not produce a DC line.
        let mut tx = Scrambler::new();
        let mut ones = 0u32;
        for _ in 0..64 {
            ones += tx.scramble_word(0).count_ones();
        }
        let total = 64 * 64;
        let fraction = ones as f64 / total as f64;
        assert!(fraction > 0.4 && fraction < 0.6, "mark density {fraction}");
    }

    proptest! {
        #[test]
        fn roundtrip_random(words in proptest::collection::vec(any::<u64>(), 1..64)) {
            let mut tx = Scrambler::new();
            let mut rx = Scrambler::new();
            for &w in &words {
                prop_assert_eq!(rx.descramble_word(tx.scramble_word(w)), w);
            }
        }

        /// The slice kernels must match the bit loop word for word and
        /// leave the same register state, from any starting state and
        /// for any slice length (empty included).
        #[test]
        fn slice_kernels_match_bit_loop(
            state in 1u64..(1 << 58),
            words in proptest::collection::vec(any::<u64>(), 0..40),
        ) {
            let mut tx_s = Scrambler { state };
            let mut tx_b = Scrambler { state };
            let mut line = words.clone();
            tx_s.scramble_words_sliced(&mut line);
            let oracle: Vec<u64> = words.iter().map(|&w| tx_b.scramble_word_scalar(w)).collect();
            prop_assert_eq!(&line, &oracle);
            prop_assert_eq!(tx_s.state, tx_b.state);
            let mut rx_s = Scrambler { state };
            let mut rx_b = Scrambler { state };
            let mut back = line.clone();
            rx_s.descramble_words_sliced(&mut back);
            let oracle: Vec<u64> = line.iter().map(|&w| rx_b.descramble_word_scalar(w)).collect();
            prop_assert_eq!(&back, &oracle);
            prop_assert_eq!(rx_s.state, rx_b.state);
        }

        /// The word-parallel kernels must match the bit loop exactly —
        /// every output word AND the register state after each word, from
        /// any starting state.
        #[test]
        fn sliced_words_match_bit_loop(
            state in 1u64..(1 << 58),
            words in proptest::collection::vec(any::<u64>(), 1..32),
        ) {
            let mut tx_s = Scrambler { state };
            let mut tx_b = Scrambler { state };
            let mut rx_s = Scrambler { state };
            let mut rx_b = Scrambler { state };
            for &w in &words {
                prop_assert_eq!(tx_s.scramble_word_sliced(w), tx_b.scramble_word_scalar(w));
                prop_assert_eq!(tx_s.state, tx_b.state);
                prop_assert_eq!(rx_s.descramble_word_sliced(w), rx_b.descramble_word_scalar(w));
                prop_assert_eq!(rx_s.state, rx_b.state);
            }
        }
    }
}

//! Word striping across lanes and alignment-marker deskew.
//!
//! The distributor sends payload word `j` to lane `j mod L` — plain
//! round-robin — and every `am_period` words per lane it inserts an
//! alignment marker (same sequence number on every lane simultaneously).
//! The receiver sees each lane with an unknown delay (skew): it finds the
//! markers, lines up equal sequence numbers, and reads the words back in
//! round-robin order. Marker sequence numbers also expose lost or
//! duplicated lane content as a hard error instead of silent reordering.
//!
//! # Lane layout: words plus a control bitmap
//!
//! A lane is a [`LaneStream`]: a plain `Vec<u64>` of 64-bit words and a
//! one-bit-per-word control bitmap beside it. This is the 64b/66b sync
//! header of [`crate::pcs`] reduced to the one bit the deskewer reads:
//! bit `i % 64` of `ctrl[i / 64]` set means word `i` is a control block —
//! an alignment marker carrying its block sequence number in the low 32
//! bits of the word — and clear means a payload data word. Each lane
//! holds `blocks × (am_period + 1)` words: a marker, then `am_period`
//! data words, per block. The bitmap is cleared past the stream length,
//! so markers are found with `trailing_zeros` a bitmap word at a time
//! and the data words are copied out as plain slices.
//!
//! The distributor stripes straight into the physical channel streams a
//! lane map names, and the deskewer reads them in place through the same
//! assignment, so neither side stages a logical-lane copy.

/// Striping parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeConfig {
    /// Number of active lanes.
    pub lanes: usize,
    /// Payload words per lane between alignment markers.
    pub am_period: usize,
}

impl StripeConfig {
    /// Construct; both fields must be non-zero.
    ///
    /// # Panics
    /// Panics on zero fields; use [`StripeConfig::try_new`] to handle the
    /// error instead.
    pub fn new(lanes: usize, am_period: usize) -> Self {
        match Self::try_new(lanes, am_period) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`StripeConfig::new`]: errors on zero lanes or period.
    pub fn try_new(lanes: usize, am_period: usize) -> mosaic_units::Result<Self> {
        if lanes == 0 {
            return Err(mosaic_units::MosaicError::invalid_config(
                "lanes",
                "need at least one lane",
            ));
        }
        if am_period == 0 {
            return Err(mosaic_units::MosaicError::invalid_config(
                "am_period",
                "marker period must be non-zero",
            ));
        }
        Ok(StripeConfig { lanes, am_period })
    }

    /// Payload words consumed per marker block across all lanes.
    pub fn block_payload(&self) -> usize {
        self.lanes * self.am_period
    }
}

/// One lane's word stream: the words and the control bitmap that marks
/// alignment markers among them (see the module docs for the layout).
/// Bitmap bits past the stream length are always clear.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaneStream {
    words: Vec<u64>,
    ctrl: Vec<u64>,
}

/// Stands in for a lane whose channel index lies outside the supplied
/// streams: it carries no marker, so deskew reports it as such.
static NO_LANE: LaneStream = LaneStream::new();

impl LaneStream {
    /// An empty stream.
    pub const fn new() -> Self {
        LaneStream {
            words: Vec::new(),
            ctrl: Vec::new(),
        }
    }

    /// A stream of `len` copies of the data word `word`.
    pub fn filled(len: usize, word: u64) -> Self {
        let mut s = LaneStream::new();
        s.fill(len, word);
        s
    }

    /// Refill with `len` copies of the data word `word`, reusing the
    /// buffers' capacity.
    pub fn fill(&mut self, len: usize, word: u64) {
        self.words.clear();
        self.words.resize(len, word);
        self.ctrl.clear();
        self.ctrl.resize(len.div_ceil(64), 0);
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the stream holds no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The words, markers included.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The words (mutable, fixed length) and the control bitmap at once,
    /// for in-place corruption of the data words.
    pub fn words_mut(&mut self) -> (&mut [u64], &[u64]) {
        (&mut self.words, &self.ctrl)
    }

    /// True when word `i` is an alignment marker (false past the end).
    #[inline]
    pub fn is_marker(&self, i: usize) -> bool {
        self.ctrl
            .get(i / 64)
            .is_some_and(|c| (c >> (i % 64)) & 1 == 1)
    }

    /// The sequence number of the marker at `i`, or `None` when word `i`
    /// is data or past the end.
    #[inline]
    pub fn marker_seq(&self, i: usize) -> Option<u32> {
        if self.is_marker(i) {
            Some(self.words[i] as u32)
        } else {
            None
        }
    }

    /// Position of the first marker in `from..to` (clamped to the stream).
    #[inline]
    pub fn next_marker(&self, from: usize, to: usize) -> Option<usize> {
        let to = to.min(self.words.len());
        let mut i = from;
        while i < to {
            let bits = self.ctrl[i / 64] >> (i % 64);
            if bits != 0 {
                let hit = i + bits.trailing_zeros() as usize;
                return (hit < to).then_some(hit);
            }
            i = (i / 64 + 1) * 64;
        }
        None
    }

    /// Append a data word.
    pub fn push_data(&mut self, word: u64) {
        if self.words.len().is_multiple_of(64) {
            self.ctrl.push(0);
        }
        self.words.push(word);
    }

    /// Append an alignment marker with sequence number `seq`.
    pub fn push_marker(&mut self, seq: u32) {
        let i = self.words.len();
        self.push_data(u64::from(seq));
        self.ctrl[i / 64] |= 1 << (i % 64);
    }

    /// Overwrite word `i` with a marker carrying `seq` — a control block
    /// where the stream had data, as a corrupted sync header would make
    /// it. Returns false (and changes nothing) past the end.
    pub fn set_marker(&mut self, i: usize, seq: u32) -> bool {
        if i >= self.words.len() {
            return false;
        }
        self.words[i] = u64::from(seq);
        self.ctrl[i / 64] |= 1 << (i % 64);
        true
    }

    /// Remove every word, keeping capacity.
    pub fn clear(&mut self) {
        self.words.clear();
        self.ctrl.clear();
    }

    /// A dark channel: every word reads as zero data and no marker
    /// survives. The length is unchanged.
    pub fn kill(&mut self) {
        self.words.fill(0);
        self.ctrl.fill(0);
    }

    /// Cut the stream to its first `len` words (no-op when shorter).
    pub fn truncate(&mut self, len: usize) {
        if len >= self.words.len() {
            return;
        }
        self.words.truncate(len);
        self.ctrl.truncate(len.div_ceil(64));
        if let Some(last) = self.ctrl.last_mut() {
            if !len.is_multiple_of(64) {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
    }

    /// Flip bit `bit % 64` of word `i` if it is a data word; markers and
    /// positions past the end are left alone. Returns whether it flipped.
    pub fn flip_bit(&mut self, i: usize, bit: u32) -> bool {
        if i >= self.words.len() || self.is_marker(i) {
            return false;
        }
        self.words[i] ^= 1u64 << (bit % 64);
        true
    }
}

/// The transmit-side striper.
#[derive(Debug, Clone)]
pub struct Distributor {
    cfg: StripeConfig,
    next_seq: u32,
}

impl Distributor {
    /// New distributor for `cfg`, markers starting at sequence 0.
    pub fn new(cfg: StripeConfig) -> Self {
        Distributor { cfg, next_seq: 0 }
    }

    /// The configuration in use.
    pub fn config(&self) -> StripeConfig {
        self.cfg
    }

    /// Stripe `payload` across the lanes, padding the final block with
    /// `pad` words if needed. Returns one word stream per lane. Each call
    /// begins with an alignment marker on every lane and continues the
    /// sequence numbering from previous calls.
    pub fn stripe(&mut self, payload: &[u64], pad: u64) -> Vec<LaneStream> {
        let mut lanes = vec![LaneStream::new(); self.cfg.lanes];
        let identity: Vec<usize> = (0..self.cfg.lanes).collect();
        self.stripe_into(payload, pad, &mut lanes, &identity);
        lanes
    }

    /// [`Distributor::stripe`] straight into caller-owned channel
    /// streams: lane `l` is written to `channels[assignment[l]]`, which
    /// is cleared and refilled in place. `assignment` names one distinct
    /// channel per lane (a [`crate::lanes::LaneMap::assignment`]); lanes
    /// it leaves out or names past `channels` are skipped, and channels
    /// it does not name are untouched. Allocation-free once the buffers
    /// are warm (lint R4).
    pub fn stripe_into(
        &mut self,
        payload: &[u64],
        pad: u64,
        channels: &mut [LaneStream],
        assignment: &[usize],
    ) {
        let lanes = self.cfg.lanes;
        let am = self.cfg.am_period;
        let block = self.cfg.block_payload();
        let blocks = payload.len().div_ceil(block).max(1);
        let full = payload.len() / block;
        let len = blocks * (am + 1);
        for (l, &ch) in assignment.iter().take(lanes).enumerate() {
            let Some(stream) = channels.get_mut(ch) else {
                continue;
            };
            stream.words.clear();
            stream.words.reserve(len);
            stream.ctrl.clear();
            stream.ctrl.resize(len.div_ceil(64), 0);
            for b in 0..blocks {
                let m = stream.words.len();
                stream.ctrl[m / 64] |= 1 << (m % 64);
                stream
                    .words
                    .push(u64::from(self.next_seq.wrapping_add(b as u32)));
                if b < full {
                    // Word `d·L + l` of the block rides at depth `d`.
                    let row = &payload[b * block + l..(b + 1) * block];
                    stream.words.extend(row.iter().step_by(lanes));
                } else {
                    for d in 0..am {
                        let w = payload.get(b * block + d * lanes + l).copied();
                        stream.words.push(w.unwrap_or(pad));
                    }
                }
            }
        }
        self.next_seq = self.next_seq.wrapping_add(blocks as u32);
    }
}

/// Deskew/reassembly errors. Every variant names the offending lane and
/// the position/skew observed when the failure was detected, so callers
/// (and the degrade controller's logs) can attribute the fault to a
/// physical channel instead of guessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeskewError {
    /// A lane stream contained no alignment marker at all.
    NoMarker {
        /// Index of the offending lane.
        lane: usize,
    },
    /// No common marker sequence number could be found across all lanes
    /// (skew exceeds the buffered streams).
    NoCommonMarker {
        /// Index of the lane whose buffered stream ran out first.
        lane: usize,
        /// Word offset the alignment search had reached on that lane when
        /// it ran off the end — the observed (unresolvable) skew.
        skew: usize,
    },
    /// A marker appeared where data was expected or vice versa.
    Misaligned {
        /// Index of the offending lane.
        lane: usize,
        /// Word offset within the lane stream where the mismatch sat.
        position: usize,
    },
    /// Wrong number of lane streams supplied.
    LaneCount {
        /// Configured lane count.
        expected: usize,
        /// Number of streams actually supplied.
        got: usize,
    },
}

impl std::fmt::Display for DeskewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeskewError::NoMarker { lane } => write!(f, "lane {lane} carried no marker"),
            DeskewError::NoCommonMarker { lane, skew } => {
                write!(f, "no common marker: lane {lane} exhausted at word {skew}")
            }
            DeskewError::Misaligned { lane, position } => {
                write!(f, "lane {lane} misaligned at word {position}")
            }
            DeskewError::LaneCount { expected, got } => {
                write!(
                    f,
                    "wrong number of lane streams: expected {expected}, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for DeskewError {}

impl From<DeskewError> for mosaic_units::MosaicError {
    fn from(e: DeskewError) -> Self {
        match e {
            DeskewError::LaneCount { expected, got } => mosaic_units::MosaicError::LengthMismatch {
                what: "lane streams",
                expected,
                got,
            },
            DeskewError::NoMarker { lane } => mosaic_units::MosaicError::infeasible(format!(
                "deskew failed on lane {lane}: no alignment marker in buffered stream"
            )),
            DeskewError::NoCommonMarker { lane, skew } => {
                mosaic_units::MosaicError::infeasible(format!(
                    "deskew failed on lane {lane}: skew of {skew} words exceeds the buffered stream"
                ))
            }
            DeskewError::Misaligned { lane, position } => mosaic_units::MosaicError::infeasible(
                format!("deskew failed on lane {lane}: marker/data mismatch at word {position}"),
            ),
        }
    }
}

/// Reusable working state for [`Deskewer::reassemble_into`]: the
/// per-lane read cursors. One scratch serves any lane count — the buffer
/// is cleared and regrown (capacity retained) per call, so the steady
/// state allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct DeskewScratch {
    pos: Vec<usize>,
}

/// The receive-side deskewer.
#[derive(Debug, Clone)]
pub struct Deskewer {
    cfg: StripeConfig,
}

impl Deskewer {
    /// New deskewer for `cfg`.
    pub fn new(cfg: StripeConfig) -> Self {
        Deskewer { cfg }
    }

    /// Reassemble the payload stream from per-lane word streams with
    /// arbitrary leading skew. Returns the payload words of every block
    /// that is complete on all lanes.
    pub fn reassemble(&self, lanes: &[LaneStream]) -> Result<Vec<u64>, DeskewError> {
        let identity: Vec<usize> = (0..lanes.len()).collect();
        let mut scratch = DeskewScratch::default();
        let mut out = Vec::with_capacity(self.cfg.block_payload());
        self.reassemble_into(lanes, &identity, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`Deskewer::reassemble`] reading lane `l` in place from
    /// `channels[assignment[l]]`, into a caller-owned output buffer using
    /// caller-owned scratch. `out` is cleared first; on success it holds
    /// the payload words of every complete block. A lane whose channel
    /// index lies past `channels` carries no marker. Allocation-free once
    /// the buffers are warm (lint R4).
    pub fn reassemble_into(
        &self,
        channels: &[LaneStream],
        assignment: &[usize],
        scratch: &mut DeskewScratch,
        out: &mut Vec<u64>,
    ) -> Result<(), DeskewError> {
        out.clear();
        let lanes = self.cfg.lanes;
        if assignment.len() != lanes {
            return Err(DeskewError::LaneCount {
                expected: lanes,
                got: assignment.len(),
            });
        }
        let am = self.cfg.am_period;
        let lane = |l: usize| channels.get(assignment[l]).unwrap_or(&NO_LANE);
        // Find the first marker on each lane and the largest first-marker
        // sequence number among them.
        let pos = &mut scratch.pos;
        pos.clear();
        let mut largest = None;
        for l in 0..lanes {
            let s = lane(l);
            let p = s
                .next_marker(0, s.len())
                .ok_or(DeskewError::NoMarker { lane: l })?;
            largest = largest.max(s.marker_seq(p));
            pos.push(p);
        }
        // Align every lane to that sequence number.
        let Some(target) = largest else {
            // Zero configured lanes: nothing to reassemble.
            return Ok(());
        };
        for (l, p) in pos.iter_mut().enumerate() {
            let s = lane(l);
            loop {
                match s.marker_seq(*p) {
                    Some(seq) if seq == target => break,
                    Some(_) => {}
                    None => {
                        return Err(DeskewError::Misaligned {
                            lane: l,
                            position: *p,
                        })
                    }
                }
                // Skip this whole block: marker + am_period words.
                *p += 1 + am;
                if *p >= s.len() {
                    return Err(DeskewError::NoCommonMarker { lane: l, skew: *p });
                }
            }
        }

        // Read the blocks complete on every lane, one pass over the lanes
        // per block. Errors follow the round-robin read order: a bad
        // marker row first (lowest lane), then the first marker inside
        // the data (smallest depth, then lane).
        let stride = am + 1;
        let blocks = pos
            .iter()
            .enumerate()
            .map(|(l, &p)| lane(l).len().saturating_sub(p) / stride)
            .min()
            .unwrap_or(0);
        out.resize(blocks * self.cfg.block_payload(), 0);
        for (k, dst) in out.chunks_exact_mut(self.cfg.block_payload()).enumerate() {
            let expected = target.wrapping_add(k as u32);
            let mut bad_marker = None;
            let mut rogue: Option<(usize, usize)> = None;
            for (l, &p0) in pos.iter().enumerate() {
                let s = lane(l);
                let p = p0 + k * stride;
                if bad_marker.is_none() && s.marker_seq(p) != Some(expected) {
                    bad_marker = Some(DeskewError::Misaligned {
                        lane: l,
                        position: p,
                    });
                }
                if let Some(m) = s.next_marker(p + 1, p + stride) {
                    let depth = m - (p + 1);
                    if rogue.is_none_or(|(d, _)| depth < d) {
                        rogue = Some((depth, l));
                    }
                }
                // Word j of the block came from lane j % L at depth j / L.
                for (d, &w) in s.words[p + 1..p + stride].iter().enumerate() {
                    dst[d * lanes + l] = w;
                }
            }
            if let Some(e) = bad_marker {
                return Err(e);
            }
            if let Some((depth, l)) = rogue {
                return Err(DeskewError::Misaligned {
                    lane: l,
                    position: pos[l] + k * stride + 1 + depth,
                });
            }
        }
        Ok(())
    }
}

/// Test/simulation helper: delay a lane stream by `skew` words of line
/// noise (junk data words), as a real lane's differing trace/fiber length
/// and CDR lock time would.
pub fn apply_skew(stream: &LaneStream, skew: usize, junk: u64) -> LaneStream {
    let mut out = LaneStream::filled(skew, junk);
    for (i, &w) in stream.words.iter().enumerate() {
        match stream.marker_seq(i) {
            Some(seq) => out.push_marker(seq),
            None => out.push_data(w),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(lanes: usize, am: usize, words: usize, skews: &[usize]) -> (Vec<u64>, Vec<u64>) {
        let cfg = StripeConfig::new(lanes, am);
        let payload: Vec<u64> = (0..words as u64).collect();
        let mut dist = Distributor::new(cfg);
        let streams = dist.stripe(&payload, u64::MAX);
        let skewed: Vec<LaneStream> = streams
            .iter()
            .enumerate()
            .map(|(i, s)| apply_skew(s, skews[i % skews.len()], 0xDEAD))
            .collect();
        let out = Deskewer::new(cfg).reassemble(&skewed).expect("deskew");
        (payload, out)
    }

    /// The stream's words with the markers dropped.
    fn without_markers(s: &LaneStream) -> LaneStream {
        let mut out = LaneStream::new();
        for (i, &w) in s.words().iter().enumerate() {
            if !s.is_marker(i) {
                out.push_data(w);
            }
        }
        out
    }

    #[test]
    fn no_skew_identity() {
        let (sent, got) = roundtrip(4, 8, 4 * 8 * 3, &[0]);
        assert_eq!(got, sent);
    }

    #[test]
    fn heavy_unequal_skew_recovered() {
        let (sent, got) = roundtrip(8, 16, 8 * 16 * 4, &[0, 3, 17, 29, 5, 11, 2, 40]);
        assert_eq!(got[..sent.len()], sent[..]);
    }

    #[test]
    fn padding_fills_final_block() {
        let cfg = StripeConfig::new(4, 4);
        let payload: Vec<u64> = (0..10).collect(); // not a multiple of 16
        let mut dist = Distributor::new(cfg);
        let streams = dist.stripe(&payload, 0xFF);
        let out = Deskewer::new(cfg).reassemble(&streams).unwrap();
        assert_eq!(&out[..10], payload.as_slice());
        assert!(out[10..].iter().all(|&w| w == 0xFF));
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn sequence_continues_across_calls() {
        let cfg = StripeConfig::new(2, 2);
        let mut dist = Distributor::new(cfg);
        let s1 = dist.stripe(&[1, 2, 3, 4], 0);
        let s2 = dist.stripe(&[5, 6, 7, 8], 0);
        // Concatenate the two transmissions per lane; deskewer must read
        // both blocks as a continuous sequence.
        let joined: Vec<LaneStream> = s1
            .into_iter()
            .zip(s2)
            .map(|(mut a, b)| {
                for (i, &w) in b.words().iter().enumerate() {
                    match b.marker_seq(i) {
                        Some(seq) => a.push_marker(seq),
                        None => a.push_data(w),
                    }
                }
                a
            })
            .collect();
        let out = Deskewer::new(cfg).reassemble(&joined).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn missing_marker_is_an_error() {
        let cfg = StripeConfig::new(2, 2);
        let mut dist = Distributor::new(cfg);
        let mut streams = dist.stripe(&[1, 2, 3, 4], 0);
        streams[1] = without_markers(&streams[1]);
        assert_eq!(
            Deskewer::new(cfg).reassemble(&streams),
            Err(DeskewError::NoMarker { lane: 1 })
        );
    }

    #[test]
    fn wrong_lane_count_rejected() {
        let cfg = StripeConfig::new(3, 2);
        let streams = vec![LaneStream::new(), LaneStream::new()];
        assert_eq!(
            Deskewer::new(cfg).reassemble(&streams),
            Err(DeskewError::LaneCount {
                expected: 3,
                got: 2
            })
        );
    }

    #[test]
    fn lane_count_converts_to_length_mismatch() {
        let e: mosaic_units::MosaicError = DeskewError::LaneCount {
            expected: 3,
            got: 2,
        }
        .into();
        assert!(matches!(
            e,
            mosaic_units::MosaicError::LengthMismatch {
                what: "lane streams",
                expected: 3,
                got: 2,
            }
        ));
    }

    #[test]
    fn excess_skew_reports_lane_and_skew() {
        let cfg = StripeConfig::new(2, 2);
        let mut dist = Distributor::new(cfg);
        let streams = dist.stripe(&[1, 2, 3, 4], 0);
        // Skew ≥ the stream length still recovers: apply_skew prepends
        // junk but the whole stream stays buffered, so alignment walks
        // past the junk and reads every block.
        let skewed = vec![
            streams[0].clone(),
            apply_skew(&streams[1], streams[1].len() + 4, 0xBAD),
        ];
        assert_eq!(Deskewer::new(cfg).reassemble(&skewed), Ok(vec![1, 2, 3, 4]));
        // Unresolvable skew: lane 0 lacks the common marker entirely —
        // short stream on lane 0, later-epoch stream on lane 1.
        let s1 = dist.stripe(&[5, 6, 7, 8], 0);
        let truncated = vec![streams[0].clone(), s1[1].clone()];
        let err = Deskewer::new(cfg).reassemble(&truncated).unwrap_err();
        match err {
            DeskewError::NoCommonMarker { lane, skew } => {
                assert_eq!(lane, 0);
                assert!(skew >= streams[0].len(), "skew {skew} should be past end");
            }
            other => panic!("expected NoCommonMarker, got {other:?}"),
        }
        let msg = format!("{err}");
        assert!(
            msg.contains("lane 0"),
            "message should name the lane: {msg}"
        );
    }

    #[test]
    fn misaligned_reports_position() {
        let cfg = StripeConfig::new(2, 2);
        let mut dist = Distributor::new(cfg);
        let mut streams = dist.stripe(&[1, 2, 3, 4], 0);
        assert!(streams[0].set_marker(2, 99));
        match Deskewer::new(cfg).reassemble(&streams) {
            Err(DeskewError::Misaligned { lane, position }) => {
                assert_eq!(lane, 0);
                assert_eq!(position, 2);
            }
            other => panic!("expected Misaligned, got {other:?}"),
        }
    }

    #[test]
    fn stripe_into_matches_stripe_and_reuses_buffers() {
        let cfg = StripeConfig::new(3, 4);
        let payload: Vec<u64> = (0..40).collect();
        let mut a = Distributor::new(cfg);
        let mut b = Distributor::new(cfg);
        let fresh = a.stripe(&payload, 7);
        let mut reused = vec![LaneStream::new(); 3];
        b.stripe_into(&payload, 7, &mut reused, &[0, 1, 2]);
        assert_eq!(fresh, reused);
        // Second call with different payload still matches, with the
        // buffers recycled in place.
        let payload2: Vec<u64> = (100..140).collect();
        let fresh2 = a.stripe(&payload2, 9);
        b.stripe_into(&payload2, 9, &mut reused, &[0, 1, 2]);
        assert_eq!(fresh2, reused);
    }

    #[test]
    fn stripe_into_writes_the_assigned_channels_only() {
        let cfg = StripeConfig::new(3, 4);
        let payload: Vec<u64> = (0..40).collect();
        let logical = Distributor::new(cfg).stripe(&payload, 7);
        let mut channels = vec![LaneStream::filled(5, 0xAB); 5];
        Distributor::new(cfg).stripe_into(&payload, 7, &mut channels, &[4, 0, 2]);
        assert_eq!(channels[4], logical[0]);
        assert_eq!(channels[0], logical[1]);
        assert_eq!(channels[2], logical[2]);
        for untouched in [1, 3] {
            assert_eq!(channels[untouched], LaneStream::filled(5, 0xAB));
        }
        // The deskewer reads the same channels in place.
        let mut out = Vec::new();
        Deskewer::new(cfg)
            .reassemble_into(
                &channels,
                &[4, 0, 2],
                &mut DeskewScratch::default(),
                &mut out,
            )
            .unwrap();
        assert_eq!(&out[..40], payload.as_slice());
        // A channel index past the supplied streams carries no marker.
        assert_eq!(
            Deskewer::new(cfg).reassemble_into(
                &channels,
                &[4, 9, 2],
                &mut DeskewScratch::default(),
                &mut out
            ),
            Err(DeskewError::NoMarker { lane: 1 })
        );
    }

    #[test]
    fn reassemble_into_matches_reassemble() {
        let cfg = StripeConfig::new(4, 8);
        let payload: Vec<u64> = (0..4 * 8 * 3).map(|i| i as u64 * 3).collect();
        let mut dist = Distributor::new(cfg);
        let streams = dist.stripe(&payload, 0);
        let skewed: Vec<LaneStream> = streams
            .iter()
            .enumerate()
            .map(|(i, s)| apply_skew(s, i * 3, 0xDEAD))
            .collect();
        let d = Deskewer::new(cfg);
        let direct = d.reassemble(&skewed).unwrap();
        let mut scratch = DeskewScratch::default();
        let mut out = Vec::new();
        d.reassemble_into(&skewed, &[0, 1, 2, 3], &mut scratch, &mut out)
            .unwrap();
        assert_eq!(direct, out);
        // Reuse the same scratch/out for a second, clean pass.
        d.reassemble_into(&streams, &[0, 1, 2, 3], &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn marker_where_data_expected_detected() {
        let cfg = StripeConfig::new(2, 2);
        let mut dist = Distributor::new(cfg);
        let mut streams = dist.stripe(&[1, 2, 3, 4], 0);
        // Corrupt: replace a data word with a rogue marker.
        streams[0].set_marker(2, 99);
        assert!(matches!(
            Deskewer::new(cfg).reassemble(&streams),
            Err(DeskewError::Misaligned { .. })
        ));
    }

    #[test]
    fn lane_stream_helpers_keep_the_bitmap_consistent() {
        let mut s = LaneStream::new();
        for i in 0..130u64 {
            if i % 17 == 0 {
                s.push_marker(i as u32);
            } else {
                s.push_data(i);
            }
        }
        assert_eq!(s.len(), 130);
        assert_eq!(s.marker_seq(68), Some(68));
        assert_eq!(s.next_marker(69, 130), Some(85));
        assert_eq!(s.next_marker(69, 85), None);
        // Flips touch data only.
        assert!(s.flip_bit(1, 70));
        assert_eq!(s.words()[1], 1 ^ (1 << 6));
        assert!(!s.flip_bit(17, 0));
        assert!(!s.flip_bit(130, 0));
        // Truncation clears the bitmap past the new end.
        s.truncate(118);
        assert_eq!(s.len(), 118);
        assert_eq!(s.next_marker(103, 200), None);
        assert!(!s.set_marker(118, 1));
        // Regrowing past the cut must not resurrect marker 119.
        let mut regrown = s.clone();
        regrown.push_data(0);
        regrown.push_data(0);
        assert!(!regrown.is_marker(119));
        // A dead channel keeps its length but loses every marker.
        s.kill();
        assert_eq!(s, LaneStream::filled(118, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_skews_roundtrip(
            lanes in 1usize..12,
            am in 1usize..10,
            blocks in 1usize..6,
            skew_seed in 0u64..1000,
        ) {
            let words = lanes * am * blocks;
            let skews: Vec<usize> = (0..lanes)
                .map(|i| ((skew_seed.wrapping_mul(i as u64 + 1) >> 3) % 23) as usize)
                .collect();
            let (sent, got) = roundtrip(lanes, am, words, &skews);
            prop_assert_eq!(&got[..sent.len()], &sent[..]);
        }
    }
}

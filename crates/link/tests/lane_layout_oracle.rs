//! Lane-layout oracle: the control-bitmap [`LaneStream`] striper and
//! deskewer against the word-enum implementation they replaced, kept
//! here as the reference. Each lane word was once a two-variant enum
//! (`Marker(seq)` / `Data(word)`); the bitmap layout must stripe the
//! same words in the same places and, under any fault pattern, return
//! the same `Ok(words)` or the same `DeskewError` — variant, lane,
//! position and skew alike.

use mosaic_link::striping::{
    apply_skew, DeskewError, DeskewScratch, Deskewer, Distributor, LaneStream, StripeConfig,
};
use proptest::prelude::*;

/// One word on one lane, in the reference layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneWord {
    /// Alignment marker with a block sequence number.
    Marker(u32),
    /// A payload word.
    Data(u64),
}

/// The reference striper: round-robin words, one marker row per block.
struct RefDistributor {
    cfg: StripeConfig,
    next_seq: u32,
}

impl RefDistributor {
    fn stripe(&mut self, payload: &[u64], pad: u64) -> Vec<Vec<LaneWord>> {
        let block = self.cfg.block_payload();
        let blocks = payload.len().div_ceil(block).max(1);
        let mut lanes = vec![Vec::new(); self.cfg.lanes];
        let mut idx = 0usize;
        for _ in 0..blocks {
            for lane in lanes.iter_mut() {
                lane.push(LaneWord::Marker(self.next_seq));
            }
            self.next_seq = self.next_seq.wrapping_add(1);
            for _ in 0..block {
                let w = payload.get(idx).copied().unwrap_or(pad);
                lanes[idx % self.cfg.lanes].push(LaneWord::Data(w));
                idx += 1;
            }
        }
        lanes
    }
}

/// The reference deskewer, word for word the enum-layout algorithm.
fn ref_reassemble(cfg: StripeConfig, lanes: &[Vec<LaneWord>]) -> Result<Vec<u64>, DeskewError> {
    let mut out = Vec::new();
    if lanes.len() != cfg.lanes {
        return Err(DeskewError::LaneCount {
            expected: cfg.lanes,
            got: lanes.len(),
        });
    }
    let mut first_seq = Vec::new();
    let mut pos = Vec::new();
    for (i, lane) in lanes.iter().enumerate() {
        let p = lane
            .iter()
            .position(|w| matches!(w, LaneWord::Marker(_)))
            .ok_or(DeskewError::NoMarker { lane: i })?;
        let LaneWord::Marker(seq) = lane[p] else {
            unreachable!("position matched a marker");
        };
        first_seq.push(seq);
        pos.push(p);
    }
    let Some(&target) = first_seq.iter().max() else {
        return Ok(out);
    };
    for (i, lane) in lanes.iter().enumerate() {
        while {
            let LaneWord::Marker(seq) = lane[pos[i]] else {
                return Err(DeskewError::Misaligned {
                    lane: i,
                    position: pos[i],
                });
            };
            seq != target
        } {
            pos[i] += 1 + cfg.am_period;
            if pos[i] >= lane.len() {
                return Err(DeskewError::NoCommonMarker {
                    lane: i,
                    skew: pos[i],
                });
            }
        }
    }
    let mut expected = target;
    loop {
        let complete = lanes
            .iter()
            .zip(pos.iter())
            .all(|(lane, &p)| p + cfg.am_period < lane.len());
        if !complete {
            break;
        }
        for (i, lane) in lanes.iter().enumerate() {
            match lane[pos[i]] {
                LaneWord::Marker(seq) if seq == expected => {}
                _ => {
                    return Err(DeskewError::Misaligned {
                        lane: i,
                        position: pos[i],
                    })
                }
            }
        }
        for j in 0..cfg.block_payload() {
            let lane = j % cfg.lanes;
            let depth = j / cfg.lanes;
            match lanes[lane][pos[lane] + 1 + depth] {
                LaneWord::Data(w) => out.push(w),
                LaneWord::Marker(_) => {
                    return Err(DeskewError::Misaligned {
                        lane,
                        position: pos[lane] + 1 + depth,
                    });
                }
            }
        }
        for p in pos.iter_mut() {
            *p += 1 + cfg.am_period;
        }
        expected = expected.wrapping_add(1);
    }
    Ok(out)
}

/// A bitmap stream read back in the reference layout.
fn to_ref(s: &LaneStream) -> Vec<LaneWord> {
    s.words()
        .iter()
        .enumerate()
        .map(|(i, &w)| match s.marker_seq(i) {
            Some(seq) => LaneWord::Marker(seq),
            None => LaneWord::Data(w),
        })
        .collect()
}

/// SplitMix64, the test's own source of fault details.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// True with probability `1/n`.
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Striping, then per-lane faults applied to both layouts through
    /// their own operations, then deskew: identical outcomes.
    #[test]
    fn bitmap_lanes_match_enum_reference(
        lanes in 1usize..10,
        am in 1usize..9,
        payload_len in 0usize..400,
        earlier_epochs in 0usize..3,
        seed: u64,
    ) {
        let cfg = StripeConfig::new(lanes, am);
        let mut mix = Mix(seed);
        let payload: Vec<u64> = (0..payload_len).map(|_| mix.next()).collect();
        let pad = mix.next();
        let mut dist = Distributor::new(cfg);
        let mut reference = RefDistributor { cfg, next_seq: 0 };
        for _ in 0..earlier_epochs {
            dist.stripe(&payload[..payload_len / 2], pad);
            reference.stripe(&payload[..payload_len / 2], pad);
        }
        let mut streams = dist.stripe(&payload, pad);
        let mut ref_streams = reference.stripe(&payload, pad);
        let as_ref: Vec<Vec<LaneWord>> = streams.iter().map(to_ref).collect();
        prop_assert_eq!(&as_ref, &ref_streams);

        // The same lanes striped straight into permuted physical channels.
        let physical = lanes + mix.below(4);
        let mut assignment: Vec<usize> = (0..physical).collect();
        for i in (1..physical).rev() {
            assignment.swap(i, mix.below(i + 1));
        }
        assignment.truncate(lanes);
        let mut channels = vec![LaneStream::filled(3, 0xC0FFEE); physical];
        let mut mapped = Distributor::new(cfg);
        let mut ref_again = RefDistributor { cfg, next_seq: 0 };
        for _ in 0..earlier_epochs {
            mapped.stripe(&payload[..payload_len / 2], pad);
            ref_again.stripe(&payload[..payload_len / 2], pad);
        }
        mapped.stripe_into(&payload, pad, &mut channels, &assignment);
        for (l, &ch) in assignment.iter().enumerate() {
            prop_assert_eq!(&channels[ch], &streams[l]);
        }

        // Per-lane faults, each drawn once and applied to both layouts.
        for (s, r) in streams.iter_mut().zip(ref_streams.iter_mut()) {
            if mix.one_in(3) {
                let skew = mix.below(3 * (am + 1) + 2);
                let junk = mix.next();
                *s = apply_skew(s, skew, junk);
                let mut skewed = vec![LaneWord::Data(junk); skew];
                skewed.extend_from_slice(r);
                *r = skewed;
            }
            if mix.one_in(4) {
                let len = s.len().saturating_sub(mix.below(2 * (am + 1) + 1));
                s.truncate(len);
                r.truncate(len);
            }
            if mix.one_in(8) {
                s.kill();
                r.fill(LaneWord::Data(0));
            }
            for _ in 0..mix.below(3) {
                // A bit flip lands on data only; a marker stays intact.
                let i = mix.below(s.len() + 1);
                let bit = mix.below(64) as u32;
                let flipped = s.flip_bit(i, bit);
                let expect = matches!(r.get(i), Some(LaneWord::Data(_)));
                prop_assert_eq!(flipped, expect);
                if let Some(LaneWord::Data(w)) = r.get_mut(i) {
                    *w ^= 1 << bit;
                }
            }
            if mix.one_in(5) {
                // A control bit at a data position: a rogue marker whose
                // sequence number may collide with a real one.
                let i = mix.below(s.len() + 1);
                let seq = (earlier_epochs + mix.below(6)) as u32;
                prop_assert_eq!(s.set_marker(i, seq), i < r.len());
                if let Some(w) = r.get_mut(i) {
                    *w = LaneWord::Marker(seq);
                }
            }
            prop_assert_eq!(&to_ref(s), &*r);
        }

        let got = Deskewer::new(cfg).reassemble(&streams);
        let want = ref_reassemble(cfg, &ref_streams);
        prop_assert_eq!(&got, &want);

        // In place through a permuted assignment: same outcome again.
        let mut permuted = vec![LaneStream::new(); physical];
        for (l, &ch) in assignment.iter().enumerate() {
            permuted[ch] = streams[l].clone();
        }
        let mut out = Vec::new();
        let in_place = Deskewer::new(cfg).reassemble_into(
            &permuted,
            &assignment,
            &mut DeskewScratch::default(),
            &mut out,
        );
        match want {
            Ok(words) => {
                prop_assert_eq!(in_place, Ok(()));
                prop_assert_eq!(out, words);
            }
            Err(e) => prop_assert_eq!(in_place, Err(e)),
        }
    }
}

#[test]
fn every_error_variant_is_reached_by_both_layouts() {
    let cfg = StripeConfig::new(3, 4);
    let payload: Vec<u64> = (0..24).collect();
    let fresh = || Distributor::new(cfg).stripe(&payload, 0);
    let check = |streams: &[LaneStream]| {
        let refs: Vec<Vec<LaneWord>> = streams.iter().map(to_ref).collect();
        let got = Deskewer::new(cfg).reassemble(streams);
        assert_eq!(got, ref_reassemble(cfg, &refs));
        got
    };
    assert_eq!(check(&fresh()), Ok(payload.clone()));
    // Dead lane.
    let mut s = fresh();
    s[2].kill();
    assert_eq!(check(&s), Err(DeskewError::NoMarker { lane: 2 }));
    // Unresolvable skew: lane 0 only carries the first epoch.
    let mut dist = Distributor::new(cfg);
    let first = dist.stripe(&payload, 0);
    let second = dist.stripe(&payload, 0);
    let s = vec![first[0].clone(), second[1].clone(), second[2].clone()];
    assert_eq!(
        check(&s),
        Err(DeskewError::NoCommonMarker { lane: 0, skew: 10 })
    );
    // Control bits at data positions on two lanes: the round-robin read
    // meets depth 1 on lane 2 before depth 2 on lane 0.
    let mut s = fresh();
    s[0].set_marker(3, 0);
    s[2].set_marker(2, 7);
    assert_eq!(
        check(&s),
        Err(DeskewError::Misaligned {
            lane: 2,
            position: 2
        })
    );
    // Wrong stream count.
    assert_eq!(
        check(&fresh()[..2]),
        Err(DeskewError::LaneCount {
            expected: 3,
            got: 2
        })
    );
}

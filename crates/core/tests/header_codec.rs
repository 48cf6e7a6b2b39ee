//! Property: the slot-0 header codec is a bijection on what it accepts.
//! [`HeaderRef::parse`] is the only decoder of node headers and
//! [`NodeHeader::encode`] the only encoder, so the read path (borrowed
//! views) and the write/SMO paths (owned headers) agree exactly when
//! `encode → parse → to_header` is the identity and every corrupted byte
//! string is either rejected or *is* the canonical encoding of what it
//! parses to.

use pitree::node::{HeaderRef, NodeHeader};
use pitree::KeyBound;
use pitree_pagestore::PageId;
use pitree_sim::prop::run;
use pitree_sim::rng::SimRng;

/// A valid bound at one end: `infinity` (`NegInf` for a low bound,
/// `PosInf` for a high one) or a key.
fn arb_bound(rng: &mut SimRng, infinity: KeyBound) -> KeyBound {
    match rng.below(3) {
        0 => infinity,
        // Bias toward short keys (the tree's own keys are 8-32 bytes) but
        // include empty and long ones.
        _ => {
            let len = rng.range_usize(0..48);
            KeyBound::Key(rng.bytes(len))
        }
    }
}

fn arb_header(rng: &mut SimRng) -> NodeHeader {
    NodeHeader {
        level: rng.below(8) as u8,
        side: if rng.chance(0.5) {
            PageId::INVALID
        } else {
            PageId(rng.next_u64())
        },
        low: arb_bound(rng, KeyBound::NegInf),
        high: arb_bound(rng, KeyBound::PosInf),
    }
}

#[test]
fn encode_parse_to_header_round_trips() {
    run("header-codec-roundtrip", |rng| {
        for _ in 0..64 {
            let h = arb_header(rng);
            let bytes = h.encode();
            let v = HeaderRef::parse(&bytes).expect("view must accept a valid encoding");
            assert_eq!(h, v.to_header());
            assert_eq!(h.level, v.level());
            assert_eq!(h.side, v.side());
            assert_eq!(h.is_leaf(), v.is_leaf());
            // Routing predicates agree with the owned header.
            for _ in 0..8 {
                let plen = rng.range_usize(0..40);
                let probe = rng.bytes(plen);
                assert_eq!(h.contains(&probe), v.contains(&probe));
                assert_eq!(h.low.le_key(&probe), v.low_le(&probe));
                assert_eq!(h.high.gt_key(&probe), v.high_gt(&probe));
            }
        }
    });
}

#[test]
fn corrupted_encodings_are_rejected_or_canonical() {
    run("header-codec-corrupt", |rng| {
        for _ in 0..64 {
            let mut bytes = arb_header(rng).encode();
            match rng.below(4) {
                // Truncate anywhere, including mid-bound: always rejected
                // (no strict prefix of an encoding is an encoding).
                0 => {
                    let at = rng.range_usize(0..bytes.len());
                    bytes.truncate(at);
                    assert!(HeaderRef::parse(&bytes).is_err(), "{bytes:02x?}");
                }
                // Trailing garbage: always rejected.
                1 => {
                    let extra = rng.range_usize(1..8);
                    bytes.extend(rng.bytes(extra));
                    assert!(HeaderRef::parse(&bytes).is_err(), "{bytes:02x?}");
                }
                // Flip a byte — may hit a bound tag, a length, or key data.
                2 => {
                    let i = rng.range_usize(0..bytes.len());
                    bytes[i] ^= rng.byte() | 1;
                }
                // Pure noise.
                _ => {
                    let len = rng.range_usize(0..24);
                    bytes = rng.bytes(len);
                }
            }
            // Whatever survives parsing must be exactly the encoding of the
            // header it parsed to — nothing ignored, nothing guessed.
            if let Ok(v) = HeaderRef::parse(&bytes) {
                assert_eq!(v.to_header().encode(), bytes, "non-canonical accept");
            }
        }
    });
}

#[test]
fn header_view_rejects_known_corruptions() {
    // Deterministic spot checks for each rejection class, so a regression
    // names the class instead of a seed.
    let valid = NodeHeader::new_root_leaf().encode();
    assert!(HeaderRef::parse(&valid).is_ok());
    // Too short for level + side.
    assert!(HeaderRef::parse(&valid[..8]).is_err());
    // Bad bound tag.
    let mut bad_tag = valid.clone();
    bad_tag[9] = 7;
    assert!(HeaderRef::parse(&bad_tag).is_err());
    // Trailing bytes after the high bound.
    let mut trailing = valid.clone();
    trailing.push(0);
    assert!(HeaderRef::parse(&trailing).is_err());
    // Truncated Key bound payload.
    let keyed = NodeHeader {
        low: KeyBound::Key(b"abcdef".to_vec()),
        ..NodeHeader::new_root_leaf()
    }
    .encode();
    assert!(HeaderRef::parse(&keyed[..keyed.len() - 1]).is_err());
    // A +inf low bound and a -inf high bound (tags at bytes 9 and 10).
    let mut low_pos_inf = valid.clone();
    low_pos_inf[9] = 2;
    assert!(HeaderRef::parse(&low_pos_inf).is_err());
    let mut high_neg_inf = valid;
    high_neg_inf[10] = 0;
    assert!(HeaderRef::parse(&high_neg_inf).is_err());
}

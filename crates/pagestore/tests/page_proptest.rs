//! Property-based tests of the slotted page and the physiological
//! operation vocabulary: arbitrary operation sequences against reference
//! models, and invert/apply round-trips from arbitrary page states.
//!
//! Runs on the pitree-sim property runner: fixed seed corpus, replayable
//! with `PITREE_SIM_SEED=<seed>`.

use pitree_pagestore::page::{Page, PageType};
use pitree_pagestore::{PageOp, StoreError};
use pitree_sim::{prop, SimRng};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum SlotOp {
    Insert(u16, Vec<u8>),
    Remove(u16),
    Update(u16, Vec<u8>),
    Compact,
}

fn gen_slot_op(rng: &mut SimRng) -> SlotOp {
    match rng.below(9) {
        0..=3 => {
            let len = rng.range_usize(0..40);
            SlotOp::Insert(rng.next_u64() as u16, rng.bytes(len))
        }
        4..=5 => SlotOp::Remove(rng.next_u64() as u16),
        6..=7 => {
            let len = rng.range_usize(0..40);
            SlotOp::Update(rng.next_u64() as u16, rng.bytes(len))
        }
        _ => SlotOp::Compact,
    }
}

/// Slot operations agree with a `Vec<Vec<u8>>` model under every
/// interleaving, including out-of-range and page-full errors.
#[test]
fn slot_ops_match_vec_model() {
    prop::run("slot_ops_match_vec_model", |rng| {
        let n_ops = rng.range_usize(1..200);
        let mut page = Page::new(PageType::Node);
        let mut model: Vec<Vec<u8>> = Vec::new();
        for _ in 0..n_ops {
            match gen_slot_op(rng) {
                SlotOp::Insert(i, bytes) => {
                    let i = i % (model.len() as u16 + 2); // occasionally out of range
                    let r = page.insert(i, &bytes);
                    if (i as usize) <= model.len() {
                        match r {
                            Ok(()) => model.insert(i as usize, bytes),
                            Err(StoreError::PageFull { .. }) => {}
                            Err(e) => panic!("insert: {e}"),
                        }
                    } else {
                        assert!(
                            matches!(r, Err(StoreError::BadSlot { .. })),
                            "expected BadSlot"
                        );
                    }
                }
                SlotOp::Remove(i) => {
                    let i = i % (model.len() as u16 + 2);
                    let r = page.remove(i);
                    if (i as usize) < model.len() {
                        assert_eq!(r.unwrap(), model.remove(i as usize));
                    } else {
                        assert!(
                            matches!(r, Err(StoreError::BadSlot { .. })),
                            "expected BadSlot"
                        );
                    }
                }
                SlotOp::Update(i, bytes) => {
                    let i = i % (model.len() as u16 + 2);
                    let r = page.update(i, &bytes);
                    if (i as usize) < model.len() {
                        match r {
                            Ok(old) => {
                                assert_eq!(&old, &model[i as usize]);
                                model[i as usize] = bytes;
                            }
                            Err(StoreError::PageFull { .. }) => {}
                            Err(e) => panic!("update: {e}"),
                        }
                    } else {
                        assert!(
                            matches!(r, Err(StoreError::BadSlot { .. })),
                            "expected BadSlot"
                        );
                    }
                }
                SlotOp::Compact => page.compact(),
            }
            // Invariants after every step.
            assert_eq!(page.slot_count() as usize, model.len());
            for (i, rec) in model.iter().enumerate() {
                assert_eq!(page.get(i as u16).unwrap(), rec.as_slice());
            }
        }
    });
}

/// Keyed operations agree with a `BTreeMap` model.
#[test]
fn keyed_ops_match_btreemap() {
    prop::run("keyed_ops_match_btreemap", |rng| {
        let n_ops = rng.range_usize(1..150);
        let mut page = Page::new(PageType::Node);
        page.insert(0, b"header").unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for _ in 0..n_ops {
            let sel = rng.below(3);
            let key_len = rng.range_usize(1..8);
            let key = rng.bytes(key_len);
            let val_len = rng.range_usize(0..16);
            let val = rng.bytes(val_len);
            match sel {
                0 => {
                    let entry = Page::make_entry(&key, &val);
                    let r = page.keyed_insert(&entry);
                    if model.contains_key(&key) {
                        assert!(r.is_err(), "duplicate insert must fail");
                    } else if r.is_ok() {
                        model.insert(key.clone(), val.clone());
                    }
                }
                1 => {
                    let r = page.keyed_remove(&key);
                    match model.remove(&key) {
                        Some(v) => assert_eq!(r.unwrap(), Page::make_entry(&key, &v)),
                        None => assert!(r.is_err()),
                    }
                }
                _ => {
                    let r = page.keyed_find(&key).unwrap();
                    assert_eq!(r.is_ok(), model.contains_key(&key));
                }
            }
            // Entries stay sorted and match the model exactly.
            assert_eq!(page.entry_count() as usize, model.len());
            let mut it = model.iter();
            for slot in 1..page.slot_count() {
                let (mk, mv) = it.next().unwrap();
                assert_eq!(page.entry_key_at(slot).to_vec(), *mk);
                assert_eq!(page.entry_payload_at(slot), mv.as_slice());
            }
        }
    });
}

/// `op.invert` then applying both restores visible page content, from
/// arbitrary prior states.
#[test]
fn invert_roundtrips_from_arbitrary_states() {
    prop::run_cases("invert_roundtrips_from_arbitrary_states", 64, |rng| {
        let mut page = Page::new(PageType::Node);
        page.insert(0, b"hdr").unwrap();
        let n_seed = rng.range_usize(0..20);
        for _ in 0..n_seed {
            let kl = rng.range_usize(1..6);
            let k = rng.bytes(kl);
            let vl = rng.range_usize(0..10);
            let v = rng.bytes(vl);
            let _ = page.keyed_insert(&Page::make_entry(&k, &v));
        }
        let op_sel = rng.below(6) as u8;
        let kl = rng.range_usize(1..6);
        let key = rng.bytes(kl);
        let vl = rng.range_usize(0..10);
        let val = rng.bytes(vl);
        let present = page.keyed_find(&key).unwrap().is_ok();
        let op = match op_sel {
            0 if !present => PageOp::KeyedInsert {
                bytes: Page::make_entry(&key, &val),
            },
            1 if present => PageOp::KeyedRemove { key: key.clone() },
            2 if present => PageOp::KeyedUpdate {
                bytes: Page::make_entry(&key, &val),
            },
            3 => PageOp::SetFlags {
                flags: val.first().copied().unwrap_or(1),
            },
            4 => PageOp::Format { ty: PageType::Free },
            _ => PageOp::UpdateSlot {
                slot: 0,
                bytes: b"hdr2".to_vec(),
            },
        };
        let snapshot: Vec<Vec<u8>> = (0..page.slot_count())
            .map(|i| page.get(i).unwrap().to_vec())
            .collect();
        let flags = page.flags();
        let inv = op.invert(&page).unwrap();
        if op.apply(&mut page).is_ok() {
            inv.apply(&mut page).unwrap();
            let after: Vec<Vec<u8>> = (0..page.slot_count())
                .map(|i| page.get(i).unwrap().to_vec())
                .collect();
            assert_eq!(snapshot, after);
            assert_eq!(flags, page.flags());
        }
    });
}

/// What a reader sees on a keyed page: the header record and every entry as
/// `make_entry` builds it (so a re-encoding is invisible).
fn visible(page: &Page) -> Vec<Vec<u8>> {
    let header = page.get(0).unwrap().to_vec();
    std::iter::once(header)
        .chain((1..page.slot_count()).map(|s| page.entry_at(s)))
        .collect()
}

/// A keyed operation on `model`'s keys, biased toward the node's ends so
/// that the key prefix both shrinks (a key past either end) and grows (the
/// first or last entry leaving).
fn gen_end_biased_op(rng: &mut SimRng, stem: &[u8], model: &BTreeMap<Vec<u8>, Vec<u8>>) -> PageOp {
    let payload = {
        let len = rng.range_usize(0..20);
        rng.bytes(len)
    };
    let ends = (model.keys().next(), model.keys().next_back());
    match (rng.below(10), ends) {
        (0..=3, _) | (_, (None, _)) | (_, (_, None)) => {
            let mut key = stem[..rng.range_usize(0..stem.len() + 1)].to_vec();
            let tail = rng.range_usize(0..4);
            key.extend(rng.bytes(tail));
            PageOp::KeyedInsert {
                bytes: Page::make_entry(&key, &payload),
            }
        }
        (4 | 5, (Some(first), Some(last))) => {
            // Past the last key (it extends it) or before the first (a
            // proper prefix of it sorts first).
            let key = if rng.chance(0.5) || first.is_empty() {
                let mut k = last.clone();
                k.push(rng.byte());
                k
            } else {
                first[..rng.range_usize(0..first.len())].to_vec()
            };
            PageOp::KeyedInsert {
                bytes: Page::make_entry(&key, &payload),
            }
        }
        (6..=8, (Some(first), Some(last))) => {
            let key = match rng.below(3) {
                0 => first.clone(),
                1 => last.clone(),
                _ => rng.pick(&model.keys().cloned().collect::<Vec<_>>()).clone(),
            };
            PageOp::KeyedRemove { key }
        }
        (_, _) => {
            let key = rng.pick(&model.keys().cloned().collect::<Vec<_>>()).clone();
            PageOp::KeyedUpdate {
                bytes: Page::make_entry(&key, &payload),
            }
        }
    }
}

/// The key prefix is a function of the keys a page holds, so keyed
/// operations stay deterministic and invertible as it shrinks and grows:
/// replaying the applied operations onto the starting image reproduces it
/// byte for byte (REDO), every operation's inverse restores the visible
/// content and the canonical prefix (UNDO), and an operation that fails
/// leaves the page untouched (it is never logged).
#[test]
fn keyed_ops_at_the_ends_replay_byte_for_byte_and_invert() {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    let (cases, shrank, grew) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    prop::run_cases("keyed_ops_at_the_ends_replay_and_invert", 64, |rng| {
        cases.fetch_add(1, Relaxed);
        let mut page = Page::new(PageType::Node);
        page.insert(0, b"node-header").unwrap();
        let stem_len = rng.range_usize(0..10);
        let stem = rng.bytes(stem_len);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let start = page.clone();
        let mut logged = Vec::new();
        for _ in 0..rng.range_usize(1..300) {
            let op = gen_end_biased_op(rng, &stem, &model);
            let before = (visible(&page), page.key_prefix().to_vec());
            let image = page.as_bytes().to_vec();
            let Ok(inverse) = op.invert(&page) else {
                continue; // an absent key: nothing to log
            };
            if op.apply(&mut page).is_err() {
                assert_eq!(
                    page.as_bytes(),
                    &image[..],
                    "a failed {op:?} changed the page"
                );
                continue;
            }
            assert_eq!(
                page.key_prefix().len(),
                page.canonical_prefix_len(),
                "{op:?}"
            );
            match page.key_prefix().len().cmp(&before.1.len()) {
                std::cmp::Ordering::Less => shrank.fetch_add(1, Relaxed),
                std::cmp::Ordering::Greater => grew.fetch_add(1, Relaxed),
                std::cmp::Ordering::Equal => 0,
            };
            match &op {
                PageOp::KeyedInsert { bytes } | PageOp::KeyedUpdate { bytes } => {
                    let key = Page::entry_key(bytes).unwrap().to_vec();
                    model.insert(key, Page::entry_payload(bytes).unwrap().to_vec());
                }
                PageOp::KeyedRemove { key } => {
                    model.remove(key);
                }
                _ => unreachable!(),
            }
            let mut undone = page.clone();
            inverse.apply(&mut undone).unwrap();
            assert_eq!(
                (visible(&undone), undone.key_prefix().to_vec()),
                before,
                "{op:?}"
            );
            logged.push(op);
        }
        let expect: Vec<Vec<u8>> = model.iter().map(|(k, v)| Page::make_entry(k, v)).collect();
        assert_eq!(visible(&page)[1..], expect[..]);
        let mut replayed = start;
        for op in &logged {
            op.apply(&mut replayed).unwrap();
        }
        assert_eq!(replayed.as_bytes(), page.as_bytes());
        Page::from_bytes(page.as_bytes()).unwrap();
    });
    // Over the whole corpus (not a single replayed seed), both happen often.
    if cases.into_inner() > 1 {
        let (shrank, grew) = (shrank.into_inner(), grew.into_inner());
        assert!(
            shrank > 100 && grew > 100,
            "prefix shrank {shrank}, grew {grew} times"
        );
    }
}

/// Key and payload lengths either side of a stored length's one-byte limit
/// (127 / 128) and at its two-byte limit (16,383, far past a page), beside
/// a raw header of either width: keyed operations agree with a model, an
/// entry the page cannot hold is a typed `PageFull` that changes nothing,
/// and the operations that succeeded replay onto the starting image byte
/// for byte.
#[test]
fn edge_lengths_match_the_model_and_replay_byte_for_byte() {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    const LENS: [usize; 7] = [0, 1, 126, 127, 128, 129, 16_383];
    let (cases, two_byte, refused) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    prop::run_cases("edge_lengths_match_the_model", 64, |rng| {
        cases.fetch_add(1, Relaxed);
        let mut page = Page::new(PageType::Node);
        let header = {
            let hlen = *rng.pick(&[1, 127, 128, 200]);
            rng.bytes(hlen)
        };
        page.insert(0, &header).unwrap();
        let start = page.clone();
        let stem = {
            let len = rng.range_usize(0..6);
            rng.bytes(len)
        };
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut logged = Vec::new();
        for _ in 0..rng.range_usize(1..60) {
            let payload = {
                let len = *rng.pick(&LENS);
                rng.bytes(len)
            };
            let known: Vec<Vec<u8>> = model.keys().cloned().collect();
            let op = if known.is_empty() || rng.chance(0.6) {
                let klen = *rng.pick(&LENS);
                let mut key = stem[..stem.len().min(klen)].to_vec();
                key.extend(rng.bytes(klen - key.len()));
                PageOp::KeyedInsert {
                    bytes: Page::make_entry(&key, &payload),
                }
            } else if rng.chance(0.5) {
                PageOp::KeyedRemove {
                    key: rng.pick(&known).clone(),
                }
            } else {
                PageOp::KeyedUpdate {
                    bytes: Page::make_entry(rng.pick::<Vec<u8>>(&known), &payload),
                }
            };
            let image = page.as_bytes().to_vec();
            match (op.apply(&mut page), &op) {
                (Ok(()), PageOp::KeyedInsert { bytes } | PageOp::KeyedUpdate { bytes }) => {
                    let key = Page::entry_key(bytes).unwrap().to_vec();
                    let len = Page::entry_payload(bytes).unwrap().len();
                    two_byte.fetch_add(usize::from(key.len().max(len) >= 128), Relaxed);
                    model.insert(key, Page::entry_payload(bytes).unwrap().to_vec());
                    logged.push(op);
                }
                (Ok(()), PageOp::KeyedRemove { key }) => {
                    model.remove(key);
                    logged.push(op);
                }
                (Err(StoreError::PageFull { .. }), _) => {
                    assert_eq!(page.as_bytes(), &image[..], "a refused {op:?}");
                    refused.fetch_add(1, Relaxed);
                }
                (Err(StoreError::Corrupt(_)), PageOp::KeyedInsert { bytes }) => {
                    assert!(model.contains_key(Page::entry_key(bytes).unwrap()));
                    assert_eq!(page.as_bytes(), &image[..]);
                }
                (r, _) => panic!("{r:?}"),
            }
            assert_eq!(page.get(0).unwrap(), &header[..]);
            let expect: Vec<Vec<u8>> = model.iter().map(|(k, v)| Page::make_entry(k, v)).collect();
            assert_eq!(visible(&page)[1..], expect[..]);
        }
        let mut replayed = start;
        for op in &logged {
            op.apply(&mut replayed).unwrap();
        }
        assert_eq!(replayed.as_bytes(), page.as_bytes());
        Page::from_bytes(page.as_bytes()).unwrap();
    });
    // Over the whole corpus (not a single replayed seed), both happen often.
    if cases.into_inner() > 1 {
        let (two_byte, refused) = (two_byte.into_inner(), refused.into_inner());
        assert!(
            two_byte > 100 && refused > 100,
            "{two_byte} entries with a two-byte length stored, {refused} refused"
        );
    }
}

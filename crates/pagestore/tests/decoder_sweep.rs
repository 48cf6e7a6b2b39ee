//! No page decoder trusts its bytes.
//!
//! Arbitrary, truncated and bit-flipped page images go through the two
//! doors a device read uses — `Page::from_bytes` (the in-memory disk) and
//! `Page::adopt` (`FileDisk::read_page`) — and every image either ends in a
//! typed `StoreError` or is a page on which every accessor, every keyed
//! probe and every keyed `PageOp::apply` is total: no panic, no overflow,
//! no out-of-bounds slice. The in-frame accessors are unchecked on purpose
//! (they sit on the read hot path); the validation a page gets once, when it
//! is adopted, is what makes them safe, and every operation on an accepted
//! page leaves one on which they stay total.
//!
//! Runs on the pitree-sim property runner: fixed seed corpus, replayable
//! with `PITREE_SIM_SEED=<seed>`.

use pitree_pagestore::disk::FileDisk;
use pitree_pagestore::page::{Page, PageType};
use pitree_pagestore::{DiskManager, PageId, PageOp, StoreError, PAGE_SIZE};
use pitree_sim::{prop, SimRng};
use std::path::{Path, PathBuf};

/// A keyed node page: a header record in slot 0, then up to `n` entries
/// whose keys share a random-length prefix.
fn keyed_page(rng: &mut SimRng, n: usize) -> Page {
    let mut p = Page::new(PageType::Node);
    let hlen = rng.range_usize(1..40);
    p.insert(0, &rng.bytes(hlen)).unwrap();
    let shared_len = rng.range_usize(0..10);
    let shared = rng.bytes(shared_len);
    for _ in 0..n {
        let _ = p.keyed_insert(&arb_entry(rng, &shared));
    }
    p
}

/// An entry whose key starts with `shared` most of the time.
fn arb_entry(rng: &mut SimRng, shared: &[u8]) -> Vec<u8> {
    let mut key = if rng.chance(0.8) {
        shared.to_vec()
    } else {
        Vec::new()
    };
    let tail = rng.range_usize(0..6);
    key.extend(rng.bytes(tail));
    let vlen = rng.range_usize(0..24);
    Page::make_entry(&key, &rng.bytes(vlen))
}

/// Flip bits of `img`, half of the time inside the header and slot
/// directory, where a flip changes how the rest is read.
fn flip(rng: &mut SimRng, img: &mut [u8]) {
    for _ in 0..rng.range_usize(1..6) {
        let i = if rng.chance(0.5) {
            rng.range_usize(0..64)
        } else {
            rng.range_usize(0..PAGE_SIZE)
        };
        img[i] ^= 1 << rng.below(8);
    }
}

/// Everything a reader may do with an accepted page.
fn read_all(rng: &mut SimRng, page: &Page) {
    let n = page.slot_count();
    for slot in 0..=n {
        let _ = page.get(slot);
    }
    for slot in 1..n {
        let key = page.entry_key_at(slot).to_vec();
        let _ = page.entry_payload_at(slot);
        let _ = page.entry_at(slot);
        let _ = page.keyed_probe(&key);
    }
    let _ = page.free_space();
    let _ = page.used_space();
    let _ = page.key_prefix();
    let _ = page.canonical_prefix_len();
    for _ in 0..8 {
        let klen = rng.range_usize(0..12);
        let key = rng.bytes(klen);
        let _ = page.keyed_probe(&key);
        let _ = page.keyed_probe_split(&key[..klen / 2], &key[klen / 2..]);
        let _ = page.keyed_lookup(&key);
        let _ = page.keyed_floor(&key);
        let _ = page.keyed_fits(&Page::make_entry(&key, b"v"));
    }
}

/// What a reader or a REDO pass may do with an accepted page: keyed
/// operations as REDO would apply them either fail with a typed error or
/// leave a page every read is still total on.
fn exercise(rng: &mut SimRng, page: &Page) {
    read_all(rng, page);
    let mut p = page.clone();
    for _ in 0..8 {
        let klen = rng.range_usize(0..12);
        let mut key = rng.bytes(klen);
        if p.entry_count() > 0 && rng.chance(0.5) {
            // Near a key the page holds, so the prefix paths run too.
            let slot = 1 + rng.below(p.entry_count() as u64) as u16;
            key = [p.entry_key_at(slot).to_vec(), rng.bytes(klen % 3)].concat();
        }
        let entry = Page::make_entry(&key, &rng.bytes(4));
        let op = match rng.below(4) {
            0 => PageOp::KeyedInsert { bytes: entry },
            1 => PageOp::KeyedUpdate { bytes: entry },
            2 => PageOp::KeyedRemove { key },
            // A log record's bytes are not trusted either.
            _ => PageOp::KeyedInsert {
                bytes: rng.bytes(klen),
            },
        };
        let _ = op.invert(&p);
        if op.apply(&mut p).is_ok() {
            read_all(rng, &p);
        }
    }
}

/// A one-page device file `FileDisk` reads images from.
struct Device {
    path: PathBuf,
    disk: FileDisk,
}

impl Device {
    fn new(name: &str) -> Device {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        let _ = std::fs::remove_file(&path);
        let disk = FileDisk::open(&path).unwrap();
        Device { path, disk }
    }

    /// `img` as page 0 of the device, read back through `Page::adopt`.
    fn read(&self, img: &[u8]) -> Result<Page, StoreError> {
        std::fs::write(&self.path, img).unwrap();
        self.disk.read_page(PageId(0))
    }
}

/// Every door an image comes in through: the same verdict, and a total page
/// behind an accepting one.
fn check_image(rng: &mut SimRng, dev: &Device, img: &[u8]) {
    let from_bytes = Page::from_bytes(img);
    if img.len() != PAGE_SIZE {
        assert!(matches!(from_bytes, Err(StoreError::Corrupt(_))));
        return;
    }
    match (&from_bytes, &dev.read(img)) {
        (Ok(_), Ok(_)) | (Err(StoreError::Corrupt(_)), Err(StoreError::Corrupt(_))) => {}
        // A zero heap top is a never-written hole to a device read.
        (Err(StoreError::Corrupt(_)), Err(StoreError::PageNotFound(_))) => {}
        (a, b) => panic!("from_bytes {a:?} but adopt {b:?}"),
    }
    if let Ok(page) = from_bytes {
        exercise(rng, &page);
    }
}

#[test]
fn arbitrary_truncated_and_flipped_images_are_typed_errors_or_total_pages() {
    let dev = Device::new("decoder_sweep.db");
    prop::run_cases("decoder-sweep-images", 64, |rng| {
        for _ in 0..16 {
            let n = rng.range_usize(0..40);
            let mut img = keyed_page(rng, n).as_bytes().to_vec();
            match rng.below(4) {
                0 => img = rng.bytes(PAGE_SIZE),
                1 => img.truncate(rng.range_usize(0..PAGE_SIZE)),
                _ => flip(rng, &mut img),
            }
            check_image(rng, &dev, &img);
        }
    });
}

#[test]
fn entry_decoders_reject_bad_framing() {
    prop::run("decoder-sweep-entries", |rng| {
        for _ in 0..64 {
            let len = rng.range_usize(0..12);
            let bytes = rng.bytes(len);
            match (Page::entry_key(&bytes), Page::entry_payload(&bytes)) {
                (Ok(k), Ok(p)) => assert_eq!(Page::make_entry(k, p), bytes),
                (Err(StoreError::Corrupt(_)), Err(StoreError::Corrupt(_))) => {}
                other => panic!("{bytes:02x?}: {other:?}"),
            }
        }
    });
}

/// The corruption that used to panic: a keyed entry whose key length runs
/// past its record. `Page::entry_key` sliced `bytes[2..2 + klen]` unchecked.
#[test]
fn a_key_length_past_its_record_is_a_typed_error() {
    let (p, rec) = two_entry_page();
    let mut img = p.as_bytes().to_vec();
    img[rec..rec + 2].copy_from_slice(&200u16.to_le_bytes());
    assert_corrupt(&img, "past its record");
    assert!(Page::entry_key(&[9, 0, b'k']).is_err());
    assert!(Page::entry_payload(&[1]).is_err());
}

/// A keyed page whose keys share the prefix `key`, and the offset of its
/// first entry's stored record (`[klen][suffix][payload]`).
fn two_entry_page() -> (Page, usize) {
    let mut p = Page::new(PageType::Node);
    p.insert(0, b"header").unwrap();
    p.keyed_insert(&Page::make_entry(b"key-a", b"value"))
        .unwrap();
    p.keyed_insert(&Page::make_entry(b"key-b", b"value"))
        .unwrap();
    assert_eq!(p.key_prefix(), b"key-");
    let stored = [&5u16.to_le_bytes()[..], b"a", b"value"].concat();
    let img = p.as_bytes();
    let rec = (0..PAGE_SIZE)
        .find(|&i| img[i..].starts_with(&stored))
        .unwrap();
    (p, rec)
}

/// Both doors reject `img` with a typed error.
fn assert_corrupt(img: &[u8], what: &str) {
    assert!(
        matches!(Page::from_bytes(img), Err(StoreError::Corrupt(_))),
        "{what}: from_bytes"
    );
    let dev = Device::new(&format!("decoder_sweep_{}.db", what.replace(' ', "_")));
    assert!(
        matches!(dev.read(img), Err(StoreError::Corrupt(_))),
        "{what}: adopt"
    );
}

/// The prefix length field at bytes 16..18 of the page header.
fn set_prefix_len(img: &mut [u8], plen: usize) {
    img[16..18].copy_from_slice(&(plen as u16).to_le_bytes());
}

#[test]
fn a_prefix_longer_than_the_page_is_a_typed_error() {
    let mut img = two_entry_page().0.as_bytes().to_vec();
    set_prefix_len(&mut img, PAGE_SIZE + 1);
    assert_corrupt(&img, "longer than the page");
    set_prefix_len(&mut img, u16::MAX as usize);
    assert_corrupt(&img, "u16 max");
}

#[test]
fn a_prefix_longer_than_a_key_is_a_typed_error() {
    // The stored key length is the whole key's: one shorter than the
    // prefix cannot be re-expanded.
    let (p, rec) = two_entry_page();
    let mut img = p.as_bytes().to_vec();
    img[rec..rec + 2].copy_from_slice(&3u16.to_le_bytes());
    assert_corrupt(&img, "longer than a key");
}

#[test]
fn a_prefix_overlapping_the_slot_directory_is_a_typed_error() {
    let p = two_entry_page().0;
    let slots_end = 18 + 4 * p.slot_count() as usize;
    let mut img = p.as_bytes().to_vec();
    set_prefix_len(&mut img, PAGE_SIZE - slots_end + 1);
    assert_corrupt(&img, "overlapping the slot directory");
    // Short of the slot directory, the prefix still overlaps the records.
    set_prefix_len(&mut img, 100);
    assert_corrupt(&img, "overlapping the records");
}

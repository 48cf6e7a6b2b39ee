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
//! page leaves one on which they stay total. The store's meta record
//! (`MetaRecord::decode`, read at every open) gets an exhaustive bit-flip
//! and truncation sweep of its own.
//!
//! Runs on the pitree-sim property runner: fixed seed corpus, replayable
//! with `PITREE_SIM_SEED=<seed>`.

use pitree_pagestore::disk::FileDisk;
use pitree_pagestore::page::{Page, PageType};
use pitree_pagestore::space::{MetaRecord, SpaceMap};
use pitree_pagestore::{BufferPool, DiskManager, PageId, PageOp, StoreError, PAGE_SIZE};
use pitree_sim::{prop, SimRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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
/// A stored record reads its extent from its own lengths, so one that runs
/// past the heap, or into the next record, is the same error.
#[test]
fn a_key_length_past_its_record_is_a_typed_error() {
    let (p, rec) = two_entry_page();
    let mut img = p.as_bytes().to_vec();
    img[rec] = 100;
    assert_corrupt(&img, "past its record");
    img[rec] = 6;
    assert_corrupt(&img, "into the next record");
    img[rec] = 5;
    img[rec + 1] = 6;
    assert_corrupt(&img, "a payload into the next record");
    assert!(Page::entry_key(&[9, 0, b'k']).is_err());
    assert!(Page::entry_payload(&[1]).is_err());
}

/// Records that overlap pass validation when the heap accounting adds up:
/// each reads its extent from its own lengths, so such a page reads within
/// the page. The writers that reuse heap bytes — an update in place and a
/// reclaim at the heap top — must then leave the other record's lengths
/// alone, or a later read runs past the page.
#[test]
fn overlapping_records_read_and_write_within_the_page() {
    // key-b's payload holds a 3-byte record, `[4][1]q` (key "key-",
    // payload "q"); slot 1 is pointed at it, and key-a's 8-byte record it
    // named becomes 5 more fragmented bytes.
    let mut p = Page::new(PageType::Node);
    p.insert(0, b"header").unwrap();
    for (k, v) in [
        (&b"key-a"[..], &b"vvvvv"[..]),
        (b"key-b", &[b'x', 4, 1, b'q', b'y']),
    ] {
        p.keyed_insert(&Page::make_entry(k, v)).unwrap();
    }
    let mut img = p.as_bytes().to_vec();
    let b = (0..PAGE_SIZE)
        .find(|&i| img[i..].starts_with(&[5, 5, b'b', b'x', 4, 1]))
        .unwrap();
    img[20..22].copy_from_slice(&((b + 4) as u16).to_le_bytes());
    let frag = u16::from_le_bytes([img[14], img[15]]) + 5;
    img[14..16].copy_from_slice(&frag.to_le_bytes());
    let page = Page::from_bytes(&img).unwrap();
    assert_eq!(
        (page.entry_key_at(1).to_vec(), page.entry_payload_at(1)),
        (b"key-".to_vec(), &b"q"[..])
    );
    // An update of key-b whose payload would give slot 1 lengths of 127
    // each is carved anew instead of written over slot 1's lengths.
    let mut q = page.clone();
    let stored = [&[5, 5][..], b"b", &[b'x', 0x7f, 0x7f, b'y', b'z']].concat();
    q.update(2, &stored).unwrap();
    assert_eq!(q.entry_payload_at(1), b"q");
    Page::from_bytes(q.as_bytes()).unwrap();
    // Removing key-b, the record at the heap top, leaves its bytes in
    // place: the next record is carved below them.
    let mut r = page.clone();
    r.remove(2).unwrap();
    r.keyed_insert(&Page::make_entry(b"key-c", &[0; 20]))
        .unwrap();
    assert_eq!(r.entry_payload_at(1), b"q");
    Page::from_bytes(r.as_bytes()).unwrap();
}

/// A keyed page whose keys share the prefix `key-`, and the offset of its
/// first entry's stored record (`[klen][len][suffix][payload]`).
fn two_entry_page() -> (Page, usize) {
    let mut p = Page::new(PageType::Node);
    p.insert(0, b"header").unwrap();
    p.keyed_insert(&Page::make_entry(b"key-a", b"value"))
        .unwrap();
    p.keyed_insert(&Page::make_entry(b"key-b", b"value"))
        .unwrap();
    assert_eq!(p.key_prefix(), b"key-");
    let stored = [&[5, 5][..], b"a", b"value"].concat();
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
    img[rec] = 3;
    assert_corrupt(&img, "longer than a key");
}

#[test]
fn a_prefix_overlapping_the_slot_directory_is_a_typed_error() {
    let p = two_entry_page().0;
    let slots_end = 18 + 2 * p.slot_count() as usize;
    let mut img = p.as_bytes().to_vec();
    set_prefix_len(&mut img, PAGE_SIZE - slots_end + 1);
    assert_corrupt(&img, "overlapping the slot directory");
    // Short of the slot directory, the prefix still overlaps the records.
    set_prefix_len(&mut img, 100);
    assert_corrupt(&img, "overlapping the records");
}

/// The meta record every open decodes: each bit flip and each truncation
/// of an encoded record is a typed error or a record that re-encodes to
/// the same bytes, and a flipped magic is always an error.
#[test]
fn meta_record_flips_and_truncations_are_typed_errors_or_the_same_bytes() {
    let bytes = MetaRecord { max_pages: 1 << 20 }.encode();
    let mut accepted = 0;
    for bit in 0..bytes.len() * 8 {
        let mut m = bytes.clone();
        m[bit / 8] ^= 1 << (bit % 8);
        match MetaRecord::decode(&m) {
            Ok(rec) => {
                assert!(bit >= 32, "bit {bit} of the magic flipped and was accepted");
                assert_eq!(rec.encode(), m, "bit {bit}");
                accepted += 1;
            }
            Err(StoreError::Corrupt(_)) => {}
            Err(e) => panic!("bit {bit}: {e:?}"),
        }
    }
    assert_eq!(
        accepted, 63,
        "every max_pages flip but the one leaving it < 2"
    );
    for len in 0..bytes.len() {
        assert!(
            matches!(
                MetaRecord::decode(&bytes[..len]),
                Err(StoreError::Corrupt(_))
            ),
            "cut to {len} bytes"
        );
    }
    let long = [&bytes[..], &[0]].concat();
    assert!(matches!(
        MetaRecord::decode(&long),
        Err(StoreError::Corrupt(_))
    ));
}

/// A keyed page: a `hlen`-byte raw header in slot 0, then entries whose
/// keys are `prefix` and a distinct byte padded to `klen` bytes, each with
/// a `len`-byte payload.
fn edge_page(hlen: usize, prefix: &[u8], klen: usize, len: usize, n: u8) -> Page {
    let mut p = Page::new(PageType::Node);
    p.insert(0, &vec![0x5a; hlen]).unwrap();
    for i in 0..n {
        let mut key = [prefix, &[b'a' + i]].concat();
        key.resize(klen, b'.');
        p.keyed_insert(&Page::make_entry(&key, &vec![i; len]))
            .unwrap();
    }
    p
}

/// Bytes a varint takes: one below 128, else two.
fn width(v: usize) -> usize {
    if v < 128 {
        1
    } else {
        2
    }
}

/// Key and payload lengths on either side of a length's one-byte limit,
/// with and without a shared key prefix, beside raw headers on either side
/// of it too: every record is stored behind lengths of the width its value
/// needs, reads back whole, and survives a device round trip.
#[test]
fn lengths_at_the_one_byte_limit_read_back_whole() {
    for hlen in [1, 127, 128, 300] {
        for prefix in [&b""[..], b"key-"] {
            for klen in [127, 128, 129] {
                for len in [0, 127, 128] {
                    let p = edge_page(hlen, prefix, klen, len, 3);
                    let q = Page::from_bytes(p.as_bytes()).unwrap();
                    assert_eq!(q.get(0).unwrap(), vec![0x5a; hlen], "the raw header");
                    assert_eq!(q.key_prefix(), prefix);
                    for slot in 1..q.slot_count() {
                        let (key, payload) = (q.entry_key_at(slot), q.entry_payload_at(slot));
                        assert_eq!((key.len(), payload.len()), (klen, len));
                        assert_eq!(q.entry_at(slot), Page::make_entry(&key.to_vec(), payload));
                        assert_eq!(q.keyed_probe(&key.to_vec()), Ok(slot));
                        let stored = width(klen) + width(len) + klen - prefix.len() + len;
                        assert_eq!(q.get(slot).unwrap().len(), stored, "{klen}/{len}");
                    }
                    let used = 2 + width(hlen) + 1 + hlen + prefix.len();
                    let entries = 3 * (2 + width(klen) + width(len) + klen - prefix.len() + len);
                    assert_eq!(q.used_space(), used + entries);
                }
            }
        }
    }
}

/// The two-byte limit, 16,383, is far past a page: an entry with a key or a
/// payload that long, or a raw record, is refused with a typed error and
/// leaves the page as it was; an image whose record claims such a length,
/// or whose lengths run to a third byte or are not in their shortest form,
/// is corrupt.
#[test]
fn lengths_past_a_page_are_typed_errors() {
    const MAX: usize = 16_383;
    let (mut p, rec) = two_entry_page();
    let before = p.as_bytes().to_vec();
    for entry in [
        Page::make_entry(&[b'k'; MAX], b"v"),
        Page::make_entry(b"key-c", &[7; MAX]),
    ] {
        assert!(!p.keyed_fits(&entry));
        assert!(matches!(
            p.keyed_insert(&entry),
            Err(StoreError::PageFull { .. })
        ));
        assert_eq!(p.as_bytes(), &before[..]);
    }
    assert!(matches!(
        p.insert(0, &[0; MAX]),
        Err(StoreError::PageFull { .. })
    ));
    assert!(matches!(
        p.update(0, &[0; MAX]),
        Err(StoreError::PageFull { .. })
    ));
    assert_eq!(p.as_bytes(), &before[..]);
    // `rec` holds the first entry's lengths, 5 and 5.
    for (what, head) in [
        ("a 16,383-byte key", &[0xff, 0x7f][..]),
        ("a 16,383-byte payload", &[5, 0xff, 0x7f]),
        ("a three-byte length", &[0xff, 0xff, 0x01]),
        ("a two-byte 5", &[0x85, 0x00]),
        ("a two-byte 5 for the payload", &[5, 0x85, 0x00]),
    ] {
        let mut img = before.clone();
        img[rec..rec + head.len()].copy_from_slice(head);
        assert_corrupt(&img, what);
    }
}

/// Slot 0's raw header sits among keyed entries: its key must stay empty,
/// a raw write to an entry slot must be a stored entry (the form `get`
/// reads there), and a stored entry copied to another slot is accepted.
#[test]
fn a_raw_record_beside_keyed_entries_keeps_its_framing() {
    let (p, _) = two_entry_page();
    let header = p.get(0).unwrap().to_vec();
    let raw = (0..PAGE_SIZE)
        .find(|&i| p.as_bytes()[i..].starts_with(&[&[0, 6][..], &header].concat()))
        .unwrap();
    let mut img = p.as_bytes().to_vec();
    img[raw] = 1;
    assert_corrupt(&img, "a raw record with a key");
    let mut q = p.clone();
    for bytes in [&b"not an entry"[..], &[], &[5, 5, b'a']] {
        assert!(matches!(q.insert(1, bytes), Err(StoreError::Corrupt(_))));
        assert!(matches!(q.update(1, bytes), Err(StoreError::Corrupt(_))));
    }
    assert_eq!(q.as_bytes(), p.as_bytes());
    let last = q.get(2).unwrap().to_vec();
    q.update(1, &last).unwrap();
    assert_eq!(q.entry_key_at(1).to_vec(), b"key-b");
    Page::from_bytes(q.as_bytes()).unwrap();
    // Re-encodings rebuild the page around the header it keeps.
    let mut r = p.clone();
    r.keyed_insert(&Page::make_entry(b"a", b"shrinks the prefix"))
        .unwrap();
    r.keyed_remove(b"a").unwrap();
    assert_eq!(
        (r.get(0).unwrap(), r.key_prefix()),
        (&header[..], &b"key-"[..])
    );
}

/// Every single-bit flip of a stored keyed page, and every cut of it (a
/// short image, and a torn one: the cut filled with zeros): a typed error
/// or a page every accessor and keyed operation is total on. Flips of the
/// header and the slot directory, which change how the rest is read, go
/// through both doors; flips of the records and the prefix through
/// `Page::from_bytes`, whose validation `Page::adopt` shares. No accessor
/// reads the free space between them, so a flip there is accepted as is.
#[test]
fn every_bit_flip_and_cut_of_a_keyed_page_is_a_typed_error_or_a_total_page() {
    let dev = Device::new("decoder_sweep_flips.db");
    let mut rng = SimRng::new(0xf115);
    let page = edge_page(12, b"key-", 9, 6, 40);
    let img = page.as_bytes();
    let directory = 18 + 2 * page.slot_count() as usize;
    let free = directory..directory + page.contiguous_free_space();
    let mut rejected = 0;
    for bit in 0..PAGE_SIZE * 8 {
        let mut m = img.to_vec();
        m[bit / 8] ^= 1 << (bit % 8);
        let verdict = Page::from_bytes(&m);
        rejected += usize::from(verdict.is_err());
        match verdict {
            Ok(_) if free.contains(&(bit / 8)) => {}
            Err(e) if free.contains(&(bit / 8)) => panic!("bit {bit} is free space: {e:?}"),
            _ if bit / 8 < directory => check_image(&mut rng, &dev, &m),
            Ok(p) => exercise(&mut rng, &p),
            Err(StoreError::Corrupt(_)) => {}
            Err(e) => panic!("bit {bit}: {e:?}"),
        }
    }
    for cut in 0..PAGE_SIZE {
        assert!(matches!(
            Page::from_bytes(&img[..cut]),
            Err(StoreError::Corrupt(_))
        ));
        let mut torn = img.to_vec();
        torn[cut..].fill(0);
        match Page::from_bytes(&torn) {
            Ok(p) => exercise(&mut rng, &p),
            Err(StoreError::Corrupt(_)) => {}
            Err(e) => panic!("cut at {cut}: {e:?}"),
        }
    }
    println!(
        "decoder_sweep: {} single-bit flips of a keyed page holding {} bytes: {rejected} rejected",
        PAGE_SIZE * 8,
        page.used_space()
    );
    assert!(
        rejected >= 8 * directory,
        "{rejected} flips rejected: fewer than the directory's bits"
    );
}

/// A store from before records carried their own lengths — a 4-byte slot of
/// offset and length, meta magic "PIS3" — does not open: its meta page
/// fails page validation, and the old record under the current layout fails
/// the magic. Both are typed errors at `SpaceMap::open`.
#[test]
fn a_pis3_store_is_refused_at_open() {
    let rec = [&b"3SIP"[..], &(1u64 << 20).to_le_bytes()].concat();
    assert_eq!(rec[..4], 0x5049_5333u32.to_le_bytes());
    let open = |img: &[u8]| {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("decoder_sweep_pis3.db");
        std::fs::write(&path, img).unwrap();
        let pool = BufferPool::new(Arc::new(FileDisk::open(&path).unwrap()), 8);
        SpaceMap::open(&pool).map(|_| ())
    };
    // The meta page as the 4-byte-slot layout wrote it: type Meta, one
    // slot, the 12-byte record at the page end.
    let mut old = vec![0u8; PAGE_SIZE];
    old[8] = PageType::Meta as u8;
    old[10..12].copy_from_slice(&1u16.to_le_bytes());
    old[12..14].copy_from_slice(&((PAGE_SIZE - 12) as u16).to_le_bytes());
    old[18..20].copy_from_slice(&((PAGE_SIZE - 12) as u16).to_le_bytes());
    old[20..22].copy_from_slice(&12u16.to_le_bytes());
    old[PAGE_SIZE - 12..].copy_from_slice(&rec);
    assert!(
        matches!(open(&old), Err(StoreError::Corrupt(_))),
        "a 4-byte-slot meta page"
    );
    let mut page = Page::new(PageType::Meta);
    page.insert(0, &rec).unwrap();
    match open(page.as_bytes()) {
        Err(StoreError::Corrupt(what)) => assert!(what.contains("magic"), "{what}"),
        other => panic!("a PIS3 meta record opened: {other:?}"),
    }
    // The record this codec writes opens.
    let mut page = Page::new(PageType::Meta);
    page.insert(0, &MetaRecord { max_pages: 1 << 20 }.encode())
        .unwrap();
    open(page.as_bytes()).unwrap();
}

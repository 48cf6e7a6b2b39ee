//! The hB header decoder sweep: real data-node and index-node headers from a
//! small `multi_struct`-shaped tree (default configuration, the benchmark's
//! point scatter over a 4,096-wide square, transactions of 64), put through
//! every single-bit flip and every truncation. For each mutant,
//! `HbHeader::decode` (the owned decoder splits and postings use) and
//! `HbView::parse` (the borrowed view every read path uses) must each
//! return a value or a typed `StoreError` — never panic — and accept
//! exactly the same byte strings. On every accepted header the view must
//! route like the owned fragment: `HbView::locate` equals `Frag::locate` on
//! a grid of probe points, and `HbView::leaves` visits what `Frag::leaves`
//! lists, in the same order.

use pitree::store::CrashableStore;
use pitree_hb::{Frag, HbConfig, HbHeader, HbTree, HbView, KdLeaf, Point, PtrKind, Rect};
use pitree_pagestore::{PageId, StoreError};
use std::sync::Arc;

/// Points loaded: enough for index nodes that split and carry sibling terms.
const POINTS: u64 = 6_000;
/// Side of the attribute space (`HB_SIDE`).
const SIDE: u64 = 4096;

/// The benchmark's i-th point (`point_for`).
fn point(i: u64) -> Point {
    let mut s = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x2a77;
    let x = pitree_sim::rng::splitmix64(&mut s) % SIDE;
    let y = pitree_sim::rng::splitmix64(&mut s) % SIDE;
    [x, y]
}

/// Load the tree and return the slot-0 bytes of every node, root first.
fn real_headers() -> Vec<Vec<u8>> {
    let cs = CrashableStore::create(4096, 1 << 20).expect("store");
    let tree = HbTree::create(Arc::clone(&cs.store), 1, HbConfig::default()).expect("hb");
    for lo in (0..POINTS).step_by(64) {
        let mut txn = tree.begin();
        for i in lo..(lo + 64).min(POINTS) {
            tree.insert(&mut txn, &point(i), &i.to_be_bytes())
                .expect("insert");
        }
        txn.commit().expect("commit");
    }
    while tree.pending_posts() > 0 {
        tree.run_completions().expect("completions");
    }
    let (mut out, mut stack) = (Vec::new(), vec![tree.root_pid()]);
    let mut seen = pitree_pagestore::sync::FixedSet::default();
    while let Some(pid) = stack.pop() {
        if !seen.insert(pid) {
            continue;
        }
        let pin = cs.store.pool.fetch(pid).expect("fetch");
        let bytes = pin.s().get(0).expect("slot 0").to_vec();
        HbView::parse(&bytes)
            .expect("a real header parses")
            .leaves(|leaf, _| {
                if let KdLeaf::Ptr { pid, .. } = leaf {
                    stack.push(pid);
                }
                Ok(())
            })
            .expect("leaves");
        out.push(bytes);
    }
    out
}

/// The reference leaf as the view names it.
fn as_leaf(f: &Frag) -> KdLeaf {
    match *f {
        Frag::Local => KdLeaf::Local,
        Frag::Ptr {
            kind,
            pid,
            multi_parent,
        } => KdLeaf::Ptr {
            kind,
            pid,
            multi_parent,
        },
        Frag::Split { .. } => panic!("Frag::locate and Frag::leaves yield leaves"),
    }
}

/// Nine evenly spaced coordinates across `[lo, hi)` on each axis, plus the
/// low corner and centre of every leaf region: every leaf gets probed.
fn probes(rect: &Rect, leaves: &[(&Frag, Rect)]) -> Vec<Point> {
    let steps = |d: usize| {
        let (lo, hi) = (rect.lo[d], rect.hi[d]);
        let span = u128::from(hi.saturating_sub(lo));
        (0..9u128).map(move |i| lo + (span * i / 9) as u64)
    };
    let mut out: Vec<Point> = steps(0)
        .flat_map(|x| steps(1).map(move |y| [x, y]))
        .collect();
    for (_, r) in leaves {
        let mid = |d: usize| r.lo[d] + r.hi[d].saturating_sub(r.lo[d]) / 2;
        out.extend([r.lo, [mid(0), mid(1)]]);
    }
    out
}

/// Decode `bytes` both ways and check they agree; returns whether they
/// accepted it.
fn check(bytes: &[u8], what: &str) -> bool {
    let owned = HbHeader::decode(bytes);
    let view = HbView::parse(bytes);
    for err in [owned.as_ref().err(), view.as_ref().err()]
        .into_iter()
        .flatten()
    {
        assert!(
            matches!(err, StoreError::Corrupt(_)),
            "{what}: untyped error {err:?}"
        );
    }
    let (h, v) = match (owned, view) {
        (Ok(h), Ok(v)) => (h, v),
        (Err(_), Err(_)) => return false,
        (h, v) => panic!("{what}: decoders disagree: owned {h:?}, view {v:?}"),
    };
    assert_eq!((v.level(), v.rect()), (h.level, &h.rect), "{what}");
    let mut reference = Vec::new();
    h.frag.leaves(&h.rect, &mut reference);
    let mut visited = Vec::new();
    v.leaves(|leaf, region| {
        visited.push((leaf, region));
        Ok(())
    })
    .expect("a parsed view walks its leaves");
    let expected: Vec<(KdLeaf, Rect)> = reference
        .iter()
        .map(|(leaf, region)| (as_leaf(leaf), region.clone()))
        .collect();
    assert_eq!(visited, expected, "{what}: leaf visit");
    for p in probes(&h.rect, &reference) {
        let (leaf, region) = h.frag.locate(&h.rect, &p);
        let located = v.locate(&p).expect("a parsed view locates");
        assert_eq!(located, (as_leaf(leaf), region), "{what}: locate {p:?}");
    }
    true
}

#[test]
fn hb_header_decoders_agree_under_bit_flips_and_truncation() {
    let headers = real_headers();
    let index: Vec<&Vec<u8>> = headers.iter().filter(|h| h[0] > 0).collect();
    let data: Vec<&Vec<u8>> = headers.iter().filter(|h| h[0] == 0).collect();
    // The index headers must exercise kd splits and sibling terms.
    let siblings = index
        .iter()
        .map(|h| {
            let mut n = 0;
            HbView::parse(h)
                .expect("parse")
                .leaves(|leaf, _| {
                    n += usize::from(matches!(
                        leaf,
                        KdLeaf::Ptr {
                            kind: PtrKind::Sibling,
                            ..
                        }
                    ));
                    Ok(())
                })
                .expect("leaves");
            n
        })
        .sum::<usize>();
    assert!(index.len() >= 3, "only {} index nodes", index.len());
    assert!(siblings > 0, "no index node carries a sibling term");

    let (mut mutants, mut accepted) = (0usize, 0usize);
    for (n, bytes) in index.iter().chain(data.iter().take(8)).enumerate() {
        assert!(check(bytes, &format!("header {n}")), "a real header");
        for len in 0..bytes.len() {
            mutants += 1;
            let what = format!("header {n} cut to {len}");
            assert!(!check(&bytes[..len], &what), "{what}: accepted");
        }
        for bit in 0..bytes.len() * 8 {
            let mut b = bytes.to_vec();
            b[bit / 8] ^= 1 << (bit % 8);
            mutants += 1;
            accepted += usize::from(check(&b, &format!("header {n} bit {bit}")));
        }
    }
    // A flip in the rectangle, a split value, a page id or a multi-parent
    // marker leaves a well-formed header; a flip in a tag, a dimension or a
    // pointer kind does not.
    assert!(
        accepted > 0 && accepted < mutants,
        "{accepted} of {mutants}"
    );
    println!(
        "header_sweep: {} index + {} data headers, {mutants} mutants, {accepted} accepted by both decoders",
        index.len(),
        data.len().min(8)
    );
}

#[test]
fn view_rejects_what_the_owned_decoder_rejects() {
    let split = |dim, lo: Frag, hi: Frag| Frag::Split {
        dim,
        val: 7,
        lo: Box::new(lo),
        hi: Box::new(hi),
    };
    let ptr = Frag::Ptr {
        kind: PtrKind::Sibling,
        pid: PageId(4),
        multi_parent: true,
    };
    let header = |frag| {
        HbHeader {
            level: 1,
            rect: Rect::all(),
            frag,
        }
        .encode()
    };
    let good = header(split(1, Frag::child(PageId(3)), ptr.clone()));
    assert!(check(&good, "good"));
    let mut cases = vec![
        header(split(2, Frag::Local, Frag::Local)),
        good[..good.len() - 1].to_vec(),
        [good.as_slice(), &[1]].concat(),
    ];
    // A bad fragment tag, a bad pointer kind.
    for (at, byte) in [(33, 3), (33 + 10 + 1, 2)] {
        let mut b = good.clone();
        b[at] = byte;
        cases.push(b);
    }
    for (i, b) in cases.iter().enumerate() {
        assert!(!check(b, &format!("case {i}")), "case {i} accepted");
    }
}

//! Simulation tests of the latch manager: U→X promotion under S-reader
//! contention, U's single-holder rule and starvation freedom (§4.1).

use pitree_pagestore::latch::Latch;
use pitree_sim::{prop, SimRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// A latched counter. An X guard hands out no `&mut`, so the counter is
/// an atomic, but [`bump`] reads and writes it in two steps: two holders
/// at once could lose an increment, and the final count would show it.
fn counter() -> Latch<AtomicU64> {
    Latch::new(AtomicU64::new(0))
}

fn bump(c: &AtomicU64) {
    c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

fn read(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

#[test]
fn u_promotes_to_x_under_reader_contention() {
    // Readers churn S latches while a single updater repeatedly takes U,
    // promotes to X (which must drain readers, §4.1's update-mode rule),
    // increments and releases. Every increment must be exclusive.
    const PROMOTIONS: u64 = 200;
    let latch = counter();
    let reads = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let latch = &latch;
            let reads = &reads;
            s.spawn(move || {
                let mut rng = SimRng::new(t);
                loop {
                    let g = latch.s();
                    let v = read(&g);
                    drop(g);
                    reads.fetch_add(1, Ordering::Relaxed);
                    if v >= PROMOTIONS {
                        break;
                    }
                    if rng.chance(0.2) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        s.spawn(|| {
            for _ in 0..PROMOTIONS {
                let u = latch.u();
                bump(&u.promote());
            }
        });
    });
    assert_eq!(read(&latch.s()), PROMOTIONS);
    assert!(reads.load(Ordering::Relaxed) > 0, "readers made progress");
}

#[test]
fn u_is_single_holder_but_compatible_with_s() {
    let latch = Latch::new(());
    let u = latch.u();
    // A second U (and any X) must be refused while U is held…
    assert!(latch.try_u().is_none(), "U is single-holder");
    assert!(latch.try_x().is_none(), "X conflicts with U");
    // …but readers still get through (that is U's whole point).
    assert!(latch.try_s().is_some(), "S is compatible with U");
    drop(u);
    assert!(latch.try_u().is_some());
}

#[test]
fn promotion_waits_for_readers_and_blocks_new_ones() {
    // A reader pins the latch; the updater's promotion must complete only
    // after the reader leaves, and must not be starved by late readers.
    let latch = counter();
    let promoted = AtomicU64::new(0);
    std::thread::scope(|s| {
        let reader = latch.s();
        let h = s.spawn(|| {
            let u = latch.u();
            let x = u.promote(); // blocks until the reader drops
            bump(&x);
            promoted.store(1, Ordering::SeqCst);
        });
        while latch.parked() == 0 {
            std::thread::yield_now(); // the updater has not blocked yet
        }
        assert_eq!(
            promoted.load(Ordering::SeqCst),
            0,
            "promotion cannot finish under S"
        );
        assert!(
            latch.try_s().is_none(),
            "a pending promotion bars new readers"
        );
        drop(reader);
        h.join().unwrap();
    });
    assert_eq!(read(&latch.s()), 1);
}

#[test]
fn seeded_mixed_mode_storm_stays_consistent() {
    // A seeded storm of S/U/X/try acquisitions over one latch-protected
    // counter: X and promoted-U increments are exclusive, so the final value
    // must equal the number of successful increments.
    prop::run_cases("latch_mixed_mode_storm", 8, |rng| {
        let latch = counter();
        let expected = AtomicU64::new(0);
        let seeds: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        std::thread::scope(|s| {
            for &seed in &seeds {
                let latch = &latch;
                let expected = &expected;
                s.spawn(move || {
                    let mut rng = SimRng::new(seed);
                    for _ in 0..300 {
                        match rng.below(5) {
                            0 => {
                                bump(&latch.x());
                                expected.fetch_add(1, Ordering::Relaxed);
                            }
                            1 => {
                                let u = latch.u();
                                if rng.chance(0.5) {
                                    bump(&u.promote());
                                    expected.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            2 => {
                                if let Some(x) = latch.try_x() {
                                    bump(&x);
                                    expected.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            3 => {
                                let _ = latch.try_s().map(|g| read(&g));
                            }
                            _ => {
                                let _ = read(&latch.s());
                            }
                        }
                        if rng.chance(0.1) {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(read(&latch.s()), expected.load(Ordering::Relaxed));
    });
}

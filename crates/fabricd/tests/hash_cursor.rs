//! The journal's sealed hash cursor is pure bookkeeping: whatever mix of
//! `push`, `seal`, `compact_to`, `clone` and `with_base` restarts a journal
//! goes through, `hash()` equals a from-scratch FNV-1a fold over the
//! canonical header line and every record ever pushed — the fold
//! `Journal::hash` performed before the cursor existed, kept here verbatim
//! as the oracle.

use desim::SimTime;
use fabricd::{Journal, JournalEntry, JournalHeader, Record};
use proptest::prelude::*;
use topo::{Coord3, Shape3};

fn header() -> JournalHeader {
    JournalHeader {
        racks: 1,
        lanes: 2,
        seed: 7,
        shape: Shape3::rack_4x4x4(),
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// The oracle: fold the header line, then `"\n" + canon` per record.
fn oracle(h: &JournalHeader, history: &[Record]) -> u64 {
    let line = format!(
        "journal racks={} lanes={} seed={} shape={}",
        h.racks, h.lanes, h.seed, h.shape
    );
    let mut fnv = fnv1a(FNV_OFFSET, line.as_bytes());
    for r in history {
        fnv = fnv1a(fnv, b"\n");
        fnv = fnv1a(fnv, r.canon().as_bytes());
    }
    fnv
}

/// A decision derived from one random word; about one in four is a
/// `Snapshot`, so compaction watermarks are plentiful.
fn entry(x: u32) -> JournalEntry {
    let job = x >> 8;
    match x % 4 {
        0 => JournalEntry::Snapshot {
            fingerprint: u64::from(x).wrapping_mul(0x9e37_79b9),
        },
        1 => JournalEntry::Admit {
            job,
            origin: Coord3::new(0, 0, (x % 3) as usize),
            extent: Shape3::new(2, 2, 1),
        },
        2 => JournalEntry::Program {
            job,
            circuits: (x % 17) as usize,
            batches: 1,
            cross: 0,
        },
        _ => JournalEntry::Evict { job },
    }
}

/// Sequence numbers of retained `Snapshot` records, i.e. legal watermarks.
fn snapshot_seqs(j: &Journal) -> Vec<u64> {
    j.records()
        .iter()
        .filter(|r| matches!(r.entry, JournalEntry::Snapshot { .. }))
        .map(|r| r.seq)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every step of a random op sequence, the journal's hash and
    /// logical length match the oracle over the full history.
    #[test]
    fn hash_matches_a_from_scratch_fold(
        ops in prop::collection::vec((0u8..8, any::<u32>()), 1..120),
    ) {
        let h = header();
        let mut j = Journal::new(h);
        let mut history: Vec<Record> = Vec::new();
        for (step, (op, x)) in ops.into_iter().enumerate() {
            match op {
                // push (weighted: half of all ops)
                0..=3 => {
                    let e = entry(x);
                    let seq = j.push(SimTime::from_ps(u64::from(x)), e.clone());
                    history.push(Record { seq, at: SimTime::from_ps(u64::from(x)), entry: e });
                }
                4 => {
                    prop_assert_eq!(j.seal(), oracle(&h, &history), "seal at step {}", step);
                }
                5 => {
                    let marks = snapshot_seqs(&j);
                    if let Some(&w) = marks.get(x as usize % marks.len().max(1)) {
                        let old_base = j.base_seq();
                        let dropped = j.compact_to(w).map_err(TestCaseError::Fail)?;
                        prop_assert_eq!(dropped as u64, w - old_base);
                        prop_assert_eq!(j.base_seq(), w);
                        let prefix = history.get(..w as usize).unwrap_or(&history);
                        prop_assert_eq!(j.base_fnv(), oracle(&h, prefix));
                    }
                    // A watermark off a Snapshot record is refused, unchanged.
                    let bad = j.next_seq() + 1;
                    prop_assert!(j.compact_to(bad).is_err());
                }
                6 => {
                    let copy = j.clone();
                    prop_assert!(copy == j, "clone compares equal");
                    j = copy;
                }
                _ => {
                    // Crash restart: resume at the newest retained snapshot
                    // (or at the end) and re-push the retained tail above it.
                    let at = snapshot_seqs(&j).last().copied().unwrap_or(j.next_seq());
                    let prefix = history.get(..at as usize).unwrap_or(&history);
                    let mut resumed = Journal::with_base(h, at, oracle(&h, prefix));
                    for r in j.records().iter().filter(|r| r.seq >= at) {
                        resumed.push(r.at, r.entry.clone());
                    }
                    j = resumed;
                }
            }
            prop_assert_eq!(j.hash(), oracle(&h, &history), "hash after step {}", step);
            prop_assert_eq!(j.len(), history.len());
        }
    }

    /// Two journals with the same records but different seal points
    /// compare equal and hash equal.
    #[test]
    fn seal_points_are_invisible(
        xs in prop::collection::vec(any::<u32>(), 1..60),
        seal_mask in any::<u64>(),
    ) {
        let mut a = Journal::new(header());
        let mut b = Journal::new(header());
        for (i, x) in xs.iter().enumerate() {
            a.push(SimTime::from_ps(i as u64), entry(*x));
            b.push(SimTime::from_ps(i as u64), entry(*x));
            if seal_mask >> (i % 64) & 1 == 1 {
                b.seal();
            }
        }
        prop_assert!(a == b, "equal history compares equal");
        prop_assert_eq!(a.hash(), b.hash());
        b.seal();
        prop_assert!(a == b, "a fully sealed journal still compares equal");
        prop_assert_eq!(a.hash(), b.hash());
    }

    /// Compacting at a sealed watermark (the cursor is reused as-is) and at
    /// an unsealed one (the prefix is refolded) yields the same base fold.
    #[test]
    fn sealed_and_unsealed_compaction_agree(
        xs in prop::collection::vec(any::<u32>(), 1..60),
        pick in any::<u32>(),
    ) {
        let mut plain = Journal::new(header());
        for (i, x) in xs.iter().enumerate() {
            plain.push(SimTime::from_ps(i as u64), entry(*x));
        }
        let marks = snapshot_seqs(&plain);
        prop_assume!(!marks.is_empty());
        let w = marks.get(pick as usize % marks.len()).copied().unwrap_or(0);

        // Sealed exactly at the watermark, as a capture leaves it.
        let mut sealed = Journal::new(header());
        for (i, x) in xs.iter().enumerate() {
            if i as u64 == w {
                sealed.seal();
            }
            sealed.push(SimTime::from_ps(i as u64), entry(*x));
        }
        // Sealed past the watermark: compaction must refold from the base.
        let mut over = plain.clone();
        over.seal();

        let want = plain.hash();
        for j in [&mut plain, &mut sealed, &mut over] {
            j.compact_to(w).map_err(TestCaseError::Fail)?;
        }
        prop_assert_eq!(sealed.base_fnv(), plain.base_fnv());
        prop_assert_eq!(over.base_fnv(), plain.base_fnv());
        prop_assert!(sealed == plain && over == plain);
        for j in [&plain, &sealed, &over] {
            prop_assert_eq!(j.hash(), want);
        }
    }
}

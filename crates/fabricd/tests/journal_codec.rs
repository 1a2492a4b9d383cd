//! Every record kind's canonical line, the journal hash and the
//! `--dump-journal` JSON, derived from one field list per kind, equal the
//! hand-written encoders they replaced (`support/journal_oracle.rs`) on
//! journals of random entries of all twelve kinds. The draws lean on the
//! edges: error text with quotes, backslashes, newlines and control
//! bytes; no victim; microseconds that round at the third decimal;
//! fingerprints 0 and `u64::MAX`; and stitch admissions with 0, 1 and
//! several legs and ports. No pinned journal holds a `repair-failed`
//! record, so this is that kind's only guard.

#[path = "support/journal_oracle.rs"]
mod journal_oracle;

use desim::fnv::Fnv;
use desim::{SimRng, SimTime};
use fabricd::{
    DenyReason, Journal, JournalEntry, JournalHeader, Record, StitchLegRecord, LEG_ID_BIT,
};
use proptest::prelude::*;
use topo::{Coord3, Shape3};

/// Characters the error text is drawn from: the JSON escapes, control
/// bytes, the snapshot codec's escapes, and multi-byte UTF-8.
const TEXT: [char; 16] = [
    'a', 'Z', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'µ', '=',
    ']', '/',
];

fn header(seed: u64) -> JournalHeader {
    JournalHeader {
        racks: (seed % 5) as usize,
        lanes: (seed % 3) as usize + 1,
        seed,
        shape: Shape3::new(4, 4, (seed % 16) as usize + 1),
    }
}

fn coord(rng: &mut SimRng) -> Coord3 {
    Coord3::new(
        rng.gen_range_usize(64),
        rng.gen_range_usize(64),
        rng.gen_range_usize(1 << 20),
    )
}

fn shape(rng: &mut SimRng) -> Shape3 {
    Shape3::new(
        rng.gen_range_usize(8) + 1,
        rng.gen_range_usize(8) + 1,
        rng.gen_range_usize(64) + 1,
    )
}

fn count(rng: &mut SimRng) -> usize {
    match rng.gen_range_u64(3) {
        0 => 0,
        1 => rng.gen_range_usize(100),
        _ => rng.next_u64() as usize,
    }
}

/// Microseconds: half-thousandths (which round at the third decimal),
/// the paper's 3.7 µs settle, or any bit pattern at all.
fn micros(rng: &mut SimRng) -> f64 {
    match rng.gen_range_u64(3) {
        0 => rng.gen_range_u64(20_000) as f64 * 0.0005,
        1 => 3.7,
        _ => f64::from_bits(rng.next_u64()),
    }
}

fn text(rng: &mut SimRng) -> String {
    let len = rng.gen_range_usize(12);
    (0..len).map(|_| *rng.choose(&TEXT)).collect()
}

/// One entry of kind `kind % 12`, its fields drawn from `rng`.
fn entry(kind: u8, rng: &mut SimRng) -> JournalEntry {
    let job = rng.next_u64() as u32;
    match kind % 12 {
        0 => JournalEntry::Admit {
            job,
            origin: coord(rng),
            extent: shape(rng),
        },
        1 => JournalEntry::Deny {
            job,
            shape: shape(rng),
            reason: if rng.gen_bool(0.5) {
                DenyReason::QueueTimeout
            } else {
                DenyReason::ProgramFailed
            },
        },
        2 => JournalEntry::Program {
            job,
            circuits: count(rng),
            batches: count(rng),
            cross: count(rng),
        },
        3 => JournalEntry::Reconfigure {
            job,
            micros: micros(rng),
        },
        4 => JournalEntry::Fail {
            incident: rng.next_u64(),
            chip: coord(rng),
            victim: rng.gen_bool(0.5).then_some(job),
            spliced: count(rng),
        },
        5 => JournalEntry::Repair {
            incident: rng.next_u64(),
            replacement: coord(rng),
            circuits: count(rng),
            servers_touched: count(rng),
            blast_servers: count(rng),
        },
        6 => JournalEntry::RepairFailed {
            incident: rng.next_u64(),
            replacement: coord(rng),
            error: text(rng),
        },
        7 => {
            let codes = lightpath::fault::CODES;
            JournalEntry::Reject {
                job,
                shape: shape(rng),
                attempt: rng.next_u64() as u32,
                code: codes[rng.gen_range_usize(codes.len())],
            }
        }
        8 => JournalEntry::Rollback {
            job,
            attempt: rng.next_u64() as u32,
            circuits: count(rng),
        },
        9 => JournalEntry::Evict { job },
        10 => {
            let any = rng.next_u64();
            JournalEntry::Snapshot {
                fingerprint: *rng.choose(&[0, u64::MAX, any]),
            }
        }
        _ => {
            let legs = (0..rng.gen_range_usize(4))
                .map(|i| StitchLegRecord {
                    leg: LEG_ID_BIT | job << 4 | i as u32,
                    group: rng.next_u64(),
                    origin: coord(rng),
                    extent: shape(rng),
                })
                .collect();
            let ports = (0..rng.gen_range_usize(6))
                .map(|_| rng.next_u64() as u32)
                .collect();
            JournalEntry::MultiGroupAdmit {
                job,
                extent: shape(rng),
                legs,
                ports,
            }
        }
    }
}

/// FNV-1a over the oracle's header line, then `"\n"` and the oracle's
/// line per record.
fn oracle_hash(h: &JournalHeader, history: &[Record]) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write_bytes(journal_oracle::header_canon(h).as_bytes());
    for r in history {
        fnv.write_bytes(b"\n")
            .write_bytes(journal_oracle::record_canon(r).as_bytes());
    }
    fnv.finish()
}

/// The oracle's dump with the two `repair` keys the field list renames to
/// their canonical spelling.
fn oracle_json(j: &Journal) -> String {
    journal_oracle::to_json(j)
        .replace("\"servers_touched\": ", "\"servers\": ")
        .replace("\"blast_servers\": ", "\"blast\": ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random pushes, seals and compactions: every line, kind, hash and
    /// dump matches the oracle's.
    #[test]
    fn field_list_writers_match_the_hand_written_oracle(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..24, any::<u64>()), 1..60),
    ) {
        let h = header(seed);
        let mut j = Journal::new(h);
        let mut history: Vec<Record> = Vec::new();
        for (step, (op, x)) in ops.into_iter().enumerate() {
            match op {
                0..=19 => {
                    let mut rng = SimRng::seed_from_u64(x);
                    let e = entry(op, &mut rng);
                    let at = SimTime::from_ps(x >> 8);
                    let seq = j.push(at, e.clone());
                    let r = Record { seq, at, entry: e };
                    prop_assert_eq!(r.canon(), journal_oracle::record_canon(&r));
                    prop_assert_eq!(r.entry.kind(), journal_oracle::kind(&r.entry));
                    history.push(r);
                }
                20 | 21 => {
                    prop_assert_eq!(j.seal(), oracle_hash(&h, &history), "seal at step {}", step);
                }
                _ => {
                    let marks: Vec<u64> = j
                        .records()
                        .iter()
                        .filter(|r| matches!(r.entry, JournalEntry::Snapshot { .. }))
                        .map(|r| r.seq)
                        .collect();
                    if let Some(&w) = marks.get(x as usize % marks.len().max(1)) {
                        j.compact_to(w).map_err(TestCaseError::Fail)?;
                        let prefix = history.get(..w as usize).unwrap_or(&history);
                        prop_assert_eq!(j.base_fnv(), oracle_hash(&h, prefix));
                    }
                }
            }
            prop_assert_eq!(j.hash(), oracle_hash(&h, &history), "hash after step {}", step);
            prop_assert_eq!(j.to_json(), oracle_json(&j), "dump after step {}", step);
        }
    }
}

/// Every edge the property draws, pushed once in one journal, so each is
/// covered whatever the random stream does.
#[test]
fn every_kind_and_edge_matches_the_oracle() {
    let legs = |n: u32| -> Vec<StitchLegRecord> {
        (0..n)
            .map(|i| StitchLegRecord {
                leg: LEG_ID_BIT | 9 << 4 | i,
                group: u64::from(i) + 1,
                origin: Coord3::new(0, 0, 4 * i as usize),
                extent: Shape3::new(4, 4, 4),
            })
            .collect()
    };
    let mut entries = vec![
        JournalEntry::Admit {
            job: 1,
            origin: Coord3::new(0, 1, 2),
            extent: Shape3::new(4, 2, 1),
        },
        JournalEntry::Deny {
            job: 2,
            shape: Shape3::new(1, 1, 1),
            reason: DenyReason::QueueTimeout,
        },
        JournalEntry::Deny {
            job: 2,
            shape: Shape3::new(2, 2, 2),
            reason: DenyReason::ProgramFailed,
        },
        JournalEntry::Program {
            job: 1,
            circuits: 8,
            batches: 2,
            cross: 1,
        },
        JournalEntry::Fail {
            incident: 0,
            chip: Coord3::new(3, 3, 3),
            victim: None,
            spliced: 0,
        },
        JournalEntry::Fail {
            incident: 1,
            chip: Coord3::new(0, 0, 0),
            victim: Some(1),
            spliced: 2,
        },
        JournalEntry::Repair {
            incident: 1,
            replacement: Coord3::new(0, 0, 3),
            circuits: 6,
            servers_touched: 2,
            blast_servers: 1,
        },
        JournalEntry::RepairFailed {
            incident: 1,
            replacement: Coord3::new(0, 0, 3),
            error: "say \"no\"\\\n\r\t\u{0}\u{1f}\u{7f}µ=]".into(),
        },
        JournalEntry::RepairFailed {
            incident: 2,
            replacement: Coord3::new(1, 0, 3),
            error: String::new(),
        },
        JournalEntry::Reject {
            job: 4,
            shape: Shape3::new(4, 2, 1),
            attempt: 1,
            code: "circuit/insufficient-tx-lanes",
        },
        JournalEntry::Rollback {
            job: 4,
            attempt: 1,
            circuits: 3,
        },
        JournalEntry::Evict { job: 1 },
        JournalEntry::Snapshot { fingerprint: 0 },
        JournalEntry::Snapshot {
            fingerprint: u64::MAX,
        },
    ];
    for micros in [3.7, 0.0005, 0.0015, 1.0005, 2.4995, 9.9995, -0.0005, 0.0] {
        entries.push(JournalEntry::Reconfigure { job: 1, micros });
    }
    for (n_legs, ports) in [(0, vec![]), (1, vec![7]), (3, vec![0, 1, 2, u32::MAX])] {
        entries.push(JournalEntry::MultiGroupAdmit {
            job: 9,
            extent: Shape3::new(4, 4, 4 * n_legs as usize),
            legs: legs(n_legs),
            ports,
        });
    }
    let h = header(7);
    let mut j = Journal::new(h);
    for (i, e) in entries.into_iter().enumerate() {
        j.push(SimTime::from_ps(i as u64 * 1_000_003), e);
    }
    for r in j.records() {
        assert_eq!(r.canon(), journal_oracle::record_canon(r));
        assert_eq!(r.entry.kind(), journal_oracle::kind(&r.entry));
    }
    let kinds: std::collections::BTreeSet<&str> =
        j.records().iter().map(|r| r.entry.kind()).collect();
    assert_eq!(kinds.len(), 12, "{kinds:?}");
    assert_eq!(j.hash(), oracle_hash(&h, j.records()));
    assert_eq!(j.to_json(), oracle_json(&j));
    let json = j.to_json();
    assert!(json.contains("\"servers\": 2, \"blast\": 1"), "{json}");
    assert!(!json.contains("servers_touched"), "{json}");
}

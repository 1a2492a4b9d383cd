//! Property-based tests of the kernel's invariants.

use desim::{
    Engine, Histogram, OnlineStats, SimDuration, SimRng, SimTime, SnapReader, SnapWriter,
    TimeSeries,
};
use proptest::prelude::*;

proptest! {
    /// Events execute in non-decreasing time order, FIFO among ties,
    /// regardless of insertion order.
    #[test]
    fn engine_executes_in_time_order(times in prop::collection::vec(0u64..1_000, 1..100)) {
        let mut engine: Engine<Vec<(u64, usize)>> = Engine::new();
        let mut log: Vec<(u64, usize)> = Vec::new();
        for (idx, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_ps(t), move |m: &mut Vec<(u64, usize)>, e| {
                m.push((e.now().as_ps(), idx));
            });
        }
        engine.run(&mut log);
        prop_assert_eq!(log.len(), times.len());
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO among ties");
            }
        }
        // Each event ran at exactly its scheduled time.
        for &(at, idx) in &log {
            prop_assert_eq!(at, times[idx]);
        }
    }

    /// Cancelling an arbitrary subset prevents exactly that subset.
    #[test]
    fn engine_cancellation_is_exact(
        times in prop::collection::vec(0u64..1_000, 1..60),
        cancel_mask in prop::collection::vec(any::<bool>(), 60),
    ) {
        let mut engine: Engine<Vec<usize>> = Engine::new();
        let mut log: Vec<usize> = Vec::new();
        let mut ids = Vec::new();
        for (idx, &t) in times.iter().enumerate() {
            let id = engine.schedule_at(SimTime::from_ps(t), move |m: &mut Vec<usize>, _| {
                m.push(idx);
            });
            ids.push(id);
        }
        let mut cancelled = Vec::new();
        for (idx, id) in ids.iter().enumerate() {
            if cancel_mask[idx % cancel_mask.len()] && idx % 2 == 0 {
                engine.cancel(*id);
                cancelled.push(idx);
            }
        }
        engine.run(&mut log);
        for idx in &cancelled {
            prop_assert!(!log.contains(idx), "cancelled event {idx} ran");
        }
        prop_assert_eq!(log.len() + cancelled.len(), times.len());
    }

    /// The RNG's bounded draws always respect their bounds.
    #[test]
    fn rng_bounds_hold(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(rng.gen_range_u64(bound) < bound);
            let f = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&f));
        }
    }

    /// Shuffling preserves the multiset.
    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), mut v in prop::collection::vec(0u32..100, 0..50)) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut orig = v.clone();
        rng.shuffle(&mut v);
        v.sort_unstable();
        orig.sort_unstable();
        prop_assert_eq!(v, orig);
    }

    /// OnlineStats merge equals sequential accumulation at any split point.
    #[test]
    fn stats_merge_associative(
        data in prop::collection::vec(-1e6f64..1e6, 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(data.len());
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..split] {
            a.push(x);
        }
        for &x in &data[split..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * whole.mean().abs().max(1.0));
        prop_assert!((a.variance() - whole.variance()).abs() <= 1e-5 * whole.variance().abs().max(1.0));
    }

    /// Histogram counts are conserved: in-range + underflow + overflow = n.
    #[test]
    fn histogram_conserves_counts(data in prop::collection::vec(-2.0f64..3.0, 0..300)) {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for &x in &data {
            h.record(x);
        }
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), data.len() as u64);
    }

    /// Time-series interpolation is bounded by the sample extrema.
    #[test]
    fn timeseries_sample_within_bounds(
        vals in prop::collection::vec(-100.0f64..100.0, 2..50),
        at in 0.0f64..50.0,
    ) {
        let mut ts = TimeSeries::new();
        for (i, &v) in vals.iter().enumerate() {
            ts.push(i as f64, v);
        }
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let s = ts.sample(at).unwrap();
        prop_assert!(s >= lo - 1e-9 && s <= hi + 1e-9);
    }

    /// Duration arithmetic: (a + b) - b == a for non-overflowing values.
    #[test]
    fn duration_add_sub_roundtrip(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let da = SimDuration::from_ps(a);
        let db = SimDuration::from_ps(b);
        prop_assert_eq!((da + db) - db, da);
        prop_assert_eq!(da.saturating_sub(da), SimDuration::ZERO);
    }
}

/// The snapshot writer's bytes for each number kind, with the allocating
/// `to_string`/`format!` encoders it replaced kept as the oracle, and the
/// values read back through the strict reader.
fn check_numbers(u: u64, i: i64, bits: u64) -> Result<(), TestCaseError> {
    let mut w = SnapWriter::new();
    w.u64("u", u);
    w.i64("i", i);
    w.f64("f", f64::from_bits(bits));
    let text = w.finish();
    let mut oracle = String::new();
    for (key, v) in [
        ("u", u.to_string()),
        ("i", i.to_string()),
        ("f", format!("{:016x}", f64::from_bits(bits).to_bits())),
    ] {
        oracle.push_str(key);
        oracle.push('=');
        oracle.push_str(&v);
        oracle.push('\n');
    }
    prop_assert_eq!(&text, &oracle);
    let mut r = SnapReader::new(&text);
    prop_assert_eq!(r.u64("u"), Ok(u));
    prop_assert_eq!(r.i64("i"), Ok(i));
    prop_assert_eq!(r.f64("f").map(f64::to_bits), Ok(bits));
    prop_assert_eq!(r.done(), Ok(()));
    Ok(())
}

/// The escaping the writer replaced: one `push` or `push_str` per char.
fn escaped_oracle(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            ']' => out.push_str("\\b"),
            '=' => out.push_str("\\e"),
            _ => out.push(c),
        }
    }
    out
}

/// Characters for generated keys and values: every escaped one, plain
/// ASCII, and multi-byte UTF-8 next to them.
const SNAP_CHARS: [char; 10] = ['\\', '\n', '\r', ']', '=', 'a', 'Z', '_', '0', 'é'];

fn snap_string(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&k| SNAP_CHARS.get(k).copied().unwrap_or('?'))
        .collect()
}

proptest! {
    /// Random bit patterns of every number kind encode exactly as the old
    /// allocating encoders did and decode to the same value.
    #[test]
    fn snap_numbers_match_the_to_string_oracle(
        u in any::<u64>(),
        i in any::<i64>(),
        bits in any::<u64>(),
    ) {
        check_numbers(u, i, bits)?;
        // Short values too: random draws are almost all 19-20 digits wide.
        check_numbers(u % 1_000, i % 1_000, bits >> (u % 64))?;
    }

    /// Keys, section names and string values containing `\\`, `\n`, `\r`,
    /// `]` or `=` are still escaped char for char, and decode losslessly.
    #[test]
    fn snap_strings_match_the_escaping_oracle(
        key in prop::collection::vec(0usize..SNAP_CHARS.len(), 1..12),
        value in prop::collection::vec(0usize..SNAP_CHARS.len(), 0..12),
    ) {
        let (key, value) = (snap_string(&key), snap_string(&value));
        let mut w = SnapWriter::new();
        w.section(&key);
        w.str(&key, &value);
        w.u64(&key, 7);
        let text = w.finish();
        let k = escaped_oracle(&key);
        let oracle = format!("[{k}]\n{k}={}\n{k}=7\n", escaped_oracle(&value));
        prop_assert_eq!(&text, &oracle);
        prop_assert_eq!(text.lines().count(), 3);
        let mut r = SnapReader::new(&text);
        prop_assert_eq!(r.section(&key), Ok(()));
        prop_assert_eq!(r.str(&key), Ok(value));
        prop_assert_eq!(r.u64(&key), Ok(7));
        prop_assert_eq!(r.done(), Ok(()));
    }
}

/// The edges random draws rarely hit: digit-count boundaries, the extreme
/// integers, signed zeros, infinities, NaN payloads and subnormals.
#[test]
fn snap_number_edges_match_the_to_string_oracle() {
    let ints = [
        0,
        1,
        9,
        10,
        99,
        100,
        999_999,
        1_000_000,
        u64::MAX - 1,
        u64::MAX,
    ];
    let signed = [0, -1, 1, -9, -10, 9, 10, i64::MIN, i64::MIN + 1, i64::MAX];
    let floats = [
        0.0f64.to_bits(),
        (-0.0f64).to_bits(),
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        f64::NAN.to_bits(),
        0x7ff0_0000_0000_0001, // signalling NaN, lowest payload
        0xfff8_dead_beef_0001, // negative quiet NaN with a payload
        1,                     // smallest subnormal
        0x000f_ffff_ffff_ffff, // largest subnormal
        f64::MIN_POSITIVE.to_bits(),
        f64::MAX.to_bits(),
        u64::MAX,
    ];
    for ((&u, &i), &bits) in ints.iter().zip(&signed).zip(&floats) {
        if let Err(e) = check_numbers(u, i, bits) {
            panic!("{u} / {i} / {bits:#x}: {e:?}");
        }
    }
    for &bits in floats.iter().skip(ints.len()) {
        if let Err(e) = check_numbers(0, 0, bits) {
            panic!("{bits:#x}: {e:?}");
        }
    }
}

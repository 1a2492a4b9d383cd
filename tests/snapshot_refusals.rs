//! Restored queues are refused, never resumed and never a panic, and so are
//! a ctrl capture off its cadence, a pod capture off its epoch barrier and
//! a list count larger than the entries that follow it. Each case edits
//! one line, or every line ending, of a real snapshot artifact's body and
//! re-seals it, so the structural checks of the snapshot reader, the
//! admission engine's codec and restore — not the integrity fingerprint —
//! must catch it. Both artifact kinds carry the same engine block, with
//! its fabric capture as a `[fabric]` section: the ctrl campaign's
//! `[campaign]` section and every `[shard]` section of a pod snapshot.
//! Both also share one header, `<tag> fnv=<16 hex>`, and a header spelled
//! any way the writer never prints it, or naming an older layout, is
//! refused too.

use fabricd::{report::bench_config, resume_campaign, run_campaign, CampaignOptions, CtrlSnapshot};
use pod::{resume_pod, run_pod_with, PodConfig, PodOptions, PodSnapshot, PolicyKind};

/// Apply `edit` to the artifact body and re-seal the header FNV.
fn reseal(text: &str, edit: impl Fn(&[&str]) -> Vec<String>) -> String {
    let (head, body) = text.split_once('\n').expect("artifact has a header line");
    let (magic, _) = head.split_once(" fnv=").expect("header carries an fnv");
    let lines: Vec<&str> = body.lines().collect();
    let mut edited = edit(&lines).join("\n");
    if body.ends_with('\n') {
        edited.push('\n');
    }
    assert_ne!(edited, body, "the edit must change the body");
    desim::snap::seal(magic, &edited)
}

fn value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.strip_prefix(key)?.strip_prefix('=')
}

/// Index of the first `key=` line at or after `from`.
fn find(lines: &[&str], from: usize, key: &str) -> usize {
    (from..lines.len())
        .find(|&i| value(lines[i], key).is_some())
        .unwrap_or_else(|| panic!("no {key}= line after line {from}"))
}

/// Start of the first engine block whose `events=` count is at least
/// `min_events` (the line index of its `event_seq=`).
fn block_with_events(lines: &[&str], min_events: u64) -> usize {
    let mut at = 0;
    loop {
        let seq = find(lines, at, "event_seq");
        let events = find(lines, seq, "events");
        let n: u64 = value(lines[events], "events").unwrap().parse().unwrap();
        if n >= min_events {
            return seq;
        }
        at = events + 1;
    }
}

fn owned(lines: &[&str]) -> Vec<String> {
    lines.iter().map(|l| l.to_string()).collect()
}

/// An event seq at the insertion counter.
fn seq_at_counter(lines: &[&str]) -> Vec<String> {
    let block = block_with_events(lines, 1);
    let counter = value(lines[block], "event_seq").unwrap();
    let seq = find(lines, block, "seq");
    let mut out = owned(lines);
    out[seq] = format!("seq={counter}");
    out
}

/// The second pending event given the first one's `(at, seq)` key.
fn duplicate_key(lines: &[&str]) -> Vec<String> {
    let block = block_with_events(lines, 2);
    let (at1, seq1) = (find(lines, block, "at"), find(lines, block, "seq"));
    let (at2, seq2) = (find(lines, seq1 + 1, "at"), find(lines, seq1 + 1, "seq"));
    let mut out = owned(lines);
    out[at2] = lines[at1].to_string();
    out[seq2] = lines[seq1].to_string();
    out
}

/// An event kind no engine ever wrote.
fn unknown_kind(lines: &[&str]) -> Vec<String> {
    let kind = find(lines, block_with_events(lines, 1), "kind");
    let mut out = owned(lines);
    out[kind] = "kind=9".to_string();
    out
}

/// A queue count one larger than the entries that follow.
fn queue_overcount(lines: &[&str]) -> Vec<String> {
    let queue = find(lines, 0, "queue");
    let n: u64 = value(lines[queue], "queue").unwrap().parse().unwrap();
    let mut out = owned(lines);
    out[queue] = format!("queue={}", n + 1);
    out
}

/// The queue count with a `+` sign, which `str::parse` accepts.
fn queue_plus_sign(lines: &[&str]) -> Vec<String> {
    let queue = find(lines, 0, "queue");
    let mut out = owned(lines);
    out[queue] = format!("queue=+{}", value(lines[queue], "queue").unwrap());
    out
}

/// The queue count with a leading zero, which `str::parse` accepts.
fn queue_leading_zero(lines: &[&str]) -> Vec<String> {
    let queue = find(lines, 0, "queue");
    let mut out = owned(lines);
    out[queue] = format!("queue=0{}", value(lines[queue], "queue").unwrap());
    out
}

/// The line holding the first `key` at or after line `from` inside an
/// escaped text value (`metrics=` or a fabric capture's `state=`), as
/// `(line, text up to the value, value, text after it)`.
fn escaped<'a>(lines: &[&'a str], from: usize, key: &str) -> (usize, &'a str, &'a str, &'a str) {
    let key = format!("\\n{key}\\e");
    let at = (from..lines.len())
        .find(|&i| lines[i].contains(&key))
        .unwrap_or_else(|| panic!("no escaped {key} after line {from}"));
    let start = lines[at].find(&key).unwrap() + key.len();
    let end = start + lines[at][start..].find('\\').unwrap();
    let line = lines[at];
    (at, &line[..start], &line[start..end], &line[end..])
}

/// The first escaped `key` at or after line `from`, its value replaced by
/// `value(old)`.
fn edit_escaped(
    lines: &[&str],
    from: usize,
    key: &str,
    value: impl Fn(&str) -> String,
) -> Vec<String> {
    let (at, head, old, rest) = escaped(lines, from, key);
    let mut out = owned(lines);
    out[at] = format!("{head}{}{rest}", value(old));
    out
}

/// A float's bit pattern in upper-case hex, which `from_str_radix`
/// accepts: the admission-wait histogram's `wait_hi`, inside the escaped
/// metrics block. Its `wait_lo` is always `0.0`, whose hex has no letter
/// to raise.
fn wait_hi_upper_case(lines: &[&str]) -> Vec<String> {
    edit_escaped(lines, 0, "wait_hi", str::to_uppercase)
}

/// Every line ended with `\r\n`, as an editor that saves CRLF writes it.
fn crlf_body(lines: &[&str]) -> Vec<String> {
    lines.iter().map(|l| format!("{l}\r")).collect()
}

/// 2^61: a count whose `Vec::with_capacity` overflows `isize` for every
/// element type a reader collects, so pre-sizing from it panics.
const HUGE_COUNT: u64 = 1 << 61;

/// The admission-wait histogram's bin count, raised to [`HUGE_COUNT`]
/// inside the first escaped metrics block.
fn huge_wait_bins(lines: &[&str]) -> Vec<String> {
    edit_escaped(lines, 0, "wait_bins", |_| HUGE_COUNT.to_string())
}

/// One tenant's circuit-handle count, raised to [`HUGE_COUNT`] inside the
/// state text of the first fabric capture that holds a tenant. The state
/// fingerprint is left as it was: restore's decoding refuses the count
/// before it compares fingerprints.
fn huge_handles(lines: &[&str]) -> Vec<String> {
    edit_escaped(lines, 0, "handles", |_| HUGE_COUNT.to_string())
}

/// The first cross-wafer circuit's `key` wafer (`src_wafer` or
/// `dst_wafer`), moved one past the fabric's last wafer inside the state
/// text of the first fabric capture that holds such a circuit, like
/// [`huge_handles`]. Restored, the circuit's teardown could not reach that
/// wafer.
fn cross_wafer_out_of_range(lines: &[&str], key: &str) -> Vec<String> {
    let (at, ..) = escaped(lines, 0, "src_wafer");
    let fabric = lines[at].find("[fabric\\b").expect("a fabric section");
    let tail = [&lines[at][fabric..]];
    let (_, _, wafers, _) = escaped(&tail, 0, "wafers");
    edit_escaped(lines, at, key, |_| wafers.to_string())
}

fn src_wafer_out_of_range(lines: &[&str]) -> Vec<String> {
    cross_wafer_out_of_range(lines, "src_wafer")
}

fn dst_wafer_out_of_range(lines: &[&str]) -> Vec<String> {
    cross_wafer_out_of_range(lines, "dst_wafer")
}

type Edit = fn(&[&str]) -> Vec<String>;

const CASES: [(&str, Edit, &str); 10] = [
    (
        "seq >= event_seq",
        seq_at_counter,
        "not below the insertion counter",
    ),
    ("duplicate (at, seq)", duplicate_key, "duplicate event key"),
    ("unknown kind", unknown_kind, "unknown event kind 9"),
    ("queue overcount", queue_overcount, "expected key job"),
    ("queue=+N", queue_plus_sign, "queue: bad u64"),
    ("queue=0N", queue_leading_zero, "queue: bad u64"),
    (
        "upper-case wait_hi",
        wait_hi_upper_case,
        "wait_hi: bad f64 bits",
    ),
    ("CRLF body", crlf_body, "line 1: carriage return"),
    ("wait_bins=2^61", huge_wait_bins, "expected key bin"),
    ("handles=2^61", huge_handles, "expected key kind"),
];

/// Edits of a cross-wafer circuit, made on the first bench-campaign
/// capture that holds one: a circuit's endpoint wafers must lie in the
/// fabric, as its fiber and segment wafers must.
const CROSS_CASES: [(&str, Edit, &str); 2] = [
    (
        "src_wafer out of range",
        src_wafer_out_of_range,
        "fabric restore: src_wafer",
    ),
    (
        "dst_wafer out of range",
        dst_wafer_out_of_range,
        "fabric restore: dst_wafer",
    ),
];

/// A capture's state text with `edit` applied and its state fingerprint
/// recomputed, re-sealed by `to_text`: the seal and the fingerprint both
/// hold, so only restore's own checks of what the state names can refuse
/// it.
fn forge(text: &str, edit: Forge) -> String {
    let mut snap = CtrlSnapshot::parse(text).expect("the unedited artifact parses");
    let state = edit(&snap.fabric.state);
    assert_ne!(state, snap.fabric.state, "the edit must change the state");
    snap.fabric.fingerprint = desim::snap::fingerprint(&state);
    snap.fabric.state = state;
    snap.to_text()
}

/// `state` with line `at` replaced by `line`.
fn replace_line(state: &str, at: usize, line: &str) -> String {
    let mut lines: Vec<&str> = state.lines().collect();
    lines[at] = line;
    let mut out = lines.join("\n");
    if state.ends_with('\n') {
        out.push('\n');
    }
    out
}

/// The first tenant's first intra-wafer circuit handle, moved to wafer
/// 999, which the fabric does not have. Resumed, the tenant's departure
/// would tear down a circuit on a wafer that does not exist.
fn handle_off_the_fabric(state: &str) -> String {
    let lines: Vec<&str> = state.lines().collect();
    let kind = (find(&lines, 0, "handles")..lines.len())
        .find(|&i| lines[i] == "kind=0")
        .expect("a tenant holds an intra-wafer circuit");
    assert!(value(lines[kind + 1], "wafer").is_some());
    replace_line(state, kind + 1, "wafer=999")
}

/// The first cross-wafer circuit's first segment, renamed to circuit
/// 999999, which its wafer does not hold. Resumed, that cross circuit's
/// teardown would fail after removing it, leaving its other segments,
/// SerDes claims and fiber held.
fn segment_not_live(state: &str) -> String {
    let lines: Vec<&str> = state.lines().collect();
    let seg = find(&lines, 0, "seg_ckt");
    replace_line(state, seg, "seg_ckt=999999")
}

type Forge = fn(&str) -> String;

/// The second tenant's first intra-wafer circuit handle, renamed to the
/// first tenant's. Resumed, both departures would tear down one circuit,
/// and the circuit no handle names any more would outlive its tenant.
fn handle_held_twice(state: &str) -> String {
    let lines: Vec<&str> = state.lines().collect();
    let kind0 = |from: usize| {
        (from..lines.len())
            .find(|&i| lines[i] == "kind=0")
            .expect("a tenant holds an intra-wafer circuit")
    };
    let first = kind0(find(&lines, 0, "handles"));
    let second = kind0(find(&lines, first, "job"));
    let out = replace_line(state, second + 1, lines[first + 1]);
    replace_line(&out, second + 2, lines[first + 2])
}

/// The first loaded bus, its `used=` load set to 0. Resumed, the teardown
/// of a circuit over that bus would take its load below zero.
fn bus_load_zeroed(state: &str) -> String {
    let lines: Vec<&str> = state.lines().collect();
    let bus = (0..find(&lines, 0, "fibers"))
        .find(|&i| value(lines[i], "used").is_some_and(|n| n != "0"))
        .expect("a circuit loads some bus");
    replace_line(state, bus, "used=0")
}

/// The first used fiber link, its `used=` count set to 0. Resumed, the
/// teardown of a cross circuit over that link would take its usage below
/// zero.
fn fiber_usage_zeroed(state: &str) -> String {
    let lines: Vec<&str> = state.lines().collect();
    let link = (find(&lines, 0, "fibers")..find(&lines, 0, "cross"))
        .find(|&i| value(lines[i], "used").is_some_and(|n| n != "0"))
        .expect("a cross circuit uses some fiber link");
    replace_line(state, link, "used=0")
}

/// The first tile whose `key` SerDes claim (`tx` or `rx`) is nonzero,
/// that claim set to 0.
fn serdes_claim_zeroed(state: &str, key: &str) -> String {
    let lines: Vec<&str> = state.lines().collect();
    let tile = (0..lines.len())
        .find(|&i| value(lines[i], key).is_some_and(|n| n != "0"))
        .unwrap_or_else(|| panic!("a circuit claims {key} lanes"));
    replace_line(state, tile, &format!("{key}=0"))
}

/// Resumed, the teardown of the circuit sourced at that tile would release
/// tx lanes the restored pool does not hold.
fn tx_claim_zeroed(state: &str) -> String {
    serdes_claim_zeroed(state, "tx")
}

/// Resumed, the tile's rx lanes would read free while its circuits still
/// hold them.
fn rx_claim_zeroed(state: &str) -> String {
    serdes_claim_zeroed(state, "rx")
}

/// Forged references to circuits that do not exist, made on the first
/// bench-campaign capture that holds a cross-wafer circuit.
const FORGED_CASES: [(&str, Forge, &str); 2] = [
    (
        "tenant handle on wafer 999",
        handle_off_the_fabric,
        "holds Wafer(WaferId(999)",
    ),
    (
        "segment circuit 999999",
        segment_not_live,
        "segment names ckt#999999",
    ),
];

/// Forged state that the circuits restored with it contradict, made on
/// the same capture as [`FORGED_CASES`].
const CONTRADICTED_CASES: [(&str, Forge, &str); 5] = [
    (
        "one wafer circuit held by two tenants",
        handle_held_twice,
        "), which is already held",
    ),
    (
        "a loaded bus at used=0",
        bus_load_zeroed,
        "reads used=0, but its circuits load it",
    ),
    (
        "a used fiber link at used=0",
        fiber_usage_zeroed,
        "reads used=0, but its cross circuits hold",
    ),
    (
        "a tile's tx claim at tx=0",
        tx_claim_zeroed,
        "reads tx=0, but its circuits claim tx=",
    ),
    (
        "a tile's rx claim at rx=0",
        rx_claim_zeroed,
        "holds 0 rx lanes, but its circuits claim",
    ),
];

/// The first fabric capture's instant, 1 ps late: the ctrl capture, or
/// group 0's in a pod snapshot.
fn at_ps_plus_one(lines: &[&str]) -> Vec<String> {
    let at = find(lines, 0, "at_ps");
    let ps: u64 = value(lines[at], "at_ps").unwrap().parse().unwrap();
    let mut out = owned(lines);
    out[at] = format!("at_ps={}", ps + 1);
    out
}

/// Ctrl-only edits: a campaign captures only at multiples of its cadence.
const CTRL_CASES: [(&str, Edit, &str); 1] = [(
    "at_ps + 1",
    at_ps_plus_one,
    "is not a positive multiple of the snapshot cadence",
)];

/// The pod's completed-epoch count, one lower than its domains' capture
/// instant closes.
fn epoch_minus_one(lines: &[&str]) -> Vec<String> {
    let epoch = find(lines, 0, "epoch");
    let n: u64 = value(lines[epoch], "epoch").unwrap().parse().unwrap();
    let mut out = owned(lines);
    out[epoch] = format!("epoch={}", n - 1);
    out
}

/// The pod's rack-group count, raised to [`HUGE_COUNT`].
fn huge_groups(lines: &[&str]) -> Vec<String> {
    let groups = find(lines, 0, "groups");
    let mut out = owned(lines);
    out[groups] = format!("groups={HUGE_COUNT}");
    out
}

/// Pod-only edits: every domain must be captured on the barrier the
/// epoch count closes, and a group count is read as far as its shards go.
const POD_CASES: [(&str, Edit, &str); 3] = [
    ("epoch - 1", epoch_minus_one, "domain capture 0 taken at"),
    (
        "group 0 at_ps + 1",
        at_ps_plus_one,
        "domain capture 0 taken at",
    ),
    ("groups=2^61", huge_groups, "unexpected end of input"),
];

/// The bench campaign's snapshot artifacts, in capture order.
fn ctrl_snapshots() -> (Vec<String>, CampaignOptions) {
    let (cfg, every) = bench_config();
    let opts = CampaignOptions {
        snapshot_every: Some(every),
        ..CampaignOptions::default()
    };
    let out = run_campaign(&cfg, &opts).expect("campaign runs");
    let texts = out.snapshots.iter().map(CtrlSnapshot::to_text).collect();
    (texts, opts)
}

/// The bench campaign's middle snapshot artifact.
fn ctrl_snapshot() -> (String, CampaignOptions) {
    let (mut texts, opts) = ctrl_snapshots();
    assert!(!texts.is_empty(), "the campaign captured snapshots");
    (texts.swap_remove(texts.len() / 2), opts)
}

fn assert_ctrl_refusals(text: &str, opts: &CampaignOptions, cases: &[(&str, Edit, &str)]) {
    let clean = CtrlSnapshot::parse(text).and_then(|s| resume_campaign(&s, opts));
    assert!(clean.is_ok(), "the unedited artifact resumes");
    for &(name, edit, want) in cases {
        let bad = reseal(text, edit);
        match CtrlSnapshot::parse(&bad).and_then(|s| resume_campaign(&s, opts)) {
            Ok(_) => panic!("{name}: a corrupt ctrl snapshot resumed"),
            Err(e) => assert!(e.contains(want), "{name}: unexpected refusal {e:?}"),
        }
    }
}

#[test]
fn ctrl_resume_refuses_corrupt_queues_and_events() {
    let (text, opts) = ctrl_snapshot();
    assert_ctrl_refusals(&text, &opts, &[CASES.as_slice(), &CTRL_CASES].concat());
}

/// The middle capture holds no cross-wafer circuit, so these edits take
/// the first one that does.
#[test]
fn ctrl_resume_refuses_cross_endpoints_off_the_fabric() {
    let (texts, opts) = ctrl_snapshots();
    let text = texts
        .iter()
        .find(|t| t.contains("\\nsrc_wafer\\e"))
        .expect("a capture holds a cross-wafer circuit");
    assert_ctrl_refusals(text, &opts, &CROSS_CASES);
}

/// Each of `cases`, forged on the first bench-campaign capture that holds
/// a cross-wafer circuit with a segment, must be refused with a message
/// naming its `want` and `cause`, while the unedited capture resumes.
fn assert_forged_refusals(cases: &[(&str, Forge, &str)], cause: &str) {
    let (texts, opts) = ctrl_snapshots();
    let text = texts
        .iter()
        .find(|t| t.contains("\\nseg_ckt\\e"))
        .expect("a capture holds a cross-wafer circuit with a segment");
    let clean = CtrlSnapshot::parse(text).and_then(|s| resume_campaign(&s, &opts));
    assert!(clean.is_ok(), "the unedited artifact resumes");
    for &(name, edit, want) in cases {
        let forged = forge(text, edit);
        match CtrlSnapshot::parse(&forged).and_then(|s| resume_campaign(&s, &opts)) {
            Ok(_) => panic!("{name}: a forged ctrl snapshot resumed"),
            Err(e) => {
                assert!(e.contains(want), "{name}: unexpected refusal {e:?}");
                assert!(e.contains(cause), "{name}: {e:?}");
            }
        }
    }
}

/// A capture whose state names a circuit no wafer holds, with its seal and
/// state fingerprint recomputed, is refused by name, never resumed.
#[test]
fn ctrl_resume_refuses_references_to_circuits_that_are_not_live() {
    assert_forged_refusals(&FORGED_CASES, "which is not live");
}

/// A capture whose state contradicts its own circuits, with its seal and
/// state fingerprint recomputed, is refused by restore, never resumed.
#[test]
fn ctrl_resume_refuses_state_its_circuits_contradict() {
    assert_forged_refusals(&CONTRADICTED_CASES, "restore: ");
}

/// A mid-run capture of `spsim pod --chips 512 --jobs 96 --failures 2
/// --policy stitch --snapshot-every 2` with a job queued in some shard.
fn pod_snapshot() -> (String, PodOptions) {
    let cfg = PodConfig {
        chips: 512,
        jobs: 96,
        failures: 2,
        policy: PolicyKind::Stitch,
        ..PodConfig::default()
    };
    let opts = PodOptions {
        snapshot_every: 2,
        ..PodOptions::default()
    };
    let run = run_pod_with(&cfg, 1, &opts).expect("pod run");
    let text = run
        .snapshots
        .iter()
        .map(PodSnapshot::to_text)
        .find(|t| t.lines().any(|l| l.starts_with("queue=") && l != "queue=0"))
        .expect("some capture has a queued job");
    (text, opts)
}

#[test]
fn pod_resume_refuses_corrupt_shard_queues_and_events() {
    let (text, opts) = pod_snapshot();
    let clean = PodSnapshot::parse(&text).and_then(|s| resume_pod(&s, 1, &opts));
    assert!(clean.is_ok(), "the unedited artifact resumes");
    for (name, edit, want) in CASES.into_iter().chain(POD_CASES) {
        let bad = reseal(&text, edit);
        match PodSnapshot::parse(&bad).and_then(|s| resume_pod(&s, 1, &opts)) {
            Ok(_) => panic!("{name}: a corrupt pod snapshot resumed"),
            Err(e) => assert!(e.contains(want), "{name}: unexpected refusal {e:?}"),
        }
    }
}

/// Every pod layout reuses its predecessor's field names, so only the
/// format tag tells a v1 reader's artifact from a v3 one; no reader for
/// an older layout is kept.
#[test]
fn pod_artifact_relabelled_v1_is_refused() {
    let (text, _) = pod_snapshot();
    let (head, body) = text.split_once('\n').expect("artifact has a header line");
    assert!(head.starts_with("spsim-pod-snapshot v3 fnv="), "{head}");
    match PodSnapshot::parse(&desim::snap::seal("spsim-pod-snapshot v1", body)) {
        Ok(_) => panic!("a v1-tagged artifact parsed as v3"),
        Err(e) => assert!(e.contains("spsim-pod-snapshot v3"), "{e}"),
    }
}

/// The artifact's header respelled in ways the writer never prints, each
/// still carrying the body's true fingerprint, so only a strict header
/// check refuses them. The previous layout's tag is one of them: its
/// reader is not kept.
fn header_respellings(text: &str) -> Vec<(&'static str, String)> {
    let (head, body) = text.split_once('\n').expect("artifact has a header line");
    let (tag, hex) = head.split_once(" fnv=").expect("header carries an fnv");
    assert_ne!(hex, hex.to_uppercase(), "the fingerprint has a hex letter");
    let (family, version) = tag.rsplit_once(" v").expect("a versioned tag");
    let previous = version.parse::<u32>().expect("a version number") - 1;
    vec![
        ("previous layout", format!("{family} v{previous} fnv={hex}")),
        (
            "upper-case fnv",
            format!("{tag} fnv={}", hex.to_uppercase()),
        ),
        ("+ sign", format!("{tag} fnv=+{hex}")),
        ("extra leading 0", format!("{tag} fnv=0{hex}")),
        ("trailing spaces", format!("{tag} fnv={hex}  ")),
        ("CRLF", format!("{tag} fnv={hex}\r")),
        ("no space before fnv=", format!("{tag}fnv={hex}")),
    ]
    .into_iter()
    .map(|(name, head)| (name, format!("{head}\n{body}")))
    .collect()
}

#[test]
fn header_spellings_the_writer_never_prints_are_refused() {
    let (ctrl, _) = ctrl_snapshot();
    assert!(
        CtrlSnapshot::parse(&ctrl).is_ok(),
        "the unedited artifact parses"
    );
    for (name, bad) in header_respellings(&ctrl) {
        match CtrlSnapshot::parse(&bad) {
            Ok(_) => panic!("{name}: a respelled ctrl header parsed"),
            Err(e) => assert!(e.contains("spsim-ctrl-snapshot v2"), "{name}: {e}"),
        }
    }
    let (pod, _) = pod_snapshot();
    assert!(
        PodSnapshot::parse(&pod).is_ok(),
        "the unedited artifact parses"
    );
    for (name, bad) in header_respellings(&pod) {
        match PodSnapshot::parse(&bad) {
            Ok(_) => panic!("{name}: a respelled pod header parsed"),
            Err(e) => assert!(e.contains("spsim-pod-snapshot v3"), "{name}: {e}"),
        }
    }
}

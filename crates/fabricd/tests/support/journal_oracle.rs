//! The journal encoders as they stood before every record kind was
//! described once: the hand-written canonical line of each kind, the
//! hand-written `--dump-journal` JSON, and the header line. The bodies are
//! kept verbatim, turned from methods into free functions over the public
//! types, so the field-list encoders can be held byte-equal to them.

use fabricd::{DenyReason, Journal, JournalEntry, JournalHeader, Record, StitchLegRecord};
use topo::{Coord3, Shape3};

fn reason_canon(reason: DenyReason) -> &'static str {
    match reason {
        DenyReason::QueueTimeout => "timeout",
        DenyReason::ProgramFailed => "program-failed",
    }
}

fn leg_canon(leg: &StitchLegRecord) -> String {
    format!("{}@g{}:{}+{}", leg.leg, leg.group, leg.origin, leg.extent)
}

/// The header's canonical line (the first hash-fold contribution).
pub fn header_canon(h: &JournalHeader) -> String {
    format!(
        "journal racks={} lanes={} seed={} shape={}",
        h.racks, h.lanes, h.seed, h.shape
    )
}

/// An entry's canonical encoding, after `seq=… t=…ps `.
pub fn entry_canon(entry: &JournalEntry) -> String {
    match entry {
        JournalEntry::Admit {
            job,
            origin,
            extent,
        } => {
            format!("admit job={job} origin={origin} extent={extent}")
        }
        JournalEntry::Deny { job, shape, reason } => {
            format!(
                "deny job={job} shape={shape} reason={}",
                reason_canon(*reason)
            )
        }
        JournalEntry::Program {
            job,
            circuits,
            batches,
            cross,
        } => {
            format!("program job={job} circuits={circuits} batches={batches} cross={cross}")
        }
        JournalEntry::Reconfigure { job, micros } => {
            format!("reconfigure job={job} micros={micros:.3}")
        }
        JournalEntry::Fail {
            incident,
            chip,
            victim,
            spliced,
        } => {
            let v = victim.map_or("-".to_string(), |v| v.to_string());
            format!("fail incident={incident} chip={chip} victim={v} spliced={spliced}")
        }
        JournalEntry::Repair {
            incident,
            replacement,
            circuits,
            servers_touched,
            blast_servers,
        } => format!(
            "repair incident={incident} replacement={replacement} circuits={circuits} \
             servers={servers_touched} blast={blast_servers}"
        ),
        JournalEntry::RepairFailed {
            incident,
            replacement,
            error,
        } => {
            format!("repair-failed incident={incident} replacement={replacement} error={error}")
        }
        JournalEntry::Reject {
            job,
            shape,
            attempt,
            code,
        } => {
            format!("reject job={job} shape={shape} attempt={attempt} code={code}")
        }
        JournalEntry::Rollback {
            job,
            attempt,
            circuits,
        } => {
            format!("rollback job={job} attempt={attempt} circuits={circuits}")
        }
        JournalEntry::Evict { job } => format!("evict job={job}"),
        JournalEntry::Snapshot { fingerprint } => {
            format!("snapshot fingerprint={fingerprint:#018x}")
        }
        JournalEntry::MultiGroupAdmit {
            job,
            extent,
            legs,
            ports,
        } => {
            let legs: Vec<String> = legs.iter().map(leg_canon).collect();
            let ports: Vec<String> = ports.iter().map(|p| p.to_string()).collect();
            format!(
                "multi-admit job={job} extent={extent} legs=[{}] ports=[{}]",
                legs.join(";"),
                ports.join(",")
            )
        }
    }
}

/// A record's canonical single-line encoding.
pub fn record_canon(r: &Record) -> String {
    format!(
        "seq={} t={}ps {}",
        r.seq,
        r.at.as_ps(),
        entry_canon(&r.entry)
    )
}

/// The record kind's canonical name (the first token of its canon line).
pub fn kind(entry: &JournalEntry) -> &'static str {
    match entry {
        JournalEntry::Admit { .. } => "admit",
        JournalEntry::Deny { .. } => "deny",
        JournalEntry::Program { .. } => "program",
        JournalEntry::Reconfigure { .. } => "reconfigure",
        JournalEntry::Fail { .. } => "fail",
        JournalEntry::Repair { .. } => "repair",
        JournalEntry::RepairFailed { .. } => "repair-failed",
        JournalEntry::Reject { .. } => "reject",
        JournalEntry::Rollback { .. } => "rollback",
        JournalEntry::Evict { .. } => "evict",
        JournalEntry::Snapshot { .. } => "snapshot",
        JournalEntry::MultiGroupAdmit { .. } => "multi-admit",
    }
}

/// The whole `--dump-journal` document.
pub fn to_json(j: &Journal) -> String {
    let h = j.header();
    let records = j.records();
    let mut out = String::with_capacity(64 + records.len() * 96);
    out.push_str("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!("  \"racks\": {},\n", h.racks));
    out.push_str(&format!("  \"lanes\": {},\n", h.lanes));
    out.push_str(&format!("  \"seed\": {},\n", h.seed));
    out.push_str(&format!(
        "  \"shape\": [{}, {}, {}],\n",
        h.shape.extent(topo::Dim::X),
        h.shape.extent(topo::Dim::Y),
        h.shape.extent(topo::Dim::Z)
    ));
    out.push_str(&format!("  \"hash\": \"{:#018x}\",\n", j.hash()));
    if j.base_seq() > 0 {
        out.push_str(&format!("  \"base_seq\": {},\n", j.base_seq()));
        out.push_str(&format!("  \"base_fnv\": \"{:#018x}\",\n", j.base_fnv()));
    }
    out.push_str("  \"entries\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&record_json(r));
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn coord_json(c: Coord3) -> String {
    let [x, y, z] = c.p;
    format!("[{}, {}, {}]", x, y, z)
}

fn shape_json(s: Shape3) -> String {
    format!(
        "[{}, {}, {}]",
        s.extent(topo::Dim::X),
        s.extent(topo::Dim::Y),
        s.extent(topo::Dim::Z)
    )
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn record_json(r: &Record) -> String {
    let common = format!(
        "\"seq\": {}, \"t_ps\": {}, \"kind\": \"{}\"",
        r.seq,
        r.at.as_ps(),
        kind(&r.entry)
    );
    let rest = match &r.entry {
        JournalEntry::Admit {
            job,
            origin,
            extent,
        } => format!(
            ", \"job\": {job}, \"origin\": {}, \"extent\": {}",
            coord_json(*origin),
            shape_json(*extent)
        ),
        JournalEntry::Deny { job, shape, reason } => format!(
            ", \"job\": {job}, \"shape\": {}, \"reason\": \"{}\"",
            shape_json(*shape),
            reason_canon(*reason)
        ),
        JournalEntry::Program {
            job,
            circuits,
            batches,
            cross,
        } => format!(
            ", \"job\": {job}, \"circuits\": {circuits}, \"batches\": {batches}, \
             \"cross\": {cross}"
        ),
        JournalEntry::Reconfigure { job, micros } => {
            format!(", \"job\": {job}, \"micros\": {micros:.3}")
        }
        JournalEntry::Fail {
            incident,
            chip,
            victim,
            spliced,
        } => format!(
            ", \"incident\": {incident}, \"chip\": {}, \"victim\": {}, \"spliced\": {spliced}",
            coord_json(*chip),
            victim.map_or("null".to_string(), |v| v.to_string())
        ),
        JournalEntry::Repair {
            incident,
            replacement,
            circuits,
            servers_touched,
            blast_servers,
        } => format!(
            ", \"incident\": {incident}, \"replacement\": {}, \"circuits\": {circuits}, \
             \"servers_touched\": {servers_touched}, \"blast_servers\": {blast_servers}",
            coord_json(*replacement)
        ),
        JournalEntry::RepairFailed {
            incident,
            replacement,
            error,
        } => format!(
            ", \"incident\": {incident}, \"replacement\": {}, \"error\": \"{}\"",
            coord_json(*replacement),
            escape_json(error)
        ),
        JournalEntry::Reject {
            job,
            shape,
            attempt,
            code,
        } => format!(
            ", \"job\": {job}, \"shape\": {}, \"attempt\": {attempt}, \"code\": \"{code}\"",
            shape_json(*shape)
        ),
        JournalEntry::Rollback {
            job,
            attempt,
            circuits,
        } => format!(", \"job\": {job}, \"attempt\": {attempt}, \"circuits\": {circuits}"),
        JournalEntry::Evict { job } => format!(", \"job\": {job}"),
        JournalEntry::Snapshot { fingerprint } => {
            format!(", \"fingerprint\": \"{fingerprint:#018x}\"")
        }
        JournalEntry::MultiGroupAdmit {
            job,
            extent,
            legs,
            ports,
        } => {
            let legs: Vec<String> = legs
                .iter()
                .map(|l| {
                    format!(
                        "{{\"leg\": {}, \"group\": {}, \"origin\": {}, \"extent\": {}}}",
                        l.leg,
                        l.group,
                        coord_json(l.origin),
                        shape_json(l.extent)
                    )
                })
                .collect();
            let ports: Vec<String> = ports.iter().map(|p| p.to_string()).collect();
            format!(
                ", \"job\": {job}, \"extent\": {}, \"legs\": [{}], \"ports\": [{}]",
                shape_json(*extent),
                legs.join(", "),
                ports.join(", ")
            )
        }
    };
    format!("{{{common}{rest}}}")
}

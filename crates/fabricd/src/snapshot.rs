//! Periodic control-plane state snapshots.
//!
//! A [`FabricSnapshot`] is a canonical, FNV-fingerprinted serialization of
//! the entire replayed state of a [`FabricState`](crate::state::FabricState)
//! at one journal sequence number, plus the journal hash fold up to that
//! point. It is the unit of three operations:
//!
//! 1. **Delta replay** ([`crate::state::replay_from`]): restore the snapshot
//!    and fold only the journal tail above its watermark — O(tail), not
//!    O(journal).
//! 2. **Compaction** ([`crate::journal::Journal::compact_to`]): records
//!    below a snapshot's watermark can be truncated because the snapshot
//!    embodies them; the journal hash chain survives via the folded base.
//! 3. **Crash restart** (`spsim ctrl --restart-from`): a resumed run
//!    restores the snapshot, re-journals from the snapshot's own sequence
//!    number, and ends with the byte-identical journal hash and state
//!    fingerprint an uninterrupted run would have produced.
//!
//! The protocol invariant (established by
//! [`capture_snapshot`](crate::state::FabricState::capture_snapshot)): a
//! snapshot at sequence `seq` fingerprints the state *after* applying every
//! record with sequence `< seq`, and `base_fnv` is the journal hash fold
//! *before* the `Snapshot` record itself. [`FabricSnapshot::restore`]
//! therefore re-pushes the identical `Snapshot` record first, so the resumed
//! journal occupies exactly the hash-chain position the original did.
//!
//! A capture has no artifact of its own: it travels as the `[fabric]`
//! section ([`FabricSnapshot::write_snap`]) of a ctrl `[campaign]` block or
//! a pod `[shard]` block, inside the one [`desim::snap::seal`] of that
//! artifact. Restore's re-fingerprint of the decoded state is the one
//! state check.

use crate::journal::{Journal, JournalEntry, JournalHeader};
use crate::state::FabricState;
use desim::{SimTime, SnapReader, SnapWriter};
use lightpath::{CtrlFault, FabricError};
use topo::Shape3;

/// A point-in-time capture of the control plane, sufficient to resume a
/// campaign without the journal prefix it summarizes.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricSnapshot {
    /// Simulated instant of capture.
    pub at: SimTime,
    /// Sequence number of the `Snapshot` journal record this capture
    /// emitted; the fingerprint covers all records with sequence `< seq`.
    pub seq: u64,
    /// Journal hash fold over the canonical header and all records below
    /// [`seq`](Self::seq) — the resume point of the hash chain.
    pub base_fnv: u64,
    /// FNV-1a fingerprint of [`state`](Self::state); also committed in the
    /// journal's `Snapshot` record so replay cross-checks it (CTL406).
    pub fingerprint: u64,
    /// The campaign binding the snapshot belongs to.
    pub header: JournalHeader,
    /// Canonical state serialization (the fingerprinted bytes).
    pub state: String,
}

/// A snapshot-corruption fault anchored at the snapshot's watermark.
fn corrupt(seq: u64, what: String) -> FabricError {
    FabricError::new(CtrlFault::ReplayDiverged { seq, what })
}

impl FabricSnapshot {
    /// Rebuild the live state this snapshot captured.
    ///
    /// The restored state's journal resumes at [`seq`](Self::seq) with the
    /// identical `Snapshot` record re-pushed, so subsequent appends chain to
    /// byte-identical hashes with the uninterrupted run. The decoded state
    /// is re-fingerprinted and must match [`fingerprint`](Self::fingerprint)
    /// — a tampered or truncated snapshot is rejected, never resumed.
    pub fn restore(&self) -> Result<FabricState, FabricError> {
        let mut journal = Journal::with_base(self.header, self.seq, self.base_fnv);
        journal.push(
            self.at,
            JournalEntry::Snapshot {
                fingerprint: self.fingerprint,
            },
        );
        let mut r = SnapReader::new(&self.state);
        let st = FabricState::restore_body(journal, &mut r).map_err(|e| corrupt(self.seq, e))?;
        r.done().map_err(|e| corrupt(self.seq, e))?;
        let fp = st.fingerprint();
        if fp != self.fingerprint {
            return Err(corrupt(
                self.seq,
                format!(
                    "restored state fingerprint {fp:#018x} does not match the \
                     snapshot's committed {:#018x}",
                    self.fingerprint
                ),
            ));
        }
        Ok(st)
    }

    /// Encode as a `[fabric]` section of an enclosing snapshot body: the
    /// capture instant, the journal resume point and state fingerprint,
    /// the campaign binding, then the state text as one escaped `state=`
    /// value. The enclosing artifact's seal is the only envelope; the
    /// state is checked against `fingerprint` by [`restore`](Self::restore).
    pub fn write_snap(&self, w: &mut SnapWriter) {
        w.section("fabric");
        w.u64("at_ps", self.at.as_ps());
        w.u64("seq", self.seq);
        w.u64("base_fnv", self.base_fnv);
        w.u64("fingerprint", self.fingerprint);
        w.u64("racks", self.header.racks as u64);
        w.u64("lanes", self.header.lanes as u64);
        w.u64("seed", self.header.seed);
        let [sx, sy, sz] = self.header.shape.dims;
        w.u64("sx", sx as u64);
        w.u64("sy", sy as u64);
        w.u64("sz", sz as u64);
        w.str("state", &self.state);
    }

    /// Decode one [`write_snap`](Self::write_snap) section. The state text
    /// is not decoded here: [`restore`](Self::restore) decodes it and
    /// refuses any state whose fingerprint is not the committed one.
    pub fn read_snap(r: &mut SnapReader<'_>) -> Result<FabricSnapshot, String> {
        r.section("fabric")?;
        let at = SimTime::from_ps(r.u64("at_ps")?);
        let seq = r.u64("seq")?;
        let base_fnv = r.u64("base_fnv")?;
        let fingerprint = r.u64("fingerprint")?;
        let racks = r.u64("racks")? as usize;
        let lanes = r.u64("lanes")? as usize;
        let seed = r.u64("seed")?;
        let sx = r.u64("sx")? as usize;
        let sy = r.u64("sy")? as usize;
        let sz = r.u64("sz")? as usize;
        let state = r.str("state")?;
        Ok(FabricSnapshot {
            at,
            seq,
            base_fnv,
            fingerprint,
            header: JournalHeader {
                racks,
                lanes,
                seed,
                shape: Shape3::new(sx, sy, sz),
            },
            state,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{replay, replay_from, Admission};
    use desim::SimDuration;

    /// Drive a small campaign: admissions, a failure + repair, an eviction.
    fn busy_state() -> FabricState {
        let mut st = FabricState::new(1, 2, 7);
        let mut t = SimTime::ZERO;
        for job in 0..3u32 {
            t += SimDuration::from_secs(1);
            assert!(matches!(
                st.admit(t, job, Shape3::new(2, 2, 1)),
                Admission::Admitted { .. }
            ));
        }
        t += SimDuration::from_secs(1);
        assert!(st.inject_failure(t).is_some());
        t += SimDuration::from_secs(1);
        st.evict(t, 1);
        st
    }

    #[test]
    fn snapshot_restore_is_fingerprint_identical() {
        let mut st = busy_state();
        let snap = st.capture_snapshot(SimTime::from_ps(1 << 40));
        assert_eq!(snap.fingerprint, st.fingerprint());
        let restored = snap.restore().expect("restore");
        assert_eq!(restored.fingerprint(), st.fingerprint());
        // The resumed journal sits at the same hash-chain position.
        assert_eq!(restored.journal().hash(), st.journal().hash());
        assert_eq!(restored.journal().len(), st.journal().len());
        assert_eq!(restored.journal().next_seq(), st.journal().next_seq());
    }

    #[test]
    fn resumed_run_matches_uninterrupted_run() {
        // Uninterrupted: campaign, snapshot mid-way, more work.
        let mut full = busy_state();
        let snap = full.capture_snapshot(SimTime::from_ps(1 << 40));
        let t2 = SimTime::from_ps(2 << 40);
        assert!(matches!(
            full.admit(t2, 9, Shape3::new(2, 2, 1)),
            Admission::Admitted { .. }
        ));
        full.evict(t2 + SimDuration::from_secs(5), 9);

        // Crashed-and-restarted: restore the snapshot, redo the tail.
        let mut resumed = snap.restore().expect("restore");
        assert!(matches!(
            resumed.admit(t2, 9, Shape3::new(2, 2, 1)),
            Admission::Admitted { .. }
        ));
        resumed.evict(t2 + SimDuration::from_secs(5), 9);

        assert_eq!(resumed.fingerprint(), full.fingerprint());
        assert_eq!(resumed.journal().hash(), full.journal().hash());
        assert_eq!(resumed.journal().len(), full.journal().len());
    }

    #[test]
    fn section_round_trips_and_restore_rejects_tampering() {
        let mut st = busy_state();
        let snap = st.capture_snapshot(SimTime::from_ps(1 << 40));
        let mut w = SnapWriter::new();
        snap.write_snap(&mut w);
        let text = w.finish();
        let read = |text: &str| {
            let mut r = SnapReader::new(text);
            let back = FabricSnapshot::read_snap(&mut r)?;
            r.done().map(|()| back)
        };
        let back = read(&text).expect("read");
        assert_eq!(back, snap);
        assert!(back.restore().is_ok());

        // Truncated section: the strict reader trips.
        assert!(read(&text[..text.len() - 2]).is_err());

        // Edited state byte: the section reads, restore refuses it.
        let tampered = read(&text.replacen("[occupancy", "[occupancyX", 1)).expect("read");
        assert_ne!(tampered.state, snap.state);
        assert!(tampered.restore().is_err());

        // Forged fingerprint on an otherwise-valid capture: restore refuses.
        let mut forged = snap.clone();
        forged.fingerprint ^= 1;
        assert!(forged.restore().is_err());
    }

    #[test]
    fn delta_replay_equals_full_replay_and_survives_compaction() {
        // Build a campaign with a mid-stream snapshot and a tail.
        let mut live = busy_state();
        let snap = live.capture_snapshot(SimTime::from_ps(1 << 40));
        let t2 = SimTime::from_ps(2 << 40);
        assert!(matches!(
            live.admit(t2, 9, Shape3::new(2, 2, 1)),
            Admission::Admitted { .. }
        ));
        live.evict(t2 + SimDuration::from_secs(5), 9);

        // Full replay from scratch vs delta replay from the snapshot.
        let full = replay(live.journal()).expect("full replay");
        let delta = replay_from(&snap, live.journal()).expect("delta replay");
        assert_eq!(full.fingerprint(), live.fingerprint());
        assert_eq!(delta.fingerprint(), live.fingerprint());

        // Compact the journal to the snapshot watermark: full replay is now
        // impossible (prefix gone), delta replay still lands on the same
        // state, and the hash chain is unbroken.
        let mut compacted = live.journal().clone();
        let dropped = compacted.compact_to(snap.seq).expect("compact");
        assert!(dropped > 0);
        assert_eq!(compacted.hash(), live.journal().hash());
        assert_eq!(compacted.len(), live.journal().len());
        assert!(replay(&compacted).is_err());
        let delta2 = replay_from(&snap, &compacted).expect("delta replay, compacted");
        assert_eq!(delta2.fingerprint(), live.fingerprint());
    }
}

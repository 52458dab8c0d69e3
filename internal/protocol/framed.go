package protocol

import (
	"maps"
	"slices"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Framed is the frame half of the framed-ALOHA sessions (DFSA, EDFSA,
// MDFSA, PRALOHA, CRDSA), on top of the session core it embeds. It owns:
//
//   - the unread backlog, in admission order (bucketing draws walk it in
//     order), with a membership index beside it, so an Admit batch costs
//     O(batch) and a Revoke batch one filter pass instead of a backlog scan
//     per tag;
//   - the current frame's slot buckets, cursor and read-this-frame set, and
//     the frame-end filter that silences the tags read in the frame;
//   - Admit and Revoke, including stripping revoked tags from the frame's
//     remaining buckets and, for a recorded reader, voiding their pending
//     record memberships;
//   - the frame state in checkpoints, beside the core's.
//
// A protocol embeds Framed in its session and supplies the rest: the frame
// size (StartFrame), the bucketing of Unread into the returned buckets, and
// any extra state of its own for checkpoints (SnapshotWith/RestoreWith). A
// step is then StartFrame (when not InFrame), Observe, ReadSlot (or a
// decode of its own) and EndSlot, plus Silence at frame end.
type Framed struct {
	Core

	// Current-frame state, meaningful while InFrame: SlotJ is the next
	// slot to run, Transmissions counts the tag transmissions observed so
	// far in the frame and Read the tags whose read was acknowledged in it.
	InFrame       bool
	FrameLen      int
	SlotJ         int
	Transmissions int
	Read          map[tagid.ID]struct{}

	occ    [][]tagid.ID // the current frame's slot buckets
	unread []tagid.ID
	// index is the membership set of unread. It is built on the first
	// Admit or Revoke, so batch runs never pay for it.
	index   map[tagid.ID]struct{}
	scratch frameScratch
}

// Open initialises the session for the named protocol over env, with
// env.Tags as the backlog (see Core.Open).
func (f *Framed) Open(name string, env *Env) {
	f.Core.Open(name, env)
	f.unread = append([]tagid.ID(nil), env.Tags...)
}

// OpenRecorded is Open for a reader that keeps a persistent collision
// record store across frames (see Core.OpenRecorded).
func (f *Framed) OpenRecorded(name string, env *Env, key string, dropAbove int) {
	f.Core.OpenRecorded(name, env, key, dropAbove)
	f.unread = append([]tagid.ID(nil), env.Tags...)
}

// Outstanding implements Session.
func (f *Framed) Outstanding() int { return len(f.unread) }

// Unread returns the backlog in admission order. The caller must not
// modify it.
func (f *Framed) Unread() []tagid.ID { return f.unread }

// StartFrame opens a frame of size slots: it charges the announcement,
// counts and traces the frame (p is the traced report probability, 1
// unless the protocol polls only part of the backlog) and returns the
// frame's empty slot buckets for the caller to fill. It fails with
// ErrNoProgress, which then sticks, when the slot budget is spent; a slot
// run with an empty backlog does not spend it (see Core.NextSlot).
func (f *Framed) StartFrame(size int, p float64) ([][]tagid.ID, error) {
	if len(f.unread) > 0 && f.spent() {
		return nil, f.Err
	}
	f.clock.Add(f.Env.Timing.FrameAnnouncement())
	f.M.Frames++
	f.Env.EmitNow(obs.Event{Kind: obs.FrameStart, Seq: f.slots, N1: f.M.Frames, N2: size, F1: p})
	f.occ = f.scratch.buckets(size)
	f.Read = f.scratch.readSet()
	f.FrameLen = size
	f.SlotJ, f.Transmissions = 0, 0
	f.InFrame = true
	return f.occ, nil
}

// Observe runs the current slot's report segment on the channel.
func (f *Framed) Observe() ([]tagid.ID, channel.Observation) {
	tx := f.occ[f.SlotJ]
	return tx, f.Env.Channel.Observe(tx)
}

// ReadSlot decodes the current slot (see Core.Decode): a read tag joins
// the read set once its acknowledgement lands, and an ID recovered from a
// record is acknowledged by its slot index. It reports whether the slot
// collided (captured slots included).
func (f *Framed) ReadSlot(tx []tagid.ID, o channel.Observation) (collided bool) {
	// A framed slot is counted in EndSlot, so the count so far is the
	// current slot's index.
	return f.Decode(f.slots, tx, o, f)
}

// Delivered implements Reader: the tag joins the read set.
func (f *Framed) Delivered(id tagid.ID) { f.Read[id] = struct{}{} }

// Resolved implements Reader with the slot-index acknowledgement.
func (f *Framed) Resolved(seq int, id tagid.ID) { f.ResolveByIndex(seq, id, f) }

// EndSlot closes the current slot after its decode (see Core.CloseSlot)
// and advances the clock and the cursor. It reports whether that was the
// frame's last slot; InFrame is then false and the caller runs its
// frame-end logic.
func (f *Framed) EndSlot(kind channel.Kind, transmitters int) bool {
	f.Transmissions += transmitters
	f.CloseSlot(kind, transmitters)
	f.SlotJ++
	if len(f.unread) == 0 {
		f.idle++
	}
	f.slots++
	f.clock.Add(f.Env.Timing.Slot())
	if f.SlotJ < f.FrameLen {
		return false
	}
	f.InFrame = false
	return true
}

// Silence drops the tags read this frame from the backlog, keeping the
// order of the rest.
func (f *Framed) Silence() {
	if len(f.Read) == 0 {
		return
	}
	remaining := f.unread[:0]
	for _, id := range f.unread {
		if _, ok := f.Read[id]; ok {
			delete(f.index, id)
			continue
		}
		remaining = append(remaining, id)
	}
	f.unread = remaining
}

// Admit implements Session: the tags join the backlog and first transmit
// in the next frame; a recorded reader's store learns of the readmission.
func (f *Framed) Admit(ids []tagid.ID) {
	if f.Store != nil {
		f.AdmitEach(ids, f.Store.Readmit)
		return
	}
	f.AdmitEach(ids, nil)
}

// AdmitEach is Admit with a hook called once per tag that joins the
// backlog. IDs already in the backlog, already counted, or repeated in the
// batch are skipped.
func (f *Framed) AdmitEach(ids []tagid.ID, admitted func(tagid.ID)) {
	f.buildIndex(len(ids))
	f.unread = slices.Grow(f.unread, len(ids))
	for _, id := range ids {
		if _, identified := f.Seen[id]; identified {
			continue
		}
		before := len(f.index)
		f.index[id] = struct{}{}
		if len(f.index) == before {
			continue // already in the backlog
		}
		f.unread = append(f.unread, id)
		f.M.Tags++
		if admitted != nil {
			admitted(id)
		}
	}
}

// Revoke implements Session: the tags leave the backlog and stop
// transmitting immediately, so they are stripped from every remaining
// bucket of the current frame. A recorded reader voids the pending record
// memberships of every unidentified one, so stale cascades cannot
// identify a departed tag.
func (f *Framed) Revoke(ids []tagid.ID) {
	if f.Store != nil {
		for _, id := range ids {
			if _, identified := f.Seen[id]; !identified {
				f.Store.Revoke(id)
			}
		}
	}
	f.RevokeEach(ids, nil)
}

// RevokeEach is Revoke with a hook called once per tag that leaves the
// backlog; IDs not in the backlog are skipped.
func (f *Framed) RevokeEach(ids []tagid.ID, revoked func(tagid.ID)) {
	f.buildIndex(0)
	n := 0
	for _, id := range ids {
		before := len(f.index)
		delete(f.index, id)
		if len(f.index) == before {
			continue // not in the backlog
		}
		n++
		if revoked != nil {
			revoked(id)
		}
	}
	if n == 0 {
		return
	}
	// Remaining buckets only hold backlog tags, so keeping what is still
	// indexed removes exactly the revoked ones, every replica included.
	f.unread = KeepIn(f.unread, f.index)
	if f.InFrame {
		for j := f.SlotJ; j < f.FrameLen; j++ {
			f.occ[j] = KeepIn(f.occ[j], f.index)
		}
	}
}

// KeepIn filters ids in place, keeping order, down to the members of set.
func KeepIn(ids []tagid.ID, set map[tagid.ID]struct{}) []tagid.ID {
	kept := ids[:0]
	for _, id := range ids {
		if _, in := set[id]; in {
			kept = append(kept, id)
		}
	}
	return kept
}

// buildIndex builds the membership index on first use, with room for
// extra more members.
func (f *Framed) buildIndex(extra int) {
	if f.index != nil {
		return
	}
	f.index = make(map[tagid.ID]struct{}, len(f.unread)+extra)
	for _, id := range f.unread {
		f.index[id] = struct{}{}
	}
}

// framedState is the frame half of a checkpoint, carried in the core's
// checkpoint beside the protocol's own extra state.
type framedState struct {
	frame Framed
	extra any
}

// SnapshotWith is Core.SnapshotWith with the frame state added.
func (f *Framed) SnapshotWith(extra any) (Checkpoint, error) {
	return f.Core.SnapshotWith(framedState{f.cloneFrame(), extra})
}

// RestoreWith is Core.RestoreWith with the frame state added.
func (f *Framed) RestoreWith(c Checkpoint, apply func(extra any) error) error {
	return f.Core.RestoreWith(c, func(x any) error {
		st := x.(framedState)
		if err := apply(st.extra); err != nil {
			return err
		}
		core, sc := f.Core, f.scratch
		*f = st.frame.cloneFrame()
		f.Core, f.scratch = core, sc
		return nil
	})
}

// cloneFrame deep-copies the frame state; the core, the index and the
// scratch buffers are left out.
func (f *Framed) cloneFrame() Framed {
	c := *f
	c.Core, c.index, c.scratch = Core{}, nil, frameScratch{}
	c.unread = append([]tagid.ID(nil), f.unread...)
	c.occ, c.Read = nil, nil
	if f.InFrame {
		c.occ = cloneBuckets(f.occ)
		c.Read = maps.Clone(f.Read)
	}
	return c
}

// cloneBuckets deep-copies a frame's slot buckets.
func cloneBuckets(occ [][]tagid.ID) [][]tagid.ID {
	out := make([][]tagid.ID, len(occ))
	for i, b := range occ {
		if len(b) > 0 {
			out[i] = append([]tagid.ID(nil), b...)
		}
	}
	return out
}

// frameScratch holds the slot buckets and the read set, reused across
// frames so the steady state does not reallocate them.
type frameScratch struct {
	occupants [][]tagid.ID
	read      map[tagid.ID]struct{}
}

// buckets returns size empty buckets, each keeping the capacity it grew in
// earlier frames.
func (sc *frameScratch) buckets(size int) [][]tagid.ID {
	for cap(sc.occupants) < size {
		sc.occupants = append(sc.occupants[:cap(sc.occupants)], nil)
	}
	occ := sc.occupants[:size]
	for i := range occ {
		occ[i] = occ[i][:0]
	}
	return occ
}

// readSet returns the emptied read set.
func (sc *frameScratch) readSet() map[tagid.ID]struct{} {
	if sc.read == nil {
		sc.read = make(map[tagid.ID]struct{})
	}
	clear(sc.read)
	return sc.read
}

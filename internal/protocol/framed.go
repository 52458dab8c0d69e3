package protocol

import (
	"maps"
	"slices"
	"time"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/record"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Framed is the session core shared by the framed-ALOHA protocols (DFSA,
// EDFSA, MDFSA, PRALOHA, CRDSA). It owns everything those sessions have in
// common:
//
//   - the unread backlog, in admission order (bucketing draws walk it in
//     order), with a membership index beside it, so an Admit batch costs
//     O(batch) and a Revoke batch one filter pass instead of a backlog scan
//     per tag;
//   - the set of IDs counted so far, the metrics and the air clock;
//   - the current frame's slot buckets, cursor and read-this-frame set, and
//     the frame-end filter that silences the tags read in the frame;
//   - Admit and Revoke, including stripping revoked tags from the frame's
//     remaining buckets;
//   - Snapshot/Restore of all of the above plus the RNG and the channel
//     state.
//
// A protocol embeds Framed in its session and supplies the rest: the frame
// size (StartFrame), the bucketing of Unread into the returned buckets, the
// slot decode, and any extra state of its own for checkpoints
// (SnapshotWith/RestoreWith). A step is then StartFrame (when not
// InFrame), Observe, the decode and EndSlot, plus Silence at frame end.
type Framed struct {
	// Env is the environment the session runs over.
	Env *Env
	// M accumulates the session's metrics; Metrics adds the air time.
	M Metrics
	// Seen holds every ID the reader has counted.
	Seen map[tagid.ID]struct{}

	// Current-frame state, meaningful while InFrame: SlotJ is the next
	// slot to run, Transmissions counts the tag transmissions observed so
	// far in the frame and Read the tags whose read was acknowledged in it.
	InFrame       bool
	FrameLen      int
	SlotJ         int
	Transmissions int
	Read          map[tagid.ID]struct{}

	// Err is the sticky run error.
	Err error

	name  string
	clock air.Clock // registered as Env.Clock
	// slots counts the report slots run so far; StartFrame fails with
	// ErrNoProgress once it reaches budget.
	slots, budget int
	occ           [][]tagid.ID // the current frame's slot buckets
	unread        []tagid.ID
	// index is the membership set of unread. It is built on the first
	// Admit or Revoke, so batch runs never pay for it.
	index   map[tagid.ID]struct{}
	scratch frameScratch
}

// Open initialises the core for a session of the named protocol over env:
// the backlog is env.Tags, the clock is registered as env.Clock and the
// run-start event is emitted.
func (f *Framed) Open(name string, env *Env) {
	f.open(name, env, make(map[tagid.ID]struct{}, len(env.Tags)))
}

// open is Open with an empty counted-ID set to use.
func (f *Framed) open(name string, env *Env, seen map[tagid.ID]struct{}) {
	f.name = name
	f.Env = env
	f.M = Metrics{Tags: len(env.Tags)}
	f.Seen = seen
	f.budget = env.SlotBudget()
	f.unread = append([]tagid.ID(nil), env.Tags...)
	env.Clock = &f.clock
	env.TraceRunStart(name)
}

// Protocol implements Session.
func (f *Framed) Protocol() string { return f.name }

// Metrics implements Session.
func (f *Framed) Metrics() Metrics {
	m := f.M
	m.OnAir = f.clock.Elapsed()
	return m
}

// Elapsed implements Session.
func (f *Framed) Elapsed() time.Duration { return f.clock.Elapsed() }

// Outstanding implements Session.
func (f *Framed) Outstanding() int { return len(f.unread) }

// Unread returns the backlog in admission order. The caller must not
// modify it.
func (f *Framed) Unread() []tagid.ID { return f.unread }

// StartFrame opens a frame of size slots: it charges the announcement,
// counts and traces the frame (p is the traced report probability, 1
// unless the protocol polls only part of the backlog) and returns the
// frame's empty slot buckets for the caller to fill. It fails with
// ErrNoProgress, which then sticks, when the slot budget is spent.
func (f *Framed) StartFrame(size int, p float64) ([][]tagid.ID, error) {
	if f.slots >= f.budget {
		f.Err = ErrNoProgress
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

// ReadSlot is the plain framed-ALOHA decode: it counts the slot by kind,
// and counts and acknowledges the singleton or captured tag. It reports
// whether the slot collided (captured slots included).
func (f *Framed) ReadSlot(o channel.Observation) (collided bool) {
	switch o.Kind {
	case channel.Empty:
		f.M.EmptySlots++
	case channel.Singleton:
		f.M.SingletonSlots++
		f.readDirect(o.ID)
	case channel.Collision:
		f.M.CollisionSlots++
		return true
	case channel.Captured:
		// The slot collided but its strongest tag decoded anyway.
		f.M.CollisionSlots++
		f.readDirect(o.ID)
		return true
	}
	return false
}

// readDirect counts a first-time identification from a singleton or
// captured slot and acknowledges it; the tag joins the read set only if
// the acknowledgement lands.
func (f *Framed) readDirect(id tagid.ID) {
	if _, dup := f.Seen[id]; !dup {
		f.Seen[id] = struct{}{}
		f.M.DirectIDs++
		f.Env.NotifyIdentified(id, false)
	}
	f.ack(id, obs.AckDirect)
}

// readResolved counts an ID recovered from a collision record,
// acknowledged FCAT-style by broadcasting the resolved slot's index.
func (f *Framed) readResolved(id tagid.ID) {
	if _, dup := f.Seen[id]; !dup {
		f.Seen[id] = struct{}{}
		f.M.ResolvedIDs++
		f.Env.NotifyIdentified(id, true)
	}
	f.clock.Add(f.Env.Timing.ResolvedIndexAck())
	f.ack(id, obs.AckResolvedIndex)
}

func (f *Framed) ack(id tagid.ID, kind obs.AckKind) {
	delivered := f.Env.AckDelivered()
	f.Env.EmitNow(obs.Event{Kind: obs.AckSent, Seq: f.M.TotalSlots() - 1, ID: id, Sub: uint8(kind),
		Flag: delivered})
	if delivered {
		f.Read[id] = struct{}{}
	}
}

// EndSlot closes the current slot after its decode: it counts the
// transmissions, notifies the slot observers and advances the clock and
// the cursor. It reports whether that was the frame's last slot; InFrame
// is then false and the caller runs its frame-end logic.
func (f *Framed) EndSlot(kind channel.Kind, transmitters int) bool {
	f.Transmissions += transmitters
	f.M.TagTransmissions += transmitters
	f.Env.NotifySlot(SlotEvent{
		Seq:          f.M.TotalSlots() - 1,
		Kind:         kind,
		Transmitters: transmitters,
		Identified:   f.M.Identified(),
	})
	f.SlotJ++
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
// in the next frame.
func (f *Framed) Admit(ids []tagid.ID) { f.AdmitEach(ids, nil) }

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
// bucket of the current frame.
func (f *Framed) Revoke(ids []tagid.ID) { f.RevokeEach(ids, nil) }

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
	f.unread = f.keepIndexed(f.unread)
	if f.InFrame {
		for j := f.SlotJ; j < f.FrameLen; j++ {
			f.occ[j] = f.keepIndexed(f.occ[j])
		}
	}
}

// keepIndexed filters ids in place down to the backlog members.
func (f *Framed) keepIndexed(ids []tagid.ID) []tagid.ID {
	kept := ids[:0]
	for _, id := range ids {
		if _, in := f.index[id]; in {
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

// framedCheckpoint is a deep copy of a framed session: the core, the RNG,
// the channel state and the protocol's own state.
type framedCheckpoint struct {
	core      Framed
	rng       rng.Source
	chanState any
	extra     any
}

// Protocol implements Checkpoint.
func (c *framedCheckpoint) Protocol() string { return c.core.name }

// SnapshotWith returns a checkpoint of the core, the RNG and the channel
// state, carrying extra — the protocol's own state, already deep-copied —
// for RestoreWith to hand back.
func (f *Framed) SnapshotWith(extra any) Checkpoint {
	cp := &framedCheckpoint{core: f.clone(), rng: *f.Env.RNG, extra: extra}
	if st, ok := f.Env.Channel.(channel.Stateful); ok {
		cp.chanState = st.SnapshotState()
	}
	return cp
}

// RestoreWith rewinds the session to a checkpoint taken by SnapshotWith on
// a session of the same protocol. apply receives the checkpoint's extra
// state first; when it fails, nothing has been restored.
func (f *Framed) RestoreWith(c Checkpoint, apply func(extra any) error) error {
	cp, ok := c.(*framedCheckpoint)
	if !ok || cp.core.name != f.name {
		return ErrCheckpointMismatch
	}
	if err := apply(cp.extra); err != nil {
		return err
	}
	env, sc := f.Env, f.scratch
	*f = cp.core.clone()
	f.Env, f.scratch = env, sc
	*env.RNG = cp.rng
	if cp.chanState != nil {
		env.Channel.(channel.Stateful).RestoreState(cp.chanState)
	}
	return nil
}

// clone deep-copies the checkpointed state; the environment, the index and
// the scratch buffers are left out.
func (f *Framed) clone() Framed {
	c := *f
	c.Env, c.index, c.scratch = nil, nil, frameScratch{}
	c.unread = append([]tagid.ID(nil), f.unread...)
	c.Seen = maps.Clone(f.Seen)
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

// OpenRecorded is Open for a protocol that keeps a persistent collision
// record store across frames (MDFSA, PRALOHA). The store and the counted-ID
// set are reused from env.Scratch under key when a previous run left them
// there. Records of more than dropAbove members are dropped on arrival.
func (f *Framed) OpenRecorded(name string, env *Env, key string, dropAbove int) *record.Store {
	type reuse struct {
		store *record.Store
		seen  map[tagid.ID]struct{}
	}
	sc, _ := env.Scratch.Get(key).(*reuse)
	if sc != nil {
		sc.store.Reset()
		clear(sc.seen)
	} else {
		sc = &reuse{store: record.NewStore(), seen: make(map[tagid.ID]struct{}, len(env.Tags))}
		env.Scratch.Put(key, sc)
	}
	store := sc.store
	store.Tracer = env.Tracer
	store.Quarantine = env.Hardened()
	store.DropAbove = dropAbove
	if env.Stream {
		if rel, ok := env.Channel.(channel.Releaser); ok {
			store.SetReleaser(rel)
		}
	}
	f.open(name, env, sc.seen)
	return store
}

// ReadRecorded is the framed decode of a reader with a persistent record
// store: collisions are recorded for cascade resolution, direct reads feed
// the cascade, and every recovered ID is counted and acknowledged by its
// slot index. It reports whether the slot collided (captured slots
// included).
func (f *Framed) ReadRecorded(store *record.Store, tx []tagid.ID, o channel.Observation) (collided bool) {
	slot := uint64(f.M.TotalSlots())
	switch o.Kind {
	case channel.Empty:
		f.M.EmptySlots++
	case channel.Singleton:
		f.M.SingletonSlots++
		f.readDirect(o.ID)
		f.readAll(store.OnIdentified(o.ID))
	case channel.Collision:
		f.M.CollisionSlots++
		f.readAll(store.Add(slot, o.Mix, tx))
		return true
	case channel.Captured:
		// The slot collided but its strongest constituent decoded through;
		// the residual recording joins the store with the captured tag
		// already known.
		f.M.CollisionSlots++
		f.readDirect(o.ID)
		f.readAll(store.OnIdentified(o.ID))
		f.readAll(store.Add(slot, o.Mix, tx))
		return true
	}
	return false
}

func (f *Framed) readAll(rs []record.Resolved) {
	for _, r := range rs {
		f.readResolved(r.ID)
	}
}

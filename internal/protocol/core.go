package protocol

import (
	"maps"
	"time"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/record"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Core is the session core every protocol in this module embeds, framed,
// slotted or tree. It owns what the reader loop of every protocol has in
// common:
//
//   - the protocol name, the environment, the metrics, the set of IDs
//     counted so far and the air clock, registered as Env.Clock;
//   - the slot budget and the sticky run error;
//   - first-time counting of an identification (Count), the
//     acknowledgement draw and its trace event (Ack), and the slot close
//     that emits SlotDone (CloseSlot);
//   - for a reader that keeps collision records, the record store and the
//     shared decode of a report slot (OpenRecorded, Decode);
//   - Snapshot/Restore of all of the above plus the RNG, the channel state
//     and the protocol's own state (SnapshotWith, RestoreWith).
//
// The protocol keeps its facts: its schedule, its slot accounting, what a
// delivered acknowledgement does and how a recovered ID is acknowledged
// (Reader), and its own checkpoint state.
type Core struct {
	// Env is the environment the session runs over.
	Env *Env
	// M accumulates the session's metrics; Metrics adds the air time.
	M Metrics
	// Seen holds every ID the reader has counted.
	Seen map[tagid.ID]struct{}
	// Store is the collision record store of a recorded reader (see
	// OpenRecorded), nil for the others. Checkpoints deep-copy it.
	Store *record.Store
	// Err is the sticky run error.
	Err error

	name  string
	clock air.Clock // registered as Env.Clock
	// slots counts the report slots run so far, idle those of them run
	// with nothing outstanding. The slot budget is spent by the rest:
	// spent reports when they reach budget.
	slots, idle, budget int
}

// Reader is the protocol half of Decode: what a delivered
// acknowledgement does, and how an ID recovered from a collision record is
// counted and acknowledged.
type Reader interface {
	// Delivered silences id, whose acknowledgement reached it.
	Delivered(id tagid.ID)
	// Resolved counts id, recovered from a collision record, and
	// acknowledges it, attributing the acknowledgement to slot seq.
	Resolved(seq int, id tagid.ID)
}

// Open initialises the core for a session of the named protocol over env:
// the clock is registered as env.Clock and the run-start event is emitted.
func (c *Core) Open(name string, env *Env) {
	c.open(name, env, make(map[tagid.ID]struct{}, len(env.Tags)))
}

// open is Open with an empty counted-ID set to use.
func (c *Core) open(name string, env *Env, seen map[tagid.ID]struct{}) {
	c.name = name
	c.Env = env
	c.M = Metrics{Tags: len(env.Tags)}
	c.Seen = seen
	c.budget = env.SlotBudget()
	env.Clock = &c.clock
	env.TraceRunStart(name)
}

// reuse is a recorded reader's session-sized state, kept in env.Scratch so
// a campaign worker reinitialises it in place between runs instead of
// reallocating. The per-slot transmitter buffers stay per-session: their
// slice headers would go stale here as the sessions grow them.
type reuse struct {
	store  *record.Store
	seen   map[tagid.ID]struct{}
	active *ActiveSet // polled readers only
}

// OpenRecorded is Open for a reader that keeps a persistent collision
// record store (Store). The store and the counted-ID set are reused from
// env.Scratch under key when a previous run left them there. Records of
// more than dropAbove members are dropped on arrival (0 keeps them all).
func (c *Core) OpenRecorded(name string, env *Env, key string, dropAbove int) {
	c.openRecorded(name, env, key, dropAbove)
}

// OpenPolled is OpenRecorded for a reader that polls its tags through an
// active set (SCAT, FCAT), which it returns; the set is reused from
// env.Scratch too and compacts in streaming mode.
func (c *Core) OpenPolled(name string, env *Env, key string) *ActiveSet {
	sc := c.openRecorded(name, env, key, 0)
	if sc.active != nil {
		sc.active.ResetTags(env.Tags)
	} else {
		sc.active = NewActiveSet(env.Tags)
	}
	if env.Stream {
		sc.active.SetStream(true)
	}
	return sc.active
}

func (c *Core) openRecorded(name string, env *Env, key string, dropAbove int) *reuse {
	sc, _ := env.Scratch.Get(key).(*reuse)
	if sc != nil {
		sc.store.Reset()
		clear(sc.seen)
	} else {
		sc = &reuse{store: record.NewStoreCap(len(env.Tags)), seen: make(map[tagid.ID]struct{}, len(env.Tags))}
		env.Scratch.Put(key, sc)
	}
	store := sc.store
	store.Tracer = env.Tracer
	store.Quarantine = env.Hardened()
	store.DropAbove = dropAbove
	// Resolved recordings always go back to a recycling channel; the
	// store stops releasing for good once a checkpoint clone shares them.
	if rel, ok := env.Channel.(channel.Releaser); ok {
		store.SetReleaser(rel)
	}
	c.Store = store
	c.open(name, env, sc.seen)
	return sc
}

// SetTracer points the session's event stream at t from the next event on;
// nil silences it. It sets Env.Tracer and the record store's copy, which
// OpenRecorded took when the session opened. A session rebuilt untraced
// (a server replaying its journal) attaches its live tracer this way.
func (c *Core) SetTracer(t obs.Tracer) {
	c.Env.Tracer = t
	if c.Store != nil {
		c.Store.Tracer = t
	}
}

// Protocol implements Session.
func (c *Core) Protocol() string { return c.name }

// Metrics implements Session.
func (c *Core) Metrics() Metrics {
	m := c.M
	m.OnAir = c.clock.Elapsed()
	return m
}

// Elapsed implements Session.
func (c *Core) Elapsed() time.Duration { return c.clock.Elapsed() }

// Charge advances the air clock by d.
func (c *Core) Charge(d time.Duration) { c.clock.Add(d) }

// Slots returns the number of report slots claimed so far.
func (c *Core) Slots() int { return c.slots }

// NextSlot claims the next report slot and returns its index. idle tells
// that the session has nothing outstanding: a done session monitoring the
// field, whose slot does not spend the budget. Any other slot fails with
// ErrNoProgress, which then sticks, when the slot budget is spent.
func (c *Core) NextSlot(idle bool) (int, error) {
	if idle {
		c.idle++
	} else if c.spent() {
		return 0, c.Err
	}
	c.slots++
	return c.slots - 1, nil
}

// spent reports whether the slots run with tags outstanding have used up
// the slot budget, and then records ErrNoProgress as the run error.
func (c *Core) spent() bool {
	if c.slots-c.idle < c.budget {
		return false
	}
	c.Err = ErrNoProgress
	return true
}

// Fail records err as the sticky run error and returns it as a Step
// result.
func (c *Core) Fail(err error) (bool, error) {
	c.Err = err
	return false, err
}

// Count counts an identification of id, read directly or recovered from a
// collision record (resolved), and notifies the observers. It reports
// whether id was new: a duplicate read, such as a retransmission after a
// lost acknowledgement, is discarded (Section IV-E).
func (c *Core) Count(id tagid.ID, resolved bool) bool {
	if _, dup := c.Seen[id]; dup {
		return false
	}
	c.Seen[id] = struct{}{}
	if resolved {
		c.M.ResolvedIDs++
	} else {
		c.M.DirectIDs++
	}
	c.Env.NotifyIdentified(id, resolved)
	return true
}

// Ack draws whether the acknowledgement of id reaches its tag and traces
// it, attributed to slot seq. The caller applies a delivered one.
func (c *Core) Ack(seq int, id tagid.ID, kind obs.AckKind) (delivered bool) {
	delivered = c.Env.AckDelivered()
	c.Env.EmitNow(obs.Event{Kind: obs.AckSent, Seq: seq, ID: id, Sub: uint8(kind), Flag: delivered})
	return delivered
}

// ResolveByIndex counts id, recovered from a collision record, and
// acknowledges it FCAT-style by broadcasting the resolved slot's 23-bit
// index (Section V-A). The index is charged on every resolution,
// duplicates included; a delivered acknowledgement goes to r.
func (c *Core) ResolveByIndex(seq int, id tagid.ID, r Reader) {
	c.Count(id, true)
	c.clock.Add(c.Env.Timing.ResolvedIndexAck())
	if c.Ack(seq, id, obs.AckResolvedIndex) {
		r.Delivered(id)
	}
}

// Decode is the reader's decode of report slot seq, observed as o with
// transmitters tx. It counts the slot by kind and counts and acknowledges
// a singleton or captured tag. A recorded reader also feeds direct reads
// to the resolution cascade and records collisions, handing every ID they
// recover to r.Resolved. It reports whether the slot collided (captured
// slots included).
func (c *Core) Decode(seq int, tx []tagid.ID, o channel.Observation, r Reader) (collided bool) {
	switch o.Kind {
	case channel.Empty:
		c.M.EmptySlots++
	case channel.Singleton:
		c.M.SingletonSlots++
		c.readDirect(seq, o.ID, r)
	case channel.Collision:
		c.M.CollisionSlots++
		c.record(seq, tx, o, r)
		return true
	case channel.Captured:
		// The slot collided but its strongest constituent decoded through;
		// the residual recording joins the store with the captured tag
		// already known, so a 2-collision capture resolves its partner on
		// the spot.
		c.M.CollisionSlots++
		c.readDirect(seq, o.ID, r)
		c.record(seq, tx, o, r)
		return true
	}
	return false
}

// readDirect counts and acknowledges a tag read from its own slot and lets
// the cascade resolve the records it was a member of.
func (c *Core) readDirect(seq int, id tagid.ID, r Reader) {
	c.Count(id, false)
	if c.Ack(seq, id, obs.AckDirect) {
		r.Delivered(id)
	}
	if c.Store != nil {
		for _, res := range c.Store.OnIdentified(id) {
			r.Resolved(seq, res.ID)
		}
	}
}

// record stores a collision slot's recording; storing it can resolve it
// at once when all but one member are already known.
func (c *Core) record(seq int, tx []tagid.ID, o channel.Observation, r Reader) {
	if c.Store != nil {
		for _, res := range c.Store.Add(uint64(seq), o.Mix, tx) {
			r.Resolved(seq, res.ID)
		}
	}
}

// CloseSlot closes a report slot after its decode: it counts the
// transmitters' transmissions and emits SlotDone, the event slot observers
// follow.
func (c *Core) CloseSlot(kind channel.Kind, transmitters int) {
	c.M.TagTransmissions += transmitters
	if c.Env.Tracer != nil { // keep the untraced slot loop free of the event copy
		c.Env.EmitNow(obs.Event{Kind: obs.SlotDone, Seq: c.M.TotalSlots() - 1, Sub: uint8(kind),
			N1: transmitters, N2: c.M.Identified()})
	}
}

// checkpoint is a deep copy of a session: the core, the RNG, the channel
// state and the protocol's own state.
type checkpoint struct {
	core      Core
	rng       rng.Source
	chanState any
	extra     any
}

// Protocol implements Checkpoint.
func (cp *checkpoint) Protocol() string { return cp.core.name }

// SnapshotWith returns a checkpoint of the core, the RNG and the channel
// state, carrying extra (the protocol's own state, already deep-copied)
// for RestoreWith to hand back. It fails only when the record store cannot
// be cloned.
func (c *Core) SnapshotWith(extra any) (Checkpoint, error) {
	cp := &checkpoint{core: *c, rng: *c.Env.RNG, extra: extra}
	cp.core.Env = nil
	cp.core.Seen = maps.Clone(c.Seen)
	if c.Store != nil {
		var err error
		if cp.core.Store, err = c.Store.Clone(); err != nil {
			return nil, err
		}
	}
	if st, ok := c.Env.Channel.(channel.Stateful); ok {
		cp.chanState = st.SnapshotState()
	}
	return cp, nil
}

// RestoreWith rewinds the session to a checkpoint taken by SnapshotWith on
// a session of the same protocol. apply receives the checkpoint's extra
// state first; when it fails, nothing has been restored.
func (c *Core) RestoreWith(cp Checkpoint, apply func(extra any) error) error {
	x, ok := cp.(*checkpoint)
	if !ok || x.core.name != c.name {
		return ErrCheckpointMismatch
	}
	var store *record.Store
	if x.core.Store != nil {
		var err error
		if store, err = x.core.Store.Clone(); err != nil {
			return err
		}
	}
	env := c.Env
	if err := apply(x.extra); err != nil {
		return err
	}
	*c = x.core
	c.Env, c.Seen, c.Store = env, maps.Clone(x.core.Seen), store
	*env.RNG = x.rng
	if x.chanState != nil {
		env.Channel.(channel.Stateful).RestoreState(x.chanState)
	}
	return nil
}

// Package scat implements the Slotted Collision-Aware Tag identification
// protocol (paper, Section IV).
//
// SCAT is the paper's first protocol: every slot begins with an
// advertisement carrying the slot index and a report probability
// p_i = omega / N_i, where N_i is the number of tags not yet identified
// (SCAT assumes the total population N is known from a pre-estimation
// step). Tags whose report hash passes transmit their ID; the reader
// decodes singletons directly, records collision slots, and resolves
// records through analog network coding as constituents become known.
// IDs recovered from records are acknowledged in full (96 bits) — the
// overhead FCAT later removes.
package scat

import (
	"fmt"
	"maps"
	"math"
	"time"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/analysis"
	"github.com/ancrfid/ancrfid/internal/channel"
	obsev "github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/prestep"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/record"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Config parameterises SCAT.
type Config struct {
	// Lambda is the ANC decoder capability the protocol is tuned for; it
	// selects the default Omega and appears in the protocol name. It must
	// match the channel's capability for the tuning to be optimal.
	Lambda int

	// Omega overrides the report-probability constant omega = N_i * p_i.
	// Zero selects the optimal (lambda!)^(1/lambda) from Section IV-C.
	Omega float64

	// KnownN overrides the population size the reader assumes (SCAT's
	// pre-estimated N). Zero uses the true population size, i.e. a perfect
	// pre-estimate — unless PreEstimate is set.
	KnownN int

	// PreEstimate runs the real pre-estimation phase of the paper's
	// reference [24] (package prestep) to obtain N, spending probe slots
	// and air time before identification starts. It overrides KnownN.
	PreEstimate bool

	// PreEstimateConfig tunes the pre-estimation phase (zero values take
	// the prestep defaults).
	PreEstimateConfig prestep.Config

	// EmptyProbeAfter is the number of consecutive empty slots after which
	// the reader probes with p = 1 to test for termination (Section IV-A).
	// Zero selects the default of 10: at the optimal load an empty slot
	// has probability ~0.24, so a shorter run fires spurious probes — each
	// of which makes every outstanding tag transmit at once, wasting a
	// collision slot and a burst of tag energy.
	EmptyProbeAfter int
}

// Protocol is a configured SCAT instance.
type Protocol struct {
	cfg Config
}

var _ protocol.Protocol = (*Protocol)(nil)

// New returns a SCAT instance. Zero config fields take defaults
// (lambda = 2, the optimal omega, perfect pre-estimate).
func New(cfg Config) *Protocol {
	if cfg.Lambda < 1 {
		cfg.Lambda = 2
	}
	if cfg.Omega <= 0 {
		cfg.Omega = analysis.OptimalOmega(cfg.Lambda)
	}
	if cfg.EmptyProbeAfter <= 0 {
		cfg.EmptyProbeAfter = 10
	}
	return &Protocol{cfg: cfg}
}

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return fmt.Sprintf("SCAT-%d", p.cfg.Lambda) }

var _ protocol.SessionProtocol = (*Protocol)(nil)

// Run implements protocol.Protocol by driving a fresh session to
// completion.
func (p *Protocol) Run(env *protocol.Env) (protocol.Metrics, error) {
	return protocol.RunSession(p, env)
}

// session carries one identification round's state; doSlot advances it by
// one slot. The struct form (rather than loop-local closures) lets the
// steady state be driven slot-by-slot, which the allocation-regression
// tests use and protocol.Session requires.
type session struct {
	p      *Protocol
	env    *protocol.Env
	m      protocol.Metrics
	clock  air.Clock
	active *protocol.ActiveSet
	store  *record.Store
	buf    []tagid.ID
	seen   map[tagid.ID]struct{}

	// n is the reader's current belief of the population size.
	n                     int
	consecutiveEmpty      int
	consecutiveCollisions int

	slot    uint64
	budget  int
	needPre bool
	err     error
}

var _ protocol.Session = (*session)(nil)

// sessionScratch is the reusable core of a session (see protocol.Scratch):
// the active set, the record store and the seen map are session-sized, so a
// campaign worker reinitialises them in place between runs instead of
// reallocating. The per-slot transmitter buffer stays per-session — its
// slice header would go stale in the scratch as the session grows it.
type sessionScratch struct {
	active *protocol.ActiveSet
	store  *record.Store
	seen   map[tagid.ID]struct{}
}

// scratchKey namespaces this protocol's state in the shared container.
const scratchKey = "scat"

// Begin implements protocol.SessionProtocol.
func (p *Protocol) Begin(env *protocol.Env) protocol.Session {
	s := &session{
		p:       p,
		env:     env,
		m:       protocol.Metrics{Tags: len(env.Tags)},
		buf:     make([]tagid.ID, 0, 64),
		budget:  env.SlotBudget(),
		needPre: p.cfg.PreEstimate,
	}
	if sc, _ := env.Scratch.Get(scratchKey).(*sessionScratch); sc != nil {
		sc.active.ResetTags(env.Tags)
		sc.store.Reset()
		clear(sc.seen)
		s.active, s.store, s.seen = sc.active, sc.store, sc.seen
	} else {
		s.active = protocol.NewActiveSet(env.Tags)
		s.store = record.NewStore()
		s.seen = make(map[tagid.ID]struct{}, len(env.Tags))
		env.Scratch.Put(scratchKey, &sessionScratch{active: s.active, store: s.store, seen: s.seen})
	}
	s.store.Tracer = env.Tracer
	s.store.Quarantine = env.Hardened()
	if env.Stream {
		s.active.SetStream(true)
		if rel, ok := env.Channel.(channel.Releaser); ok {
			s.store.SetReleaser(rel)
		}
	}
	env.Clock = &s.clock
	env.TraceRunStart(p.Name())
	s.n = p.cfg.KnownN
	if s.n <= 0 {
		s.n = len(env.Tags)
	}
	return s
}

// Protocol implements protocol.Session.
func (r *session) Protocol() string { return r.p.Name() }

// Step implements protocol.Session. The first step runs the pre-estimation
// phase when configured; every other step is one advertisement + report
// slot. Stepping a done session keeps probing the field at p = 1, so newly
// admitted tags are picked back up.
func (r *session) Step() (bool, error) {
	if r.err != nil {
		return false, r.err
	}
	if r.needPre {
		r.needPre = false
		pre, err := prestep.Estimate(r.env, r.p.cfg.PreEstimateConfig)
		if err != nil {
			r.clock.Add(pre.OnAir)
			r.err = fmt.Errorf("pre-estimation: %w", err)
			return false, r.err
		}
		r.n = int(math.Round(pre.Estimate))
		r.m.EmptySlots += pre.EmptySlots
		r.m.SingletonSlots += pre.SingletonSlots
		r.m.CollisionSlots += pre.CollisionSlots
		r.clock.Add(pre.OnAir)
		r.env.EmitNow(obsev.Event{Kind: obsev.EstimatorUpdate, F1: float64(r.n)})
		return false, nil
	}
	if int(r.slot) >= r.budget {
		r.err = protocol.ErrNoProgress
		return false, r.err
	}
	done := r.doSlot(r.slot)
	r.slot++
	return done, nil
}

// Admit implements protocol.Session. SCAT assumes a known population, so an
// admission also raises the reader's belief n (a portal sensor announcing
// the arrival); even without that, the consecutive-collision recovery would
// re-locate the count.
func (r *session) Admit(ids []tagid.ID) {
	for _, id := range ids {
		if _, identified := r.seen[id]; identified {
			continue
		}
		if r.active.Add(id) {
			r.m.Tags++
			r.n++
			r.store.Readmit(id)
		}
	}
}

// Revoke implements protocol.Session. A departed unidentified tag lowers the
// believed population and invalidates its pending record memberships.
func (r *session) Revoke(ids []tagid.ID) {
	for _, id := range ids {
		if !r.active.Remove(id) {
			continue
		}
		if _, identified := r.seen[id]; !identified {
			r.store.Revoke(id)
			if r.n > r.m.Identified() {
				r.n--
			}
		}
	}
}

// Metrics implements protocol.Session.
func (r *session) Metrics() protocol.Metrics {
	m := r.m
	m.OnAir = r.clock.Elapsed()
	return m
}

// Elapsed implements protocol.Session.
func (r *session) Elapsed() time.Duration { return r.clock.Elapsed() }

// Outstanding implements protocol.Session.
func (r *session) Outstanding() int { return r.active.Len() }

// checkpoint is a deep copy of a SCAT session's state.
type checkpoint struct {
	name   string
	m      protocol.Metrics
	clock  air.Clock
	active *protocol.ActiveSet
	store  *record.Store
	seen   map[tagid.ID]struct{}

	n                     int
	consecutiveEmpty      int
	consecutiveCollisions int

	slot    uint64
	budget  int
	needPre bool
	err     error

	rng       rng.Source
	chanState any
}

// Protocol implements protocol.Checkpoint.
func (c *checkpoint) Protocol() string { return c.name }

// Snapshot implements protocol.Session.
func (r *session) Snapshot() (protocol.Checkpoint, error) {
	store, err := r.store.Clone()
	if err != nil {
		return nil, err
	}
	cp := &checkpoint{
		name:                  r.p.Name(),
		m:                     r.m,
		clock:                 r.clock,
		active:                r.active.Clone(),
		store:                 store,
		seen:                  maps.Clone(r.seen),
		n:                     r.n,
		consecutiveEmpty:      r.consecutiveEmpty,
		consecutiveCollisions: r.consecutiveCollisions,
		slot:                  r.slot,
		budget:                r.budget,
		needPre:               r.needPre,
		err:                   r.err,
		rng:                   *r.env.RNG,
	}
	if st, ok := r.env.Channel.(channel.Stateful); ok {
		cp.chanState = st.SnapshotState()
	}
	return cp, nil
}

// Restore implements protocol.Session.
func (r *session) Restore(c protocol.Checkpoint) error {
	cp, ok := c.(*checkpoint)
	if !ok || cp.name != r.p.Name() {
		return protocol.ErrCheckpointMismatch
	}
	store, err := cp.store.Clone()
	if err != nil {
		return err
	}
	r.m = cp.m
	r.clock = cp.clock
	r.active = cp.active.Clone()
	r.store = store
	r.seen = maps.Clone(cp.seen)
	r.n = cp.n
	r.consecutiveEmpty = cp.consecutiveEmpty
	r.consecutiveCollisions = cp.consecutiveCollisions
	r.slot = cp.slot
	r.budget = cp.budget
	r.needPre = cp.needPre
	r.err = cp.err
	*r.env.RNG = cp.rng
	if cp.chanState != nil {
		r.env.Channel.(channel.Stateful).RestoreState(cp.chanState)
	}
	return nil
}

// countDirect and countResolved record a first-time identification;
// duplicates (retransmissions after a lost acknowledgement) are discarded,
// as Section IV-E prescribes.
func (r *session) countDirect(id tagid.ID) {
	if _, dup := r.seen[id]; dup {
		return
	}
	r.seen[id] = struct{}{}
	r.m.DirectIDs++
	r.env.NotifyIdentified(id, false)
}

func (r *session) countResolved(res record.Resolved) {
	if _, dup := r.seen[res.ID]; dup {
		return
	}
	r.seen[res.ID] = struct{}{}
	r.m.ResolvedIDs++
	r.env.NotifyIdentified(res.ID, true)
	// SCAT broadcasts each recovered ID in full so the tag stops
	// participating (Section IV-A).
	r.clock.Add(r.env.Timing.ResolvedIDAck())
}

// doSlot runs one advertisement + slot and reports whether the round
// terminated (the final probe proved the population exhausted).
func (r *session) doSlot(slot uint64) (done bool) {
	p, env := r.p, r.env
	remaining := r.n - r.m.Identified()
	// Termination: after enough consecutive empty slots (or once the
	// reader believes no tag is left) probe with p = 1; a further empty
	// slot proves the population is exhausted.
	probe := remaining <= 0 || r.consecutiveEmpty >= p.cfg.EmptyProbeAfter
	reportProb := 1.0
	if !probe {
		reportProb = p.cfg.Omega / float64(remaining)
		if reportProb > 1 {
			reportProb = 1
		}
	}

	r.clock.Add(env.Timing.SlotAdvertisement() + env.Timing.Slot())
	env.EmitNow(obsev.Event{Kind: obsev.Advertisement, Seq: int(slot), F1: reportProb})
	r.buf = r.active.Transmitters(env.RNG, env.TxModel, slot, reportProb, r.buf)
	obs := env.Channel.Observe(r.buf)

	switch obs.Kind {
	case channel.Empty:
		r.m.EmptySlots++
		if probe {
			r.m.OnAir = r.clock.Elapsed()
			// The terminating probe is a counted slot like any other;
			// report it so observers see exactly TotalSlots() events.
			env.NotifySlot(protocol.SlotEvent{
				Seq:        r.m.TotalSlots() - 1,
				Kind:       obs.Kind,
				Identified: r.m.Identified(),
			})
			return true
		}
		r.consecutiveEmpty++
		r.consecutiveCollisions = 0
	case channel.Singleton:
		r.m.SingletonSlots++
		r.consecutiveEmpty = 0
		r.consecutiveCollisions = 0
		r.countDirect(obs.ID)
		delivered := env.AckDelivered()
		env.EmitNow(obsev.Event{Kind: obsev.AckSent, Seq: int(slot), ID: obs.ID,
			Sub: uint8(obsev.AckDirect), Flag: delivered})
		if delivered {
			r.active.Remove(obs.ID)
		}
		for _, res := range r.store.OnIdentified(obs.ID) {
			r.countResolved(res)
			delivered := env.AckDelivered()
			env.EmitNow(obsev.Event{Kind: obsev.AckSent, Seq: int(slot), ID: res.ID,
				Sub: uint8(obsev.AckResolvedID), Flag: delivered})
			if delivered {
				r.active.Remove(res.ID)
			}
		}
	case channel.Collision:
		r.m.CollisionSlots++
		r.consecutiveEmpty = 0
		r.consecutiveCollisions++
		// Storing the record can resolve it immediately when all but
		// one member are known retransmitters.
		for _, res := range r.store.Add(slot, obs.Mix, r.buf) {
			r.countResolved(res)
			delivered := env.AckDelivered()
			env.EmitNow(obsev.Event{Kind: obsev.AckSent, Seq: int(slot), ID: res.ID,
				Sub: uint8(obsev.AckResolvedID), Flag: delivered})
			if delivered {
				r.active.Remove(res.ID)
			}
		}
		if probe && remaining <= 0 {
			// The pre-estimate undershot: a p=1 probe collided, so tags
			// remain. Raise the reader's belief past the identified
			// count to resume normal operation.
			r.n = r.m.Identified() + 2
			env.EmitNow(obsev.Event{Kind: obsev.EstimatorUpdate, F1: float64(r.n), N2: r.m.Identified()})
		}
		if r.consecutiveCollisions >= 25 {
			// At the design load a collision happens with probability
			// ~0.41, so 25 in a row (~2e-10) only occur when the
			// pre-estimate undershoots badly and p is far too high.
			// Double the believed deficit to recover.
			deficit := r.n - r.m.Identified()
			if deficit < 1 {
				deficit = 1
			}
			r.n = r.m.Identified() + 2*deficit
			r.consecutiveCollisions = 0
			env.EmitNow(obsev.Event{Kind: obsev.EstimatorUpdate, F1: float64(r.n), N2: r.m.Identified()})
		}
	case channel.Captured:
		// Capture effect: a collision on the air whose strongest member
		// decoded anyway. Acknowledge the captured ID like a direct read,
		// then store the residual recording; Add subtracts the captured tag
		// and can resolve the rest immediately.
		r.m.CollisionSlots++
		r.consecutiveEmpty = 0
		r.consecutiveCollisions++
		r.countDirect(obs.ID)
		delivered := env.AckDelivered()
		env.EmitNow(obsev.Event{Kind: obsev.AckSent, Seq: int(slot), ID: obs.ID,
			Sub: uint8(obsev.AckDirect), Flag: delivered})
		if delivered {
			r.active.Remove(obs.ID)
		}
		for _, res := range r.store.OnIdentified(obs.ID) {
			r.countResolved(res)
			delivered := env.AckDelivered()
			env.EmitNow(obsev.Event{Kind: obsev.AckSent, Seq: int(slot), ID: res.ID,
				Sub: uint8(obsev.AckResolvedID), Flag: delivered})
			if delivered {
				r.active.Remove(res.ID)
			}
		}
		for _, res := range r.store.Add(slot, obs.Mix, r.buf) {
			r.countResolved(res)
			delivered := env.AckDelivered()
			env.EmitNow(obsev.Event{Kind: obsev.AckSent, Seq: int(slot), ID: res.ID,
				Sub: uint8(obsev.AckResolvedID), Flag: delivered})
			if delivered {
				r.active.Remove(res.ID)
			}
		}
		if probe && remaining <= 0 {
			r.n = r.m.Identified() + 2
			env.EmitNow(obsev.Event{Kind: obsev.EstimatorUpdate, F1: float64(r.n), N2: r.m.Identified()})
		}
	}
	r.m.TagTransmissions += len(r.buf)
	env.NotifySlot(protocol.SlotEvent{
		Seq:          r.m.TotalSlots() - 1,
		Kind:         obs.Kind,
		Transmitters: len(r.buf),
		Identified:   r.m.Identified(),
	})
	return false
}

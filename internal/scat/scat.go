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
	"math"

	"github.com/ancrfid/ancrfid/internal/analysis"
	"github.com/ancrfid/ancrfid/internal/channel"
	obsev "github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/prestep"
	"github.com/ancrfid/ancrfid/internal/protocol"
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

// session carries one identification round's state on top of the session
// core, whose Store holds the collision records; doSlot advances it by one
// slot. The struct form (rather than loop-local closures) lets the steady
// state be driven slot-by-slot, which the allocation-regression tests use
// and protocol.Session requires.
type session struct {
	protocol.Core
	p      *Protocol
	active *protocol.ActiveSet
	buf    []tagid.ID
	policy
}

// policy is SCAT's own control state: a plain value, so checkpoints copy
// it whole.
type policy struct {
	// n is the reader's current belief of the population size.
	n                     int
	consecutiveEmpty      int
	consecutiveCollisions int
	needPre               bool
}

var _ protocol.Session = (*session)(nil)

// Begin implements protocol.SessionProtocol.
func (p *Protocol) Begin(env *protocol.Env) protocol.Session {
	s := &session{p: p, buf: make([]tagid.ID, 0, 64)}
	s.active = s.OpenPolled(p.Name(), env, "scat")
	s.needPre = p.cfg.PreEstimate
	s.n = p.cfg.KnownN
	if s.n <= 0 {
		s.n = len(env.Tags)
	}
	return s
}

// Step implements protocol.Session. The first step runs the pre-estimation
// phase when configured; every other step is one advertisement + report
// slot. Stepping a done session keeps probing the field at p = 1, so newly
// admitted tags are picked back up.
func (r *session) Step() (bool, error) {
	if r.Err != nil {
		return false, r.Err
	}
	if r.needPre {
		r.needPre = false
		pre, err := prestep.Estimate(r.Env, r.p.cfg.PreEstimateConfig)
		r.Charge(pre.OnAir)
		if err != nil {
			return r.Fail(fmt.Errorf("pre-estimation: %w", err))
		}
		r.n = int(math.Round(pre.Estimate))
		r.M.EmptySlots += pre.EmptySlots
		r.M.SingletonSlots += pre.SingletonSlots
		r.M.CollisionSlots += pre.CollisionSlots
		r.Env.EmitNow(obsev.Event{Kind: obsev.EstimatorUpdate, F1: float64(r.n)})
		return false, nil
	}
	slot, err := r.NextSlot(r.active.Len() == 0)
	if err != nil {
		return false, err
	}
	return r.doSlot(uint64(slot)), nil
}

// Admit implements protocol.Session. SCAT assumes a known population, so an
// admission also raises the reader's belief n (a portal sensor announcing
// the arrival); even without that, the consecutive-collision recovery would
// re-locate the count.
func (r *session) Admit(ids []tagid.ID) {
	for _, id := range ids {
		if _, identified := r.Seen[id]; identified {
			continue
		}
		if r.active.Add(id) {
			r.M.Tags++
			r.n++
			r.Store.Readmit(id)
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
		if _, identified := r.Seen[id]; !identified {
			r.Store.Revoke(id)
			if r.n > r.M.Identified() {
				r.n--
			}
		}
	}
}

// Outstanding implements protocol.Session.
func (r *session) Outstanding() int { return r.active.Len() }

// checkpoint is SCAT's state beyond the core.
type checkpoint struct {
	policy
	active *protocol.ActiveSet
}

// Snapshot implements protocol.Session.
func (r *session) Snapshot() (protocol.Checkpoint, error) {
	return r.SnapshotWith(checkpoint{r.policy, r.active.Clone()})
}

// Restore implements protocol.Session.
func (r *session) Restore(c protocol.Checkpoint) error {
	return r.RestoreWith(c, func(x any) error {
		cp := x.(checkpoint)
		r.policy, r.active = cp.policy, cp.active.Clone()
		return nil
	})
}

// Delivered implements protocol.Reader: an acknowledged tag stops
// participating.
func (r *session) Delivered(id tagid.ID) { r.active.Remove(id) }

// Resolved implements protocol.Reader: SCAT broadcasts each recovered ID in
// full (96 bits, Section IV-A) so the tag stops participating. The payload
// is charged on a first-time resolution only; the acknowledgement itself
// goes out every time.
func (r *session) Resolved(seq int, id tagid.ID) {
	if r.Count(id, true) {
		r.Charge(r.Env.Timing.ResolvedIDAck())
	}
	if r.Ack(seq, id, obsev.AckResolvedID) {
		r.active.Remove(id)
	}
}

// doSlot runs one advertisement + slot and reports whether the round
// terminated (the final probe proved the population exhausted).
func (r *session) doSlot(slot uint64) (done bool) {
	p, env := r.p, r.Env
	remaining := r.n - r.M.Identified()
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

	r.Charge(env.Timing.SlotAdvertisement() + env.Timing.Slot())
	env.EmitNow(obsev.Event{Kind: obsev.Advertisement, Seq: int(slot), F1: reportProb})
	r.buf = r.active.Transmitters(env.RNG, env.TxModel, slot, reportProb, r.buf)
	o := env.Channel.Observe(r.buf)
	r.Decode(int(slot), r.buf, o, r)

	switch o.Kind {
	case channel.Empty:
		if probe {
			// The terminating probe is a counted slot like any other, so
			// observers see exactly TotalSlots() SlotDone events.
			r.CloseSlot(o.Kind, 0)
			return true
		}
		r.consecutiveEmpty++
		r.consecutiveCollisions = 0
	case channel.Singleton:
		r.consecutiveEmpty = 0
		r.consecutiveCollisions = 0
	case channel.Collision, channel.Captured:
		// A captured slot is a collision on the air whose strongest member
		// decoded anyway.
		r.consecutiveEmpty = 0
		r.consecutiveCollisions++
		if probe && remaining <= 0 {
			// The pre-estimate undershot: a p=1 probe collided, so tags
			// remain. Raise the reader's belief past the identified
			// count to resume normal operation.
			r.n = r.M.Identified() + 2
			env.EmitNow(obsev.Event{Kind: obsev.EstimatorUpdate, F1: float64(r.n), N2: r.M.Identified()})
		}
		if o.Kind == channel.Collision && r.consecutiveCollisions >= 25 {
			// At the design load a collision happens with probability
			// ~0.41, so 25 in a row (~2e-10) only occur when the
			// pre-estimate undershoots badly and p is far too high.
			// Double the believed deficit to recover.
			deficit := r.n - r.M.Identified()
			if deficit < 1 {
				deficit = 1
			}
			r.n = r.M.Identified() + 2*deficit
			r.consecutiveCollisions = 0
			env.EmitNow(obsev.Event{Kind: obsev.EstimatorUpdate, F1: float64(r.n), N2: r.M.Identified()})
		}
	}
	r.CloseSlot(o.Kind, len(r.buf))
	return false
}

// Package fcat implements the Framed Collision-Aware Tag identification
// protocol, the paper's main contribution (Section V).
//
// FCAT improves SCAT on three fronts:
//
//  1. Frames: the reader advertises the report probability once per frame
//     of f slots instead of per slot, since p barely changes between
//     consecutive slots.
//  2. Cheap acknowledgements: an ID recovered from a collision record is
//     acknowledged by broadcasting the 23-bit index of the resolved slot;
//     the tag recognises a slot it transmitted in and goes quiet.
//  3. Embedded estimation: the number of participating tags is estimated
//     from the per-frame collision-slot count (Section V-C, Eq. 12),
//     removing the pre-estimation phase SCAT needs.
//
// Because no prior estimate exists, the reader bootstraps with a geometric
// probe: single slots at p = 1/2, 1/4, 1/8, ... until one does not collide,
// which locates N within a binary order of magnitude in about log2(N)
// slots; the per-frame estimator then locks on. The probe slots are
// ordinary protocol slots (their singletons and records count).
package fcat

import (
	"fmt"
	"io"

	"github.com/ancrfid/ancrfid/internal/analysis"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/estimate"
	obsev "github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Estimator selects how the reader inverts per-frame slot counts into a
// population estimate.
type Estimator int

const (
	// EstimatorExact (the default) solves the paper's Eq. 12
	// self-consistently: E(n_c) from Eq. 10 is inverted for N numerically.
	// Eq. 12's omega term is omega = N_i * p_i, which contains the unknown,
	// so a faithful reader solves the implicit equation; this estimator
	// stays unbiased even when the running estimate is far from N (e.g. in
	// the tail of a read, where the approximate form overestimates and
	// starves the report probability).
	EstimatorExact Estimator = iota
	// EstimatorClosedForm evaluates Eq. 12 with the *design* omega
	// substituted for N_i*p_i — the one-shot approximation. Accurate while
	// the estimate tracks N; kept as an ablation.
	EstimatorClosedForm
	// EstimatorEmpty inverts the empty-slot count E(n_0) — the alternative
	// the paper rejects for its higher variance; kept for the ablation.
	EstimatorEmpty
)

// String returns the estimator name.
func (e Estimator) String() string {
	switch e {
	case EstimatorClosedForm:
		return "closed-form"
	case EstimatorEmpty:
		return "empty"
	default:
		return "exact"
	}
}

// Config parameterises FCAT.
type Config struct {
	// Lambda is the ANC decoder capability the protocol is tuned for; it
	// selects the default Omega and appears in the protocol name.
	Lambda int

	// Omega overrides the report-probability constant. Zero selects the
	// optimal (lambda!)^(1/lambda) (Section IV-C).
	Omega float64

	// FrameSize is f, the number of slots per frame. Zero selects the
	// paper's default of 30; Fig. 6 shows throughput is stable for f >= 10.
	FrameSize int

	// InitialEstimate seeds the reader's population estimate. Zero enables
	// the geometric bootstrap probe.
	InitialEstimate float64

	// Estimator selects the per-frame estimator (default EstimatorExact,
	// the self-consistent inversion of the paper's Eq. 12).
	Estimator Estimator

	// LastFrameOnly disables the cross-frame running average of the
	// population estimate (the paper averages; this is the ablation knob).
	LastFrameOnly bool

	// OracleEstimate gives the reader the true number of outstanding tags
	// every frame instead of the embedded estimator — the idealised
	// perfect-estimation upper bound used to measure what estimation noise
	// costs. Not a real protocol mode.
	OracleEstimate bool

	// Trace, when non-nil, receives one line per frame with the estimator
	// state (frame, p, slot mix, frame estimate, running estimate,
	// identified count) — a debugging and analysis aid.
	Trace io.Writer
}

// Protocol is a configured FCAT instance.
type Protocol struct {
	cfg Config
}

var _ protocol.Protocol = (*Protocol)(nil)

// New returns an FCAT instance; zero config fields take the paper's
// defaults (lambda = 2, optimal omega, f = 30, bootstrap probing).
func New(cfg Config) *Protocol {
	if cfg.Lambda < 1 {
		cfg.Lambda = 2
	}
	if cfg.Omega <= 0 {
		cfg.Omega = analysis.OptimalOmega(cfg.Lambda)
	}
	if cfg.FrameSize <= 0 {
		cfg.FrameSize = 30
	}
	return &Protocol{cfg: cfg}
}

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return fmt.Sprintf("FCAT-%d", p.cfg.Lambda) }

var _ protocol.SessionProtocol = (*Protocol)(nil)

// Run implements protocol.Protocol by driving a fresh session to
// completion.
func (p *Protocol) Run(env *protocol.Env) (protocol.Metrics, error) {
	return protocol.RunSession(p, env)
}

// phase is the session's position in FCAT's control flow. The batch
// execute loop of earlier revisions is unrolled into these states so the
// run can be advanced one slot at a time (protocol.Session): every state
// either performs exactly one report segment or is a slot-free transition
// folded into the step that performs the next one.
type phase int

const (
	// phInit dispatches on the config: oracle mode, a seeded estimate, or
	// the geometric bootstrap.
	phInit phase = iota
	// phBootSlot runs one bootstrap slot at the next halved probability.
	phBootSlot
	// phBootConfirm runs the p=1 probe that distinguishes a sparse field
	// from an empty one after an empty slot at p=1/2.
	phBootConfirm
	// phFrameDecide computes the report probability from the current
	// estimate and opens the next frame (or falls into phProbe when the
	// reader believes the field is exhausted).
	phFrameDecide
	// phInFrame runs the frame's next slot.
	phInFrame
	// phFrameEnd closes the frame: silent-frame check and estimator update.
	phFrameEnd
	// phProbe runs a p=1 termination probe; an empty probe proves the
	// field exhausted. A done session stays here, so further steps keep
	// monitoring the field for newly admitted tags.
	phProbe
	// phOracleDecide and phOracleFrame are the oracle-estimate analogues
	// of phFrameDecide and phInFrame (no estimator, no silent-frame
	// probing beyond the exhaustion probe).
	phOracleDecide
	phOracleFrame
)

// bootReason records why a bootstrap is running: the initial order-of-
// magnitude location, or the relocation after an answered termination
// probe.
type bootReason int

const (
	bootInitial bootReason = iota
	bootRelocate
)

// session carries the mutable state of one FCAT execution on top of the
// session core, whose Store holds the collision records.
type session struct {
	protocol.Core
	cfg    Config
	active *protocol.ActiveSet
	buf    []tagid.ID
	policy
}

// policy is FCAT's own control state: a plain value, so checkpoints copy it
// whole.
type policy struct {
	phase   phase
	bootP   float64
	bootWhy bootReason

	estimateN float64
	tracker   estimate.Tracker

	frameP           float64
	frameJ           int
	nc, n0           int
	identifiedBefore int

	// oracleN is the true population the oracle estimator consults; Admit
	// and Revoke keep it current.
	oracleN int
}

var _ protocol.Session = (*session)(nil)

// Begin implements protocol.SessionProtocol.
func (p *Protocol) Begin(env *protocol.Env) protocol.Session {
	s := &session{cfg: p.cfg, buf: make([]tagid.ID, 0, 64)}
	s.active = s.OpenPolled(p.Name(), env, "fcat")
	s.oracleN = len(env.Tags)
	return s
}

// Step implements protocol.Session: it folds slot-free transitions until
// one report segment has been run.
func (r *session) Step() (bool, error) {
	if r.Err != nil {
		return false, r.Err
	}
	for {
		switch r.phase {
		case phInit:
			if r.cfg.OracleEstimate {
				r.phase = phOracleDecide
				continue
			}
			if r.cfg.InitialEstimate > 0 {
				r.estimateN = r.cfg.InitialEstimate
				r.phase = phFrameDecide
				continue
			}
			r.bootWhy = bootInitial
			r.bootP = 1
			r.phase = phBootSlot
			continue

		case phBootSlot:
			r.bootP /= 2
			kind, err := r.doSlotAdvertised(r.bootP)
			if err != nil {
				return r.Fail(err)
			}
			if kind == channel.Collision || kind == channel.Captured {
				budget := float64(r.Env.SlotBudget())
				if r.bootP*budget > 1 {
					return false, nil // next bootstrap slot at bootP/2
				}
				// Still colliding at one over the slot budget: something
				// keys up whatever p is (a stuck responder, a jammed
				// channel). A run identifies at most one tag per slot, so
				// the budget bounds any population it can read; read in
				// frames from that bound.
				return r.finishBootstrap(budget)
			}
			// Around the first non-collision, N*p has dropped to order 1,
			// so N is of order 1/p.
			if kind == channel.Empty && r.bootP == 0.5 {
				// Nothing at p=1/2: either very few tags or none. Confirm
				// with a p=1 probe.
				r.phase = phBootConfirm
				return false, nil
			}
			return r.finishBootstrap(1 / r.bootP)

		case phBootConfirm:
			kind, err := r.doSlotAdvertised(1)
			if err != nil {
				return r.Fail(err)
			}
			if kind == channel.Empty {
				return r.finishBootstrap(0)
			}
			return r.finishBootstrap(1 / r.bootP)

		case phFrameDecide:
			remaining := r.estimateN - float64(r.M.Identified())
			if remaining < 0.5 {
				// The reader believes it has read everything: probe with
				// p = 1.
				r.phase = phProbe
				continue
			}
			p := r.cfg.Omega / remaining
			if p > 1 {
				p = 1
			}
			r.frameP = p
			r.Charge(r.Env.Timing.FrameAdvertisement())
			r.Env.EmitNow(obsev.Event{Kind: obsev.FrameStart, Seq: r.Slots(), N1: r.M.Frames + 1,
				N2: r.cfg.FrameSize, F1: p})
			r.identifiedBefore = r.M.Identified()
			r.nc, r.n0 = 0, 0
			r.frameJ = 0
			r.phase = phInFrame
			continue

		case phInFrame:
			kind, err := r.doSlot(r.frameP)
			if err != nil {
				return r.Fail(err)
			}
			switch kind {
			case channel.Empty:
				r.n0++
			case channel.Collision, channel.Captured:
				// A captured slot was still a multi-tag slot on the air, so
				// the collision-count estimator counts it as one.
				r.nc++
			}
			r.frameJ++
			if r.frameJ == r.cfg.FrameSize {
				r.phase = phFrameEnd
			}
			return false, nil

		case phFrameEnd:
			r.M.Frames++
			if r.n0 == r.cfg.FrameSize {
				// A completely silent frame: either the field is exhausted
				// or the estimate overshoots so far that nobody reports. A
				// p=1 probe distinguishes the two immediately instead of
				// waiting for the averaged estimate to drift down; if it is
				// answered, the outstanding count is relocated with a fresh
				// bootstrap.
				r.phase = phProbe
				continue
			}
			r.updateEstimate()
			continue

		case phProbe:
			kind, err := r.doSlotAdvertised(1)
			if err != nil {
				return r.Fail(err)
			}
			if kind == channel.Empty {
				// The field is exhausted. Staying in phProbe keeps the
				// session monitoring: further steps re-probe, and an
				// answered probe resumes identification.
				return true, nil
			}
			if r.cfg.OracleEstimate {
				r.phase = phOracleDecide
				return false, nil
			}
			// The probe was answered, so tags remain but the stale average
			// says otherwise. Relocate the outstanding count with a short
			// geometric probe (log2 of the deficit in slots) instead of
			// guessing, and drop the stale average.
			r.bootWhy = bootRelocate
			r.bootP = 1
			r.phase = phBootSlot
			return false, nil

		case phOracleDecide:
			remaining := r.oracleN - r.M.Identified()
			if remaining <= 0 {
				r.phase = phProbe
				continue
			}
			p := r.cfg.Omega / float64(remaining)
			if p > 1 {
				p = 1
			}
			r.frameP = p
			r.Charge(r.Env.Timing.FrameAdvertisement())
			r.Env.EmitNow(obsev.Event{Kind: obsev.FrameStart, Seq: r.Slots(), N1: r.M.Frames + 1,
				N2: r.cfg.FrameSize, F1: p})
			r.frameJ = 0
			r.phase = phOracleFrame
			continue

		case phOracleFrame:
			if _, err := r.doSlot(r.frameP); err != nil {
				return r.Fail(err)
			}
			r.frameJ++
			if r.frameJ == r.cfg.FrameSize {
				r.M.Frames++
				r.phase = phOracleDecide
			}
			return false, nil

		default:
			return r.Fail(fmt.Errorf("fcat: corrupt session phase %d", r.phase))
		}
	}
}

// finishBootstrap consumes the bootstrap's estimate. For the initial
// bootstrap a zero estimate proves the field empty and terminates the run;
// a relocation folds the estimate on top of the identified count and drops
// the stale cross-frame average.
func (r *session) finishBootstrap(est float64) (bool, error) {
	if r.bootWhy == bootInitial {
		if est <= 0 { // bootstrap proved the field empty
			r.phase = phProbe
			return true, nil
		}
		r.estimateN = est
		r.Env.EmitNow(obsev.Event{Kind: obsev.EstimatorUpdate, F1: est})
		r.phase = phFrameDecide
		return false, nil
	}
	r.estimateN = float64(r.M.Identified()) + est
	r.tracker = estimate.Tracker{}
	r.Env.EmitNow(obsev.Event{Kind: obsev.EstimatorUpdate, N1: r.M.Frames, F1: r.estimateN,
		N2: r.M.Identified()})
	r.phase = phFrameDecide
	return false, nil
}

// updateEstimate folds a completed frame's slot counts into the population
// estimate (Section V-C) and opens the next frame decision.
func (r *session) updateEstimate() {
	f := r.cfg.FrameSize
	frameEst, ok := r.estimateFrame(r.nc, r.n0, f-r.n0-r.nc, r.frameP)
	if !ok {
		// Every slot collided: the believed deficit is far too low. Grow
		// the deficit geometrically (doubling the total would double-count
		// the already-identified tags and overshoot).
		deficit := r.estimateN - float64(r.M.Identified())
		if deficit < 1 {
			deficit = 1
		}
		r.estimateN = float64(r.M.Identified()) + 2*deficit + 1
		r.Env.EmitNow(obsev.Event{Kind: obsev.EstimatorUpdate, N1: r.M.Frames, F1: r.estimateN,
			N2: r.M.Identified()})
		r.phase = phFrameDecide
		return
	}
	// Per-frame estimate of the total population: the frame's estimate of
	// participants plus the tags identified before the frame began.
	total := frameEst + float64(r.identifiedBefore)
	if r.cfg.Trace != nil {
		fmt.Fprintf(r.cfg.Trace, "frame=%d p=%.5f nc=%d n0=%d frameEst=%.0f total=%.0f est=%.0f identified=%d\n",
			r.M.Frames, r.frameP, r.nc, r.n0, frameEst, total, r.estimateN, r.M.Identified())
	}
	if r.cfg.LastFrameOnly {
		r.estimateN = total
	} else {
		// Plain cross-frame average, as the paper prescribes.
		// (Inverse-variance weighting by p^2 was evaluated and rejected:
		// it concentrates weight on tail frames, whose small-count
		// estimates are individually biased, and measures worse.)
		r.tracker.Add(total)
		r.estimateN, _ = r.tracker.Mean()
	}
	r.Env.EmitNow(obsev.Event{Kind: obsev.EstimatorUpdate, N1: r.M.Frames, F1: r.estimateN,
		F2: total, N2: r.M.Identified()})
	r.phase = phFrameDecide
}

// Admit implements protocol.Session. The embedded estimator re-locates the
// grown population on its own (all-collided frames double the believed
// deficit; answered termination probes trigger a fresh bootstrap), so only
// the population bookkeeping changes here.
func (r *session) Admit(ids []tagid.ID) {
	for _, id := range ids {
		if _, identified := r.Seen[id]; identified {
			continue
		}
		if r.active.Add(id) {
			r.M.Tags++
			r.oracleN++
			r.Store.Readmit(id)
		}
	}
}

// Revoke implements protocol.Session. A departed unidentified tag lowers
// the running estimate by one (the silent-frame probe handles bulk
// departures) and invalidates its pending record memberships.
func (r *session) Revoke(ids []tagid.ID) {
	for _, id := range ids {
		if !r.active.Remove(id) {
			continue
		}
		if _, identified := r.Seen[id]; !identified {
			r.Store.Revoke(id)
			r.oracleN--
			if r.estimateN > float64(r.M.Identified()) {
				r.estimateN--
			}
		}
	}
}

// Outstanding implements protocol.Session.
func (r *session) Outstanding() int { return r.active.Len() }

// checkpoint is FCAT's state beyond the core.
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

// estimateFrame inverts the configured per-frame estimator.
func (r *session) estimateFrame(nc, n0, n1 int, p float64) (float64, bool) {
	if nc == 0 && r.cfg.Estimator != EstimatorEmpty {
		// A collision-free frame carries no collision information; in the
		// tail of a read this is the common case. Invert the singleton
		// expectation on its sparse branch instead: E(n1) ~= f*N*p for
		// small N*p, so N ~= n1/(f*p).
		return float64(n1) / (float64(r.cfg.FrameSize) * p), true
	}
	switch r.cfg.Estimator {
	case EstimatorClosedForm:
		return estimate.ClosedForm(nc, r.cfg.FrameSize, p, r.cfg.Omega)
	case EstimatorEmpty:
		return estimate.FromEmpty(n0, r.cfg.FrameSize, p)
	default:
		return estimate.Exact(nc, r.cfg.FrameSize, p)
	}
}

// doSlotAdvertised runs one slot preceded by its own advertisement (used
// by bootstrap and termination probes, which change p for a single slot).
func (r *session) doSlotAdvertised(p float64) (channel.Kind, error) {
	r.Charge(r.Env.Timing.SlotAdvertisement())
	r.Env.EmitNow(obsev.Event{Kind: obsev.Advertisement, Seq: r.Slots(), F1: p})
	return r.doSlot(p)
}

// doSlot executes one report+acknowledgement slot at report probability p.
// Collisions are recorded for ANC, and every recovered ID is acknowledged
// by its slot's index (Resolved).
func (r *session) doSlot(p float64) (channel.Kind, error) {
	slot, err := r.NextSlot(r.active.Len() == 0)
	if err != nil {
		return 0, err
	}
	r.Charge(r.Env.Timing.Slot())
	r.buf = r.active.Transmitters(r.Env.RNG, r.Env.TxModel, uint64(slot), p, r.buf)
	o := r.Env.Channel.Observe(r.buf)
	r.Decode(slot, r.buf, o, r)
	r.CloseSlot(o.Kind, len(r.buf))
	return o.Kind, nil
}

// Delivered implements protocol.Reader: an acknowledged tag stops
// transmitting.
func (r *session) Delivered(id tagid.ID) { r.active.Remove(id) }

// Resolved implements protocol.Reader: FCAT acknowledges a recovered ID by
// broadcasting the resolved slot's 23-bit index (Section V-A); the tag
// stays active if that acknowledgement is lost.
func (r *session) Resolved(seq int, id tagid.ID) { r.ResolveByIndex(seq, id, r) }

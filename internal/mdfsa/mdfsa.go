// Package mdfsa implements Multi-Packet-Reception Dynamic Framed Slotted
// ALOHA: the DFSA baseline upgraded with an M-capable decode stack and the
// matching frame-size rule (Pudasaini, Kang & Shin, "Multipacket reception
// aware...", arXiv:1311.7458).
//
// Like DFSA, each unread tag picks one uniformly random slot per frame.
// Unlike DFSA, colliding slots are not pure waste: the reader records every
// collision and feeds it to the ANC record store, so a k-collision with
// k <= M resolves by cascade once enough constituents are known, and a
// captured slot acknowledges its strongest constituent immediately. The
// frame size follows the MPR-optimal load rule L = backlog/mu*_M rather
// than Schoute's backlog ~ 2.39c, where mu*_M maximises the expected
// per-slot decode yield of an M-capable receiver (estimate.MPROptimalLoad).
//
// The backlog itself is inverted from the per-frame collision count with
// the exact framed-ALOHA estimator: slot occupancy in a frame of f slots
// is Binomial(N, 1/f), which is precisely estimate.Exact's model at
// p = 1/f.
package mdfsa

import (
	"fmt"

	"github.com/ancrfid/ancrfid/internal/estimate"
	obsev "github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/record"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Config parameterises MDFSA.
type Config struct {
	// M is the reception capability the frame-size rule is tuned for: the
	// maximum collision multiplicity the decode stack can eventually
	// resolve. It should match the channel's capability (Lambda or
	// Capability.MaxOrder). Zero or negative selects 2.
	M int
	// InitialFrame is the first frame size. Zero grants the perfect
	// initial estimate (first frame = N/mu*_M for the starting
	// population), mirroring the DFSA baseline's conservative seeding; see
	// the corresponding note on dfsa.Config.InitialFrame.
	InitialFrame int
	// MaxFrame caps the frame size; zero means uncapped.
	MaxFrame int
}

// Protocol is a configured MDFSA instance.
type Protocol struct {
	cfg Config
	mu  float64 // MPR-optimal per-slot load mu*_M, fixed by M
}

var _ protocol.Protocol = (*Protocol)(nil)

// New returns an MDFSA instance; M defaults to 2.
func New(cfg Config) *Protocol {
	if cfg.M < 1 {
		cfg.M = 2
	}
	return &Protocol{cfg: cfg, mu: estimate.MPROptimalLoad(cfg.M)}
}

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return fmt.Sprintf("MDFSA-%d", p.cfg.M) }

var _ protocol.SessionProtocol = (*Protocol)(nil)

// Run implements protocol.Protocol by driving a fresh session to
// completion.
func (p *Protocol) Run(env *protocol.Env) (protocol.Metrics, error) {
	return protocol.RunSession(p, env)
}

// session carries one MDFSA execution. The step structure is DFSA's (one
// report slot per step, frame boundaries folded into the edge slots); the
// additions are the persistent record store and the MPR re-estimate.
type session struct {
	protocol.Framed
	p     *Protocol
	store *record.Store
	policy
}

// policy is MDFSA's own session state on top of the framed core; a plain
// value, so checkpoints copy it whole.
type policy struct {
	frameSize int
	// Current-frame state: collision count and the identification count
	// at the frame's start.
	collisions       int
	identifiedBefore int
}

var _ protocol.Session = (*session)(nil)

// Begin implements protocol.SessionProtocol.
func (p *Protocol) Begin(env *protocol.Env) protocol.Session {
	s := &session{p: p}
	// Records beyond the decode capability can never resolve (a captured
	// slot's residual still fits: k members leave k-1 unknowns).
	s.store = s.OpenRecorded(p.Name(), env, "mdfsa", p.cfg.M+1)
	s.frameSize = p.cfg.InitialFrame
	if s.frameSize <= 0 {
		s.frameSize = estimate.MPRFrameSize(float64(len(env.Tags)), p.cfg.M)
	}
	return s
}

// Step implements protocol.Session. Like DFSA, a done session keeps
// stepping one-slot frames so newly admitted tags are observed.
func (s *session) Step() (bool, error) {
	if s.Err != nil {
		return false, s.Err
	}
	if !s.InFrame {
		f := max(s.frameSize, 1)
		if s.p.cfg.MaxFrame > 0 && f > s.p.cfg.MaxFrame {
			f = s.p.cfg.MaxFrame
		}
		occ, err := s.StartFrame(f, 1)
		if err != nil {
			return false, err
		}
		for _, id := range s.Unread() {
			j := s.Env.RNG.Intn(f)
			occ[j] = append(occ[j], id)
		}
		s.collisions = 0
		s.identifiedBefore = s.M.Identified()
	}

	// Unlike DFSA the mixed recording of a collision is kept: it resolves
	// by cascade once enough constituents are known. The collision still
	// feeds the backlog estimator.
	tx, obs := s.Observe()
	if s.ReadRecorded(s.store, tx, obs) {
		s.collisions++
	}
	if !s.EndSlot(obs.Kind, len(tx)) {
		return false, nil
	}

	// Frame end: silence the tags read this frame.
	s.Silence()
	if s.Transmissions == 0 {
		return true, nil
	}
	// Re-estimate the backlog from the collision count (occupancy in a
	// frame of f slots is Binomial(N, 1/f)) and size the next frame for
	// the MPR-optimal load. A saturated frame (every slot colliding) falls
	// outside the estimator's domain; double the frame instead.
	est, ok := estimate.Exact(s.collisions, s.FrameLen, 1/float64(s.FrameLen))
	if !ok {
		s.frameSize = 2 * s.FrameLen
	} else {
		backlog := est - float64(s.M.Identified()-s.identifiedBefore)
		s.frameSize = estimate.MPRFrameSize(backlog, s.p.cfg.M)
	}
	s.Env.EmitNow(obsev.Event{Kind: obsev.EstimatorUpdate, N1: s.M.Frames,
		F1: float64(s.frameSize) * s.p.mu, F2: est, N2: s.M.Identified()})
	return false, nil
}

// Admit implements protocol.Session: the tags join the unread backlog and
// first transmit in the next frame's bucketing.
func (s *session) Admit(ids []tagid.ID) { s.AdmitEach(ids, s.store.Readmit) }

// Revoke implements protocol.Session: the tags leave the backlog, stop
// transmitting immediately, and the pending record memberships of every
// unidentified one are voided so stale cascades cannot identify a departed
// tag.
func (s *session) Revoke(ids []tagid.ID) {
	for _, id := range ids {
		if _, identified := s.Seen[id]; !identified {
			s.store.Revoke(id)
		}
	}
	s.Framed.Revoke(ids)
}

// checkpoint is MDFSA's state beyond the framed core.
type checkpoint struct {
	policy
	store *record.Store
}

// Snapshot implements protocol.Session.
func (s *session) Snapshot() (protocol.Checkpoint, error) {
	store, err := s.store.Clone()
	if err != nil {
		return nil, err
	}
	return s.SnapshotWith(checkpoint{s.policy, store}), nil
}

// Restore implements protocol.Session.
func (s *session) Restore(c protocol.Checkpoint) error {
	return s.RestoreWith(c, func(x any) error {
		cp := x.(checkpoint)
		store, err := cp.store.Clone()
		if err != nil {
			return err
		}
		s.policy, s.store = cp.policy, store
		return nil
	})
}

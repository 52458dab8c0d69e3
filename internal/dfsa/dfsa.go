// Package dfsa implements the Dynamic Framed Slotted ALOHA baseline
// (Cha & Kim, CCNC 2006; paper reference [6]).
//
// Each unread tag picks one uniformly random slot per frame. The reader
// reads the singleton slots, estimates the remaining backlog from the
// collision count, and sizes the next frame to match the backlog — the
// condition under which framed ALOHA attains its 1/e per-slot efficiency.
// Collision slots carry no information for DFSA; they are the waste FCAT
// recovers.
package dfsa

import (
	"math"

	obsev "github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
)

// SchouteFactor is the classical expected number of tags per colliding
// slot at optimal load (Schoute's backlog estimate: backlog ~ 2.39 * c).
const SchouteFactor = 2.39

// Config parameterises DFSA.
type Config struct {
	// InitialFrame is the first frame size. Zero gives the reader a perfect
	// initial estimate (first frame = population size): Cha & Kim pair DFSA
	// with a fast tag-estimation step, and the paper's flat DFSA throughput
	// across N = 1000..20000 shows their baseline pays no ramp-up cost.
	// Granting the baseline the perfect estimate is the conservative choice
	// for the FCAT-versus-DFSA comparison.
	InitialFrame int
	// MaxFrame caps the frame size; zero means uncapped (pure DFSA —
	// EDFSA is the variant that caps and groups). Beware: a capped frame
	// saturates when the backlog far exceeds the cap (no singletons, so no
	// progress) — this is precisely the failure mode EDFSA's tag grouping
	// exists to fix, and such runs end with ErrNoProgress.
	MaxFrame int
}

// Protocol is a configured DFSA instance.
type Protocol struct {
	cfg Config
}

var _ protocol.Protocol = (*Protocol)(nil)

// New returns a DFSA instance.
func New(cfg Config) *Protocol {
	return &Protocol{cfg: cfg}
}

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return "DFSA" }

var _ protocol.SessionProtocol = (*Protocol)(nil)

// Run implements protocol.Protocol by driving a fresh session to
// completion.
func (p *Protocol) Run(env *protocol.Env) (protocol.Metrics, error) {
	return protocol.RunSession(p, env)
}

// session carries one DFSA execution. A step is one report slot; the frame
// boundaries (announcement and bucketing at the front, the unread filter
// and Schoute re-estimate at the back) fold into the steps that run the
// frame's first and last slots.
type session struct {
	protocol.Framed
	p *Protocol
	policy
}

// policy is DFSA's own session state on top of the framed core; a plain
// value, so checkpoints copy it whole.
type policy struct {
	frameSize  int
	collisions int // in the current frame
}

var _ protocol.Session = (*session)(nil)

// Begin implements protocol.SessionProtocol.
func (p *Protocol) Begin(env *protocol.Env) protocol.Session {
	s := &session{p: p}
	s.Open(p.Name(), env)
	s.frameSize = p.cfg.InitialFrame
	if s.frameSize <= 0 {
		s.frameSize = len(env.Tags)
	}
	return s
}

// Step implements protocol.Session. A done session keeps stepping: the
// empty-field steady state is a one-slot frame per step (Schoute's estimate
// of an empty frame, clamped to one slot), so newly admitted tags are
// observed on the next frame.
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
		// Bucket the tags by their chosen slot.
		for _, id := range s.Unread() {
			j := s.Env.RNG.Intn(f)
			occ[j] = append(occ[j], id)
		}
		s.collisions = 0
	}

	// DFSA discards the mixed signal of a collision (a corrupted singleton
	// also lands there and retries next frame). A captured slot is read
	// and acknowledged, but Schoute's estimator still counts it as a
	// collision.
	tx, obs := s.Observe()
	if s.ReadSlot(tx, obs) {
		s.collisions++
	}
	if !s.EndSlot(obs.Kind, len(tx)) {
		return false, nil
	}

	// Frame end: silence the tags read this frame.
	s.Silence()
	if s.Transmissions == 0 {
		// An entirely empty frame proves every tag has been read.
		return true, nil
	}
	// Schoute's estimate: each colliding slot hides ~2.39 tags.
	s.frameSize = int(math.Round(SchouteFactor * float64(s.collisions)))
	s.Env.EmitNow(obsev.Event{Kind: obsev.EstimatorUpdate, N1: s.M.Frames, F1: float64(s.frameSize),
		N2: s.M.Identified()})
	return false, nil
}

// Snapshot implements protocol.Session.
func (s *session) Snapshot() (protocol.Checkpoint, error) {
	return s.SnapshotWith(s.policy)
}

// Restore implements protocol.Session.
func (s *session) Restore(c protocol.Checkpoint) error {
	return s.RestoreWith(c, func(x any) error {
		s.policy = x.(policy)
		return nil
	})
}

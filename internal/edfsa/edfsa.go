// Package edfsa implements the Enhanced Dynamic Framed Slotted ALOHA
// baseline (Lee, Joo & Lee, MOBIQUITOUS 2005; paper reference [5]).
//
// EDFSA caps the frame size at 256 slots. When the estimated number of
// unread tags exceeds what a 256-slot frame can serve efficiently (354
// tags, per the published table), the tags are split into M = 2^k modulo
// groups and only one group responds per frame; for smaller backlogs the
// frame size is chosen from the published range table.
package edfsa

import (
	"math"

	"github.com/ancrfid/ancrfid/internal/dfsa"
	obsev "github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// maxFrame is EDFSA's largest (and default) frame size.
const maxFrame = 256

// maxUnreadPerFrame is the published threshold above which tags are split
// into modulo groups (354 unread tags per 256-slot frame).
const maxUnreadPerFrame = 354

// Config parameterises EDFSA.
type Config struct {
	// InitialEstimate seeds the unread-tag estimate. Zero grants the reader
	// a perfect initial estimate (the population size), matching the
	// ramp-free baseline behaviour in the paper's evaluation; see the
	// corresponding note on dfsa.Config.InitialFrame.
	InitialEstimate int
}

// Protocol is a configured EDFSA instance.
type Protocol struct {
	cfg Config
}

var _ protocol.Protocol = (*Protocol)(nil)

// New returns an EDFSA instance.
func New(cfg Config) *Protocol {
	return &Protocol{cfg: cfg}
}

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return "EDFSA" }

// frameSizeFor returns the published frame size for an estimated backlog
// (Lee et al., Table 2) together with the number of modulo groups.
func frameSizeFor(est int) (frame, groups int) {
	switch {
	case est <= 11:
		return 8, 1
	case est <= 19:
		return 16, 1
	case est <= 40:
		return 32, 1
	case est <= 81:
		return 64, 1
	case est <= 176:
		return 128, 1
	case est <= maxUnreadPerFrame:
		return maxFrame, 1
	default:
		groups = 1
		for est > maxUnreadPerFrame*groups {
			groups *= 2
		}
		return maxFrame, groups
	}
}

var _ protocol.SessionProtocol = (*Protocol)(nil)

// Run implements protocol.Protocol by driving a fresh session to
// completion.
func (p *Protocol) Run(env *protocol.Env) (protocol.Metrics, error) {
	return protocol.RunSession(p, env)
}

// session carries one EDFSA execution. A step is one report slot; group-
// frame boundaries (group selection, announcement and bucketing at the
// front, the unread filter at the back) and round boundaries (the Schoute
// re-estimate) fold into the adjacent slots' steps.
type session struct {
	protocol.Framed
	p          *Protocol
	membersBuf []tagid.ID
	policy
}

// policy is EDFSA's own session state on top of the framed core; a plain
// value, so checkpoints copy it whole.
type policy struct {
	estimated int
	round     uint64

	// Current-round state, meaningful while inRound.
	inRound                             bool
	frame, groups                       int
	g                                   int
	roundCollisions, roundTransmissions int

	collisions int // in the current group-frame
}

var _ protocol.Session = (*session)(nil)

// Begin implements protocol.SessionProtocol.
func (p *Protocol) Begin(env *protocol.Env) protocol.Session {
	s := &session{p: p}
	s.Open(p.Name(), env)
	s.estimated = p.cfg.InitialEstimate
	if s.estimated <= 0 {
		s.estimated = len(env.Tags)
	}
	if s.estimated < 1 {
		s.estimated = 1
	}
	return s
}

// Step implements protocol.Session. A done session keeps stepping: empty
// rounds at the smallest table frame keep polling the field, so newly
// admitted tags are observed in the next round.
func (s *session) Step() (bool, error) {
	if s.Err != nil {
		return false, s.Err
	}
	if !s.InFrame {
		if !s.inRound {
			s.frame, s.groups = frameSizeFor(s.estimated)
			s.g = 0
			s.roundCollisions, s.roundTransmissions = 0, 0
			s.inRound = true
		}
		occ, err := s.StartFrame(s.frame, 1/float64(s.groups))
		if err != nil {
			return false, err
		}
		members := groupMembers(s.membersBuf[:0], s.Unread(), s.round, s.groups, s.g)
		if s.groups > 1 {
			s.membersBuf = members
		}
		for _, id := range members {
			j := s.Env.RNG.Intn(s.frame)
			occ[j] = append(occ[j], id)
		}
		s.collisions = 0
	}

	// A captured slot is read like a singleton but still counts as a
	// collision for the estimator.
	tx, obs := s.Observe()
	if s.ReadSlot(obs) {
		s.collisions++
	}
	if !s.EndSlot(obs.Kind, len(tx)) {
		return false, nil
	}

	// Group-frame end: silence the tags read this frame.
	s.roundCollisions += s.collisions
	s.roundTransmissions += s.Transmissions
	s.Silence()
	s.g++
	if s.g < s.groups {
		return false, nil
	}

	// Round end.
	s.inRound = false
	s.round++
	if s.roundTransmissions == 0 {
		return true, nil
	}
	s.estimated = int(math.Round(dfsa.SchouteFactor * float64(s.roundCollisions)))
	if s.estimated < 1 {
		s.estimated = 1
	}
	s.Env.EmitNow(obsev.Event{Kind: obsev.EstimatorUpdate, N1: s.M.Frames, F1: float64(s.estimated),
		N2: s.M.Identified()})
	return false, nil
}

// Snapshot implements protocol.Session.
func (s *session) Snapshot() (protocol.Checkpoint, error) {
	return s.SnapshotWith(s.policy), nil
}

// Restore implements protocol.Session.
func (s *session) Restore(c protocol.Checkpoint) error {
	return s.RestoreWith(c, func(x any) error {
		s.policy = x.(policy)
		return nil
	})
}

// groupMembers selects the unread tags whose hash (salted by the round so
// group boundaries reshuffle between rounds) falls in modulo group g,
// appending them to buf (reused across groups; ignored when groups == 1,
// where the unread slice itself is the single group).
func groupMembers(buf, unread []tagid.ID, round uint64, groups, g int) []tagid.ID {
	if groups == 1 {
		return unread
	}
	for _, id := range unread {
		if int(id.ReportHash(round))%groups == g {
			buf = append(buf, id)
		}
	}
	return buf
}

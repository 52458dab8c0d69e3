// Package praloha implements Pseudo-Random framed ALOHA (Ricciato &
// Castiglione, "Pseudo-random ALOHA for enhanced collision recovery in
// RFID", arXiv:1209.4763): each tag derives its slot choice by hashing its
// identity with the frame counter instead of drawing fresh randomness, so
// the reader — which learns identities as it reads — can replay the slot
// choices of every tag it already knows.
//
// The protocol targets the re-inventory scenario the paper motivates: the
// reader knows how many tags are outstanding (from admission control or a
// prior inventory round), so no backlog estimator is needed — every frame
// is sized directly by the MPR-optimal load rule L = backlog/mu*_M
// (estimate.MPRFrameSize). The payoff of determinism is on the decode
// side: an identified tag that retransmits (lost acknowledgement, or as a
// collision constituent) is a *known* signal, so its future collisions
// enter the record store pre-subtracted and cascade resolution gets
// strictly cheaper as the read progresses. Records too crowded to ever
// resolve (more than M+1 constituents — a captured slot's residual still
// fits) are dropped at the door via record.Store.DropAbove.
//
// Tag slot choices draw nothing from the run's RNG stream: the hash
// schedule is pure (tagid.HashPrefix.FrameSlot), which is what makes the
// reader-side replay sound.
package praloha

import (
	"fmt"

	"github.com/ancrfid/ancrfid/internal/estimate"
	"github.com/ancrfid/ancrfid/internal/protocol"
)

// Config parameterises pseudo-random ALOHA.
type Config struct {
	// M is the reception capability the frame-size rule is tuned for; it
	// should match the channel's capability (Lambda or
	// Capability.MaxOrder). Zero or negative selects 2.
	M int
	// MaxFrame caps the frame size; zero means uncapped.
	MaxFrame int
}

// Protocol is a configured PRALOHA instance.
type Protocol struct {
	cfg Config
}

var _ protocol.Protocol = (*Protocol)(nil)

// New returns a PRALOHA instance; M defaults to 2.
func New(cfg Config) *Protocol {
	if cfg.M < 1 {
		cfg.M = 2
	}
	return &Protocol{cfg: cfg}
}

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return fmt.Sprintf("PRALOHA-%d", p.cfg.M) }

var _ protocol.SessionProtocol = (*Protocol)(nil)

// Run implements protocol.Protocol by driving a fresh session to
// completion.
func (p *Protocol) Run(env *protocol.Env) (protocol.Metrics, error) {
	return protocol.RunSession(p, env)
}

// session carries one PRALOHA execution: DFSA's slot loop with hashed
// bucketing, roster-sized frames and a persistent record store.
type session struct {
	protocol.Framed
	p *Protocol
	// frame is the frame counter hashed into every tag's slot choice; it
	// only ever increments, so no two frames repeat a schedule.
	frame uint64
}

var _ protocol.Session = (*session)(nil)

// Begin implements protocol.SessionProtocol.
func (p *Protocol) Begin(env *protocol.Env) protocol.Session {
	s := &session{p: p}
	s.OpenRecorded(p.Name(), env, "praloha", p.cfg.M+1)
	return s
}

// Step implements protocol.Session. A done session keeps stepping one-slot
// frames, so newly admitted tags are observed on the next frame.
func (s *session) Step() (bool, error) {
	if s.Err != nil {
		return false, s.Err
	}
	if !s.InFrame {
		// The outstanding count is known exactly, so the frame is sized
		// straight from the MPR-optimal load rule — no estimator phase.
		unread := s.Unread()
		f := estimate.MPRFrameSize(float64(len(unread)), s.p.cfg.M)
		if len(unread) > 1 && f < 2 {
			// A one-slot frame can never separate an all-unknown backlog:
			// the load rule happily packs a tail of two tags into one slot
			// (mu*_M > 1), which with an open-loop schedule would collide
			// them forever. Two slots give the hash room to split them.
			f = 2
		}
		if s.p.cfg.MaxFrame > 0 && f > s.p.cfg.MaxFrame {
			f = s.p.cfg.MaxFrame
		}
		occ, err := s.StartFrame(f, 1)
		if err != nil {
			return false, err
		}
		s.frame++
		// Bucket by hash replay, not by RNG: slot = H(tag, frame).
		for _, id := range unread {
			j := id.HashPrefix().FrameSlot(s.frame, f)
			occ[j] = append(occ[j], id)
		}
	}

	tx, obs := s.Observe()
	s.ReadSlot(tx, obs)
	if !s.EndSlot(obs.Kind, len(tx)) {
		return false, nil
	}

	// Frame end: silence the tags read this frame.
	s.Silence()
	return s.Transmissions == 0, nil
}

// Snapshot implements protocol.Session.
func (s *session) Snapshot() (protocol.Checkpoint, error) {
	return s.SnapshotWith(s.frame)
}

// Restore implements protocol.Session.
func (s *session) Restore(c protocol.Checkpoint) error {
	return s.RestoreWith(c, func(x any) error {
		s.frame = x.(uint64)
		return nil
	})
}

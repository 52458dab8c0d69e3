// Package crdsa implements Contention Resolution Diversity Slotted ALOHA
// (Casini, De Gaudenzi & Herrero, IEEE Trans. Wireless Comm. 2007 — the
// paper's reference [22], discussed in Section III-C as the prior use of
// collision resolution in satellite access networks).
//
// Each unread tag transmits its ID twice, in two distinct randomly chosen
// slots of a frame; the replica carries a pointer to its twin's slot. The
// reader decodes singleton slots directly and then iterates interference
// cancellation: every decoded tag's replica is subtracted from its twin
// slot, which may strip a collision down to a decodable residual, whose
// tag is cancelled in turn, and so on until no slot changes.
//
// The paper contrasts CRDSA with its own design: CRDSA predicts throughput
// for a known offered load, whereas FCAT adapts the report probability to
// an embedded population estimate. Including CRDSA here lets the
// evaluation compare the two collision-resolution philosophies under the
// same channel model; the channel's ANC capability (lambda) bounds how
// deep a collision the cancellation can strip, so emulating classic CRDSA
// (full packet re-encoding) requires a channel with a large lambda.
package crdsa

import (
	"math"

	"github.com/ancrfid/ancrfid/internal/channel"
	obsev "github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/record"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// OptimalLoad is the offered load G = N/L at which CRDSA's throughput
// peaks (~0.55 packets/slot at G ~ 0.65 for two replicas; Casini et al.,
// Fig. 9).
const OptimalLoad = 0.65

// Config parameterises CRDSA.
type Config struct {
	// Replicas is the number of copies each tag transmits per frame
	// (default 2, the classic scheme).
	Replicas int
	// InitialBacklog seeds the frame sizing; zero grants the perfect
	// initial estimate (population size), matching the other baselines.
	InitialBacklog int
}

// Protocol is a configured CRDSA instance.
type Protocol struct {
	cfg Config
}

var _ protocol.Protocol = (*Protocol)(nil)

// New returns a CRDSA instance.
func New(cfg Config) *Protocol {
	if cfg.Replicas < 1 {
		cfg.Replicas = 2
	}
	return &Protocol{cfg: cfg}
}

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return "CRDSA" }

var _ protocol.SessionProtocol = (*Protocol)(nil)

// Run implements protocol.Protocol by driving a fresh session to
// completion.
func (p *Protocol) Run(env *protocol.Env) (protocol.Metrics, error) {
	return protocol.RunSession(p, env)
}

// session carries one CRDSA execution. A step is one report slot; the
// frame boundaries (replica placement at the front, the iterative
// cancellation pass, unread filter and backlog update at the back) fold
// into the steps that run the frame's first and last slots.
type session struct {
	protocol.Framed
	p *Protocol
	policy

	// queue holds the tags read directly in the current frame, awaiting
	// the cancellation pass. The frame's record store is the core's Store,
	// nil between frames.
	queue []tagid.ID
}

// policy is CRDSA's own session state on top of the framed core; a plain
// value, so checkpoints copy it whole.
type policy struct {
	backlog int
	// growth dilutes the frame after a fruitless one: with few tags and
	// several replicas a matched frame can deadlock deterministically
	// (e.g. two tags with three replicas in three slots collide in every
	// slot forever), so a no-progress frame doubles the next frame's size
	// until reads resume.
	growth int
	placed int // tags placed in the current frame
}

var _ protocol.Session = (*session)(nil)

// Begin implements protocol.SessionProtocol.
func (p *Protocol) Begin(env *protocol.Env) protocol.Session {
	s := &session{p: p}
	s.Open(p.Name(), env)
	s.growth = 1
	s.backlog = p.cfg.InitialBacklog
	if s.backlog <= 0 {
		s.backlog = len(env.Tags)
	}
	return s
}

// Step implements protocol.Session. A done session keeps stepping: with
// the backlog floored at one, the minimum-size frame keeps polling the
// field, so newly admitted tags are observed in the next frame.
func (s *session) Step() (bool, error) {
	if s.Err != nil {
		return false, s.Err
	}
	if !s.InFrame {
		frameSize := int(math.Round(float64(s.backlog)/OptimalLoad)) * s.growth
		if frameSize < s.p.cfg.Replicas+1 {
			frameSize = s.p.cfg.Replicas + 1
		}
		occ, err := s.StartFrame(frameSize, 1)
		if err != nil {
			return false, err
		}

		// Replica placement: each tag picks Replicas distinct slots. In
		// the real scheme a decoded packet's header points at its twin
		// slots; the record store's member index realises the same
		// knowledge.
		replicas := min(s.p.cfg.Replicas, frameSize)
		unread := s.Unread()
		for _, id := range unread {
			for _, slot := range s.Env.RNG.SampleDistinct(replicas, frameSize) {
				occ[slot] = append(occ[slot], id)
			}
		}
		s.placed = len(unread)

		// Tags already identified in earlier frames (but retransmitting
		// after a lost acknowledgement) are marked known so their replicas
		// are subtracted on sight.
		s.Store = record.NewStore()
		s.Store.Tracer = s.Env.Tracer
		s.Store.Quarantine = s.Env.Hardened()
		for _, id := range unread {
			if _, ok := s.Seen[id]; ok {
				s.Store.MarkKnown(id)
			}
		}
		s.queue = s.queue[:0]
	}

	// Observe one slot: decode a singleton directly, record a collision.
	j := s.SlotJ
	tx, obs := s.Observe()
	switch obs.Kind {
	case channel.Empty:
		s.M.EmptySlots++
	case channel.Singleton:
		s.M.SingletonSlots++
		s.readDirect(j, obs.ID)
	case channel.Collision:
		s.M.CollisionSlots++
		for _, res := range s.Store.Add(uint64(j), obs.Mix, tx) {
			s.countResolved(j, res.ID)
		}
	case channel.Captured:
		// Capture effect: the slot collided but the strongest replica
		// decoded. Treat the captured ID as a direct read feeding the
		// end-of-frame cancellation queue, and keep the recording — with
		// the captured tag known, Add subtracts it on arrival.
		s.M.CollisionSlots++
		s.readDirect(j, obs.ID)
		s.Store.MarkKnown(obs.ID)
		for _, res := range s.Store.Add(uint64(j), obs.Mix, tx) {
			s.countResolved(j, res.ID)
		}
	}
	if !s.EndSlot(obs.Kind, len(tx)) {
		return false, nil
	}

	// Frame end. Iterative cancellation: each decoded tag's replicas are
	// subtracted from their slots; every stripped-bare record yields a new
	// tag, whose replicas the store cascades through in turn.
	for _, id := range s.queue {
		for _, res := range s.Store.OnIdentified(id) {
			s.countResolved(int(res.Slot), res.ID)
		}
	}
	s.Store = nil
	if s.placed == 0 {
		return true, nil
	}
	if len(s.Read) == 0 {
		s.growth *= 2
	} else {
		s.growth = 1
	}
	s.Silence()
	s.backlog -= len(s.Read)
	if s.backlog < 1 {
		s.backlog = 1
	}
	return false, nil
}

// readDirect counts a tag decoded from its own slot j and acknowledges it.
// A tag can appear in two singleton slots of one frame; it is read once
// (and queued for the cancellation pass) and its twin is simply redundant.
func (s *session) readDirect(j int, id tagid.ID) {
	if s.Count(id, false) {
		s.queue = append(s.queue, id)
	}
	if s.Ack(j, id, obsev.AckDirect) {
		s.Delivered(id)
	}
}

// countResolved counts a tag recovered by interference cancellation and
// acknowledges it; a duplicate is not acknowledged again. seq is the slot
// the acknowledgement is attributed to: the current slot for record-time
// resolutions, the record's own slot for the frame-end cascade.
func (s *session) countResolved(seq int, id tagid.ID) {
	if s.Count(id, true) && s.Ack(seq, id, obsev.AckResolvedID) {
		s.Delivered(id)
	}
}

// Admit implements protocol.Session: the tags join the unread backlog,
// place replicas from the next frame on, and raise the backlog estimate
// the frame sizing uses.
func (s *session) Admit(ids []tagid.ID) {
	s.AdmitEach(ids, func(tagid.ID) { s.backlog++ })
}

// Revoke implements protocol.Session: the tags leave the backlog, their
// not-yet-observed replicas are stripped from the current frame, and their
// already-recorded replicas are invalidated in the frame's store.
func (s *session) Revoke(ids []tagid.ID) {
	s.RevokeEach(ids, func(id tagid.ID) {
		if _, identified := s.Seen[id]; s.InFrame && !identified {
			s.Store.Revoke(id)
		}
		if s.backlog > 1 {
			s.backlog--
		}
	})
}

// checkpoint is CRDSA's state beyond the framed core.
type checkpoint struct {
	policy
	queue []tagid.ID
}

// Snapshot implements protocol.Session.
func (s *session) Snapshot() (protocol.Checkpoint, error) {
	return s.SnapshotWith(checkpoint{s.policy, append([]tagid.ID(nil), s.queue...)})
}

// Restore implements protocol.Session.
func (s *session) Restore(c protocol.Checkpoint) error {
	return s.RestoreWith(c, func(x any) error {
		cp := x.(checkpoint)
		s.policy = cp.policy
		s.queue = append([]tagid.ID(nil), cp.queue...)
		return nil
	})
}

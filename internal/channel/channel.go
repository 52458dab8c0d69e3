// Package channel abstracts what the RFID reader observes in the report
// segment of a time slot, and what its analog-network-coding decoder can do
// with a recorded collision.
//
// Two implementations are provided:
//
//   - Abstract: the paper's own evaluation model (Section VI) — a k-collision
//     slot is resolvable exactly when k <= lambda, optionally degraded by an
//     unresolvable-record probability and a singleton-corruption probability
//     to model channel noise (Section IV-E).
//   - Signal: a full physical-layer model — every transmission is an MSK
//     waveform with a per-tag complex channel gain, collisions are sample-wise
//     sums plus AWGN, and a collision record resolves only if re-encoding the
//     known constituents, jointly estimating their gains, cancelling them and
//     CRC-checking the residual actually succeeds.
//
// Protocol code is identical over both; the experiments that regenerate the
// paper's tables use Abstract (as the paper did), while Signal backs the
// tests and examples that demonstrate the ANC substrate end-to-end.
package channel

import (
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Kind classifies what the reader observed in a report segment.
type Kind int

const (
	// Empty: no tag transmitted (idle channel).
	Empty Kind = iota + 1
	// Singleton: exactly one tag transmitted and its ID decoded cleanly.
	Singleton
	// Collision: the decode failed; the reader records the mixed signal.
	Collision
	// Captured: two or more tags transmitted but the strongest constituent's
	// SINR cleared the capture threshold, so its ID decoded through the
	// collision (Fyhn et al., "Multipacket Reception of Passive UHF RFID
	// Tags"). The observation carries both the decoded ID and a recorded
	// residual mix for the ANC cascade. Only channels configured with a
	// capturing Capability emit this kind.
	Captured
)

// String returns the slot-kind name.
func (k Kind) String() string {
	switch k {
	case Empty:
		return "empty"
	case Singleton:
		return "singleton"
	case Collision:
		return "collision"
	case Captured:
		return "captured"
	default:
		return "unknown"
	}
}

// Mixed is the reader's recording of one collision slot. The reader cannot
// see inside it directly; it can only subtract signals of tags it has since
// identified and attempt to decode what remains (paper, Section IV-B).
type Mixed interface {
	// Contains reports whether the given tag transmitted in the recorded
	// slot. Under the real protocol the reader derives this from the report
	// hash H(ID|slot); the simulation exposes the ground truth so that the
	// hash-free fast transmission model can run the same reader logic.
	Contains(id tagid.ID) bool

	// Subtract marks the given identified tag's signal as known so that the
	// next Decode attempt cancels it from the mix.
	Subtract(id tagid.ID)

	// Decode attempts to extract a single remaining ID from the residual.
	// It succeeds when all but one constituent has been subtracted, the
	// collision is within the ANC decoder's capability, and (for the signal
	// model) the residual's CRC verifies.
	Decode() (tagid.ID, bool)

	// Multiplicity returns the number of tags that transmitted in the slot.
	// It is simulation introspection for metrics; protocol logic must not
	// depend on it (the paper notes the reader cannot tell how many tags
	// collided).
	Multiplicity() int
}

// Cloner is implemented by Mixed recordings that support deep copying.
// Session checkpoints (protocol.Session.Snapshot) clone every unresolved
// recording in the reader's store so that continuing the live session does
// not mutate the checkpointed state. Both in-tree channels implement it.
type Cloner interface {
	// CloneMixed returns an independent copy of the recording: subtracting
	// signals from the copy leaves the original untouched. A nil return
	// means the copy could not be made (a wrapper over an uncloneable
	// recording); CloneMixed below reports that as a failure.
	CloneMixed() Mixed
}

// CloneMixed deep-copies a recording via its Cloner implementation. It
// reports false when the recording does not support cloning.
func CloneMixed(m Mixed) (Mixed, bool) {
	c, ok := m.(Cloner)
	if !ok {
		return nil, false
	}
	cm := c.CloneMixed()
	if cm == nil {
		return nil, false
	}
	return cm, true
}

// Residual is implemented by Mixed recordings that can report how many
// constituents are still unsubtracted. The hardened record store uses it as
// a residual-energy guard: a record whose residual is down to one signal
// but still refuses to decode is permanently unrecoverable (decoding is a
// deterministic computation, so retrying never helps) and is quarantined
// instead of being retried forever. Both in-tree channels implement it.
type Residual interface {
	// Remaining returns the number of constituent signals not yet
	// subtracted from the recording.
	Remaining() int
}

// Remaining reports the unsubtracted constituent count of a recording, or
// false when the recording does not expose it.
func Remaining(m Mixed) (int, bool) {
	r, ok := m.(Residual)
	if !ok {
		return 0, false
	}
	return r.Remaining(), true
}

// Stateful is implemented by channels that keep persistent state drawn from
// the RNG across Observe calls (the signal channel's lazily drawn per-tag
// gains and oscillator offsets). Session checkpoints capture that state so
// that restoring the RNG actually replays the same noise stream: without it,
// a gain memoised after the snapshot would survive the restore and skip its
// re-draw, desynchronising the replay.
//
// Channels whose only RNG use is memoryless per-observation draws (the
// abstract channel) need not implement Stateful.
type Stateful interface {
	// SnapshotState returns an opaque deep copy of the channel's persistent
	// state.
	SnapshotState() any
	// RestoreState reinstalls a state previously returned by SnapshotState.
	// The argument is copied, so one snapshot can be restored many times.
	RestoreState(state any)
}

// Releaser is implemented by channels that can recycle the buffers behind
// a Mixed recording once the reader is finished with it. Every recorded
// reader's store hands resolved collision records back through this hook,
// so a run keeps only its unresolved recordings alive; see
// docs/performance.md. A released recording must never be decoded again —
// the record store only releases entries it has marked resolved, and stops
// releasing entirely once a checkpoint clone shares its recordings.
type Releaser interface {
	// ReleaseMixed returns the recording's buffers to the channel for
	// reuse. Recordings the channel does not recognise are ignored.
	ReleaseMixed(m Mixed)
}

// Resettable is implemented by channels whose internal arenas can be
// rewound for a fresh repetition instead of reallocated. The campaign
// runner reuses one channel value across a worker's runs when the channel
// was constructed by the runner itself (Config.NewChannel == nil), calling
// Reset between runs; the reset must leave the channel observably
// indistinguishable from a newly constructed one seeded with r.
type Resettable interface {
	// Reset rewinds all per-run state and installs the new run's RNG.
	// Recordings handed out before the reset become invalid.
	Reset(r *rng.Source)
}

// Observation is the outcome of one report segment.
type Observation struct {
	Kind Kind
	// ID is the decoded tag ID; valid for Singleton and Captured
	// observations.
	ID tagid.ID
	// Mix is the recorded mixed signal; non-nil only for Collision and
	// Captured observations. For Captured it still contains every
	// constituent including the captured tag — the reader subtracts the
	// captured ID like any other identified tag before cascading.
	Mix Mixed
}

// Channel simulates the report segment of a slot: given the set of
// transmitting tags it returns what the reader observes.
type Channel interface {
	Observe(transmitters []tagid.ID) Observation
}

package protocol

import (
	"errors"
	"time"

	"github.com/ancrfid/ancrfid/internal/tagid"
)

// ErrCheckpointMismatch is returned by Session.Restore when the checkpoint
// was taken from a different protocol (or a different session type).
var ErrCheckpointMismatch = errors.New("protocol: checkpoint belongs to a different protocol")

// Checkpoint is an opaque deep copy of a Session's state, produced by
// Session.Snapshot and consumed by Session.Restore. A checkpoint is
// self-contained: restoring it and continuing reproduces exactly the slots,
// events and RNG draws the original session would have produced from the
// snapshot point, and a checkpoint can be restored any number of times.
type Checkpoint interface {
	// Protocol returns the display name of the protocol that produced the
	// checkpoint, e.g. "FCAT-2".
	Protocol() string
}

// Session is a resumable protocol execution: the same identification logic
// as Protocol.Run, restructured as an explicit state machine that advances
// one unit of air activity at a time and whose tag population can change
// between steps.
//
// A Session is single-goroutine, like the Env it runs over. Driving a fresh
// session with Step until done is bit-identical to the batch Run (the
// differential suite in the repository root proves it); between steps a
// dynamic workload may Admit arriving tags, Revoke departing ones, or
// Snapshot the session for later resumption.
//
// Stepping past done is allowed and is how continuous inventory works: the
// protocol keeps monitoring the field (probe slots, empty frames or empty
// rounds, by protocol) and picks newly admitted tags back up.
type Session interface {
	// Protocol returns the display name of the protocol, e.g. "FCAT-2".
	Protocol() string

	// Step advances the session by one unit of air activity — one report
	// segment for the slot-stepped protocols (SCAT, FCAT, DFSA, EDFSA,
	// MDFSA, PRALOHA, CRDSA), one query for the tree protocols (ABS, AQS). It returns done
	// when the protocol's batch termination condition holds (every tag
	// identified as far as the reader can tell), and a non-nil error when
	// the run fails (ErrNoProgress on slot-budget exhaustion). Stepping a
	// done session keeps monitoring the field.
	Step() (done bool, err error)

	// Admit adds tags to the in-field population, effective from the
	// protocol's next natural boundary (immediately for per-slot protocols,
	// next frame for framed ones, next round for tree ones). IDs already
	// admitted or already identified are ignored.
	Admit(ids []tagid.ID)

	// Revoke removes tags from the in-field population: they stop
	// transmitting immediately and their pending collision-record
	// memberships are invalidated (see record.Store.Revoke). Revoking an
	// unknown ID is a no-op.
	Revoke(ids []tagid.ID)

	// Snapshot returns a deep-copy checkpoint of the session. It fails only
	// when the channel's collision recordings do not support cloning (both
	// in-tree channels do).
	Snapshot() (Checkpoint, error)

	// Restore rewinds the session to a checkpoint previously taken from a
	// session of the same protocol configuration over the same Env. The
	// environment's RNG is rewound as part of the restore.
	Restore(Checkpoint) error

	// Metrics returns the metrics accumulated so far, with OnAir set to the
	// current simulated air time. For dynamic populations, Tags counts
	// every tag ever admitted.
	Metrics() Metrics

	// Elapsed returns the simulated air time consumed so far.
	Elapsed() time.Duration

	// Outstanding returns the number of admitted tags the reader has not
	// yet confirmed (identified and, where the protocol acknowledges,
	// successfully acknowledged).
	Outstanding() int
}

// SessionProtocol is a Protocol whose execution can be driven stepwise.
// All nine protocols in this module implement it.
type SessionProtocol interface {
	Protocol
	// Begin opens a session over env. It emits the run-start trace event
	// and performs no air activity; the first Step does.
	Begin(env *Env) Session
}

// RunSession drives a fresh session to completion and emits the run-end
// trace event — the batch semantics of Protocol.Run. Every protocol's Run
// is this wrapper.
func RunSession(p SessionProtocol, env *Env) (Metrics, error) {
	return DriveSession(p.Begin(env), env, p.Name())
}

// DriveSession steps an already-opened session until it reports done or
// fails, then emits the run-end trace event. Callers that need the session
// afterwards (e.g. AQS's retained leaves) open it themselves and hand it
// here.
func DriveSession(s Session, env *Env, name string) (Metrics, error) {
	var err error
	for {
		done, e := s.Step()
		if e != nil {
			err = e
			break
		}
		if done {
			break
		}
	}
	m := s.Metrics()
	env.TraceRunEnd(name, m, err)
	return m, err
}

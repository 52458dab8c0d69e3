// Hosted sessions: the server's unit of work. A hosted session wraps a
// protocol.Session with the bookkeeping the durability and accounting
// contracts need — the op journal that makes it replayable, and the
// per-tag lifecycle ledger that makes the chaos invariants (no duplicate
// identifications, no phantoms, exact accounting) auditable per session,
// live, over HTTP.
package server

import (
	"errors"
	"fmt"
	"time"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/registry"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// ErrReplayDiverged reports a checkpoint whose replay did not reproduce a
// healthy session — the step count could not be reached, a step failed
// where the journal says it once succeeded, or the identification history
// does not match the record's IdentDigest. It marks a checkpoint written
// by a different build or a record that lies; the recovery scan
// quarantines the file.
var ErrReplayDiverged = errors.New("server: checkpoint replay diverged")

// tagState is one tag's accounting bucket. identified is terminal: a tag
// revoked after identification stays identified.
type tagState uint8

const (
	tagActive tagState = iota
	tagIdentified
	tagDeparted // revoked before being read
)

// hosted is one live session. It is owned by exactly one shard worker;
// nothing here is locked.
type hosted struct {
	id   string
	spec Spec
	sess protocol.Session
	env  *protocol.Env

	// steps counts successful Step calls; the journal pins ops to it.
	steps uint64
	ops   []Op
	// ckptSeq numbers checkpoints; opsSinceCkpt and stepsSinceCkpt drive
	// the cadence.
	ckptSeq        uint64
	stepsSinceCkpt uint64
	dirty          bool

	done    bool
	failed  error // terminal step error (e.g. ErrNoProgress)
	created time.Time

	// Accounting ledger, mirrored deterministically by replay.
	tags       map[tagid.ID]tagState
	identified []tagid.ID
	// identDigest is the FNV-1a of identified, folded as tags join it.
	identDigest uint64
	dupIdents   int
	phantoms    int
	departed    int // tags in state tagDeparted
	identCount  int
	// dupReported/phantomReported track how much of the above already
	// reached the global invariant counters (see Server.auditInvariants).
	dupReported     int
	phantomReported int
}

// newHosted builds a fresh session from its spec. The construction
// sequence (RNG derivation, population draw, channel build) is fixed: it
// is the replay contract, so any change here invalidates every checkpoint
// on disk — bump checkpointVersion if it ever must change.
func newHosted(id string, spec Spec, tracer obs.Tracer) (*hosted, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	proto, err := registry.Session(spec.Protocol)
	if err != nil {
		return nil, err
	}
	r := rng.New(spec.Seed)
	tags := tagid.Population(r, spec.Tags)
	var ch channel.Channel
	switch spec.Channel {
	case "signal":
		ch = channel.NewSignal(channel.SignalConfig{NoiseSigma: spec.NoiseSigma, MaxCancel: spec.Lambda}, r)
	default:
		ch = channel.NewAbstract(channel.AbstractConfig{Lambda: spec.Lambda}, r)
	}
	h := &hosted{
		id:          id,
		spec:        spec,
		created:     time.Now(),
		tags:        make(map[tagid.ID]tagState, len(tags)+8),
		identDigest: fnvOffset,
	}
	h.env = &protocol.Env{
		RNG:      r,
		Tags:     tags,
		Channel:  ch,
		Timing:   air.ICode(),
		TxModel:  protocol.TxBinomial,
		MaxSlots: spec.MaxSlots,
		PAckLoss: spec.PAckLoss,
		Tracer:   tracer,
		OnIdentified: func(tid tagid.ID, _ bool) {
			h.onIdentified(tid)
		},
	}
	for _, t := range tags {
		h.tags[t] = tagActive
	}
	h.sess = proto.Begin(h.env)
	return h, nil
}

// onIdentified is the session's identification callback: it maintains the
// ledger and audits the hard invariants. A duplicate or phantom
// identification is counted, surfaced in the status API and the metrics,
// and never double-books the ledger.
func (h *hosted) onIdentified(id tagid.ID) {
	st, known := h.tags[id]
	switch {
	case !known:
		h.phantoms++
	case st == tagIdentified:
		h.dupIdents++
	default:
		if st == tagDeparted {
			h.departed--
		}
		h.tags[id] = tagIdentified
		h.identified = append(h.identified, id)
		h.identCount++
		for _, b := range id {
			h.identDigest = (h.identDigest ^ uint64(b)) * fnvPrime
		}
	}
}

// FNV-1a parameters of the identification-history digest.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// step executes up to n protocol steps, stopping early at the deadline
// (checked every few steps — a livelocked session cannot hold its shard
// hostage) or on a terminal error. It reports the executed count.
func (h *hosted) step(n int, deadline time.Time) (executed int, done bool, err error) {
	if h.failed != nil {
		return 0, false, h.failed
	}
	const deadlineStride = 32
	for executed < n {
		done, err = h.sess.Step()
		if err != nil {
			h.failed = err
			h.dirty = true
			return executed, done, err
		}
		executed++
		h.steps++
		h.stepsSinceCkpt++
		h.done = done
		h.dirty = true
		if executed%deadlineStride == 0 && !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
	}
	return executed, h.done, nil
}

// apply executes one journal op against the session and the ledger. It is
// the single mutation path shared by the live API and replay, so both
// filter identically: an ID is admitted at most once over the session's
// lifetime (re-admissions are ignored), and only currently active tags
// are revoked. The filtered slices — not the raw request — reach the
// protocol session, keeping its draw sequence a pure function of the
// journal.
func (h *hosted) apply(op Op) (admitted, revoked int, err error) {
	if len(op.Admit) > 0 {
		ids := make([]tagid.ID, 0, len(op.Admit))
		for _, hx := range op.Admit {
			id, perr := parseID(hx)
			if perr != nil {
				return 0, 0, perr
			}
			if _, known := h.tags[id]; known {
				continue
			}
			h.tags[id] = tagActive
			ids = append(ids, id)
		}
		if len(ids) > 0 {
			h.sess.Admit(ids)
		}
		admitted = len(ids)
	}
	if len(op.Revoke) > 0 {
		ids := make([]tagid.ID, 0, len(op.Revoke))
		for _, hx := range op.Revoke {
			id, perr := parseID(hx)
			if perr != nil {
				return admitted, 0, perr
			}
			if st, known := h.tags[id]; !known || st != tagActive {
				continue
			}
			h.tags[id] = tagDeparted
			h.departed++
			ids = append(ids, id)
		}
		if len(ids) > 0 {
			h.sess.Revoke(ids)
		}
		revoked = len(ids)
	}
	if admitted > 0 || revoked > 0 {
		h.ops = append(h.ops, Op{AtStep: h.steps, Admit: op.Admit, Revoke: op.Revoke})
		h.dirty = true
	}
	return admitted, revoked, nil
}

// record assembles the session's durable checkpoint payload. It does not
// advance ckptSeq — the writer does, and only once the write succeeded, so
// a failed write leaves the sequence (and the dirty flag) untouched.
func (h *hosted) record() *Record {
	return &Record{
		ID:          h.id,
		Seq:         h.ckptSeq + 1,
		Spec:        h.spec,
		Steps:       h.steps,
		Ops:         h.ops,
		IdentDigest: h.identDigest,
	}
}

// replayHosted rebuilds a session from its checkpoint by deterministic
// replay: reconstruct the env from the spec, then re-execute the journal
// — ops at their recorded step counts, Step calls between them — until
// the checkpointed step count is reached, and require the replayed
// identification history to match the record's digest. Any failure on
// the way is ErrReplayDiverged: the record passed its CRC but does not
// describe a session this build can reproduce, so the caller quarantines
// it.
//
// A record without a digest predates the field. Its abstract-channel
// sessions still replay exactly and are accepted; its signal-channel
// sessions drew polar Box–Muller noise, which this build no longer does,
// so they would reach the same step count with a different history and
// are rejected.
//
// Replay is silent: the session is rebuilt untraced, on the same
// zero-cost path as an untraced campaign, and tracer is attached only
// once the replay is verified. Its history was exported by the process
// that stepped it live, so the protocol counters and the health monitor
// never count a replayed slot twice; the ledger is rebuilt all the same,
// through Env.OnIdentified.
func replayHosted(rec *Record, tracer obs.Tracer) (*hosted, error) {
	if err := rec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrReplayDiverged, err)
	}
	h, err := newHosted(rec.ID, rec.Spec, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrReplayDiverged, err)
	}
	next := 0
	for {
		for next < len(rec.Ops) && rec.Ops[next].AtStep == h.steps {
			if _, _, err := h.apply(rec.Ops[next]); err != nil {
				return nil, fmt.Errorf("%w: op %d: %v", ErrReplayDiverged, next, err)
			}
			next++
		}
		if h.steps >= rec.Steps {
			break
		}
		done, err := h.sess.Step()
		if err != nil {
			return nil, fmt.Errorf("%w: step %d of %d failed: %v", ErrReplayDiverged, h.steps, rec.Steps, err)
		}
		h.steps++
		h.done = done
	}
	if next < len(rec.Ops) {
		return nil, fmt.Errorf("%w: %d ops beyond checkpointed step", ErrReplayDiverged, len(rec.Ops)-next)
	}
	switch {
	case rec.IdentDigest == 0 && h.spec.Channel == "signal":
		return nil, fmt.Errorf("%w: signal-channel record without ident_digest (written before the ziggurat noise sampler)", ErrReplayDiverged)
	case rec.IdentDigest != 0 && rec.IdentDigest != h.identDigest:
		return nil, fmt.Errorf("%w: identification digest %016x, record says %016x", ErrReplayDiverged, h.identDigest, rec.IdentDigest)
	}
	// The journal was re-appended by apply during replay; adopt the
	// canonical one and reset the cadence clock — the rebuilt state is
	// exactly the checkpoint, nothing newer to persist.
	h.ops = rec.Ops
	h.ckptSeq = rec.Seq
	h.stepsSinceCkpt = 0
	h.dirty = false
	h.sess.(interface{ SetTracer(obs.Tracer) }).SetTracer(tracer)
	return h, nil
}

// status is the session's API view.
type status struct {
	ID           string           `json:"id"`
	Protocol     string           `json:"protocol"`
	Steps        uint64           `json:"steps"`
	Done         bool             `json:"done"`
	Failed       string           `json:"failed,omitempty"`
	Admitted     int              `json:"admitted"`
	Identified   int              `json:"identified"`
	Departed     int              `json:"departed_unread"`
	Active       int              `json:"still_active"`
	Outstanding  int              `json:"outstanding"`
	DupIdents    int              `json:"dup_idents"`
	Phantoms     int              `json:"phantoms"`
	Checkpoints  uint64           `json:"checkpoints"`
	ElapsedAirUS int64            `json:"elapsed_air_us"`
	Metrics      protocol.Metrics `json:"metrics"`
	Poisoned     bool             `json:"poisoned,omitempty"`
}

// Status assembles the session's API view, recomputing the accounting
// identity from the ledger (admitted == identified + departed-unread +
// still-active holds by construction; the HTTP layer exposes the raw
// buckets so clients can check it themselves).
func (h *hosted) Status() status {
	st := status{
		ID:           h.id,
		Protocol:     h.spec.Protocol,
		Steps:        h.steps,
		Done:         h.done,
		Admitted:     len(h.tags),
		Identified:   h.identCount,
		Departed:     h.departed,
		Active:       len(h.tags) - h.identCount - h.departed,
		Outstanding:  h.sess.Outstanding(),
		DupIdents:    h.dupIdents,
		Phantoms:     h.phantoms,
		Checkpoints:  h.ckptSeq,
		ElapsedAirUS: h.sess.Elapsed().Microseconds(),
		Metrics:      h.sess.Metrics(),
	}
	if h.failed != nil {
		st.Failed = h.failed.Error()
	}
	return st
}

// Package protocol defines the types shared by every tag-identification
// protocol in this module: the simulation environment, the transmission
// models, the active-tag set, and the run metrics from which the paper's
// tables are computed.
package protocol

import (
	"errors"
	"time"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/fault"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// ErrNoProgress is returned when a protocol exceeds its slot budget without
// identifying every tag; it indicates a livelock (e.g. an over-noisy channel
// where nothing resolves and report probabilities starve).
var ErrNoProgress = errors.New("protocol: slot budget exhausted before all tags were identified")

// TxModel selects how per-slot transmitter sets are drawn for the
// probabilistic protocols (SCAT/FCAT).
type TxModel int

const (
	// TxHash evaluates the real per-tag rule: tag transmits in slot i when
	// H(ID|i) < floor(p*2^l). Exact protocol semantics; O(N) per slot.
	TxHash TxModel = iota + 1
	// TxBinomial draws the transmitter count from Binomial(N_active, p) and
	// picks that many distinct active tags uniformly. Distributionally
	// identical to TxHash for uniformly random IDs (property-tested), and
	// O(omega) per slot, which makes 20000-tag Monte-Carlo sweeps cheap.
	TxBinomial
)

// Env is the environment one protocol run executes in.
type Env struct {
	// RNG drives every random choice of the run.
	RNG *rng.Source
	// Tags is the population to identify.
	Tags []tagid.ID
	// Channel models the report segment and the ANC decoder.
	Channel channel.Channel
	// Timing is the air-interface timing model.
	Timing air.Timing
	// TxModel selects the transmitter-set model (defaults to TxBinomial).
	TxModel TxModel
	// MaxSlots bounds the run; 0 means an automatic budget of
	// 200*N + 10000 slots (the paper observes well-tuned runs use < 3N).
	MaxSlots int
	// OnIdentified, when non-nil, is called once for each tag ID the
	// reader collects, with viaResolution true when the ID was recovered
	// from a collision record rather than read from a singleton slot.
	OnIdentified func(id tagid.ID, viaResolution bool)
	// Tracer, when non-nil, receives the run's full typed event stream
	// (slot outcomes, frame boundaries, advertisements, acknowledgements,
	// collision-record activity, estimator updates; see internal/obs).
	// The nil default costs nothing: every emission point is a nil check
	// around a by-value method call, with no allocation on the hot path.
	Tracer obs.Tracer
	// Clock, when non-nil, is the session's simulated air-time clock.
	// Sessions register their clock in Begin so the trace helpers can stamp
	// every event with the deterministic simulated time it occurred at (the
	// At fields in internal/obs). Nil — e.g. before Begin, or for a custom
	// driver — stamps events with 0. Never read on the tracer-off path.
	Clock *air.Clock
	// PAckLoss is the probability that a reader acknowledgement fails to
	// reach its tag. The tag then keeps transmitting until a later
	// acknowledgement gets through, and the reader discards the duplicate
	// reads — the retransmit-until-confirmed behaviour of Section IV-E.
	// Supported by the ALOHA-family protocols (SCAT, FCAT, DFSA, EDFSA,
	// MDFSA, PRALOHA, CRDSA); the tree protocols use a different feedback
	// structure and ignore it.
	PAckLoss float64
	// Faults, when non-nil, is the run's deterministic fault injector (see
	// internal/fault). It layers additional acknowledgement loss on top of
	// PAckLoss and switches the reader into hardened mode (Hardened), which
	// arms the record store's quarantine defenses. Nil — the default — is
	// the fault-free fast path: no extra RNG draws, no extra allocations,
	// byte-identical behaviour to a build without the injector.
	Faults *fault.Injector
	// Stream enables the streaming campaign mode for mega-N populations:
	// identified tags are compacted out of the active set's backing
	// arrays, so its memory tracks the outstanding population instead of
	// the total one. (Resolved collision records hand their recordings
	// back to a channel.Releaser in every run, streaming or not.)
	// Streaming changes memory management only — no RNG draw, decode
	// decision or trace event moves — so a streaming run is bit-identical
	// to a non-streaming one. See docs/performance.md.
	Stream bool
	// Scratch, when non-nil, is a container of protocol-owned reusable
	// state. The campaign runner threads one container per worker through
	// that worker's runs; protocols that support arena reuse (FCAT, SCAT,
	// MDFSA, PRALOHA) stash their session-sized structures here in Begin
	// and reinitialise them in place on the next run instead of
	// reallocating. Nil — e.g. a
	// standalone RunOnce — allocates fresh structures; reuse never changes
	// a run's draws or decisions.
	Scratch *Scratch
}

// Scratch is a keyed container of protocol-owned reusable state (see
// Env.Scratch). Each protocol namespaces its state under its own key, so a
// mixed campaign threading one container through different protocols is
// safe. The zero value is ready to use; all methods tolerate a nil
// receiver (a no-op container).
type Scratch struct {
	m map[string]any
}

// Get returns the state stored under key, or nil when absent (or when the
// container itself is nil).
func (s *Scratch) Get(key string) any {
	if s == nil {
		return nil
	}
	return s.m[key]
}

// Put stores state under key. A nil container discards the state.
func (s *Scratch) Put(key string, v any) {
	if s == nil {
		return
	}
	if s.m == nil {
		s.m = make(map[string]any, 2)
	}
	s.m[key] = v
}

// Now returns the session's current simulated air time; 0 when no clock is
// registered. It is only called inside tracer-on branches, so the tracer-off
// path stays untouched (and zero-alloc).
func (e *Env) Now() time.Duration {
	if e.Clock == nil {
		return 0
	}
	return e.Clock.Elapsed()
}

// Hardened reports whether the run executes under fault injection. The
// collision-aware protocols arm their record-store defenses (CRC-validated
// cascade decodes, residual-energy quarantine) exactly when it is true, so
// fault-free runs keep their historical, bit-reproducible behaviour.
func (e *Env) Hardened() bool { return e.Faults != nil }

// InjectFaults layers inj over the run: it wraps Channel in a fault.Channel
// that reports to Tracer and has admitted Tags, and installs the wrapper as
// Channel and inj as Faults. Call it once Channel, Tags and Tracer are set.
// The returned wrapper must follow later admissions and departures (its
// Admit and Revoke) so that stuck responders come and go with their tags.
func (e *Env) InjectFaults(inj *fault.Injector) *fault.Channel {
	fch := fault.WrapChannel(e.Channel, inj)
	fch.Tracer = e.Tracer
	fch.AdmitAll(e.Tags)
	e.Channel = fch
	e.Faults = inj
	return fch
}

// AckDelivered draws whether one acknowledgement reaches its tag. The
// baseline PAckLoss draw always happens first (and consumes the run RNG
// identically whether or not faults are configured); the injector can only
// drop additional acknowledgements, never resurrect one.
func (e *Env) AckDelivered() bool {
	delivered := e.PAckLoss <= 0 || !e.RNG.Bool(e.PAckLoss)
	if e.Faults == nil {
		return delivered
	}
	if !e.Faults.AckDelivered() {
		if e.Tracer != nil {
			e.Tracer.Emit(obs.Event{Kind: obs.FaultInjected, Seq: int(e.Faults.Acks()),
				Sub: uint8(obs.FaultAckLoss)})
		}
		return false
	}
	return delivered
}

// NotifyIdentified invokes the OnIdentified callback if one is set and
// forwards the identification to the tracer. Protocols call it exactly once
// per counted tag, so tracer-side tallies match Metrics.DirectIDs and
// Metrics.ResolvedIDs.
func (e *Env) NotifyIdentified(id tagid.ID, viaResolution bool) {
	if e.OnIdentified != nil {
		e.OnIdentified(id, viaResolution)
	}
	if e.Tracer != nil {
		e.Tracer.Emit(obs.Event{Kind: obs.TagIdentified, ID: id, Flag: viaResolution, At: e.Now()})
	}
}

// TraceRunStart emits the run-opening event.
func (e *Env) TraceRunStart(protocol string) {
	if e.Tracer != nil {
		e.Tracer.Emit(obs.Event{Kind: obs.RunStart, Label: protocol, N1: len(e.Tags)})
	}
}

// TraceRunEnd emits the run-closing event with the finished run's totals.
func (e *Env) TraceRunEnd(protocol string, m Metrics, err error) {
	if e.Tracer == nil {
		return
	}
	ev := obs.Event{
		Kind:  obs.RunEnd,
		Label: protocol,
		Seq:   m.TotalSlots(),
		N1:    m.Frames,
		N2:    m.DirectIDs,
		N3:    m.ResolvedIDs,
		At:    m.OnAir,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	e.Tracer.Emit(ev)
}

// Emit forwards ev to the tracer as is (a no-op without one). Events whose
// At the caller already knows (workload arrivals and departures,
// checkpoints) go through it.
func (e *Env) Emit(ev obs.Event) {
	if e.Tracer != nil {
		e.Tracer.Emit(ev)
	}
}

// EmitNow stamps ev.At with the session's current air time and forwards
// it to the tracer (a no-op without one).
func (e *Env) EmitNow(ev obs.Event) {
	if e.Tracer != nil {
		ev.At = e.Now()
		e.Tracer.Emit(ev)
	}
}

// SlotBudget returns the effective slot bound for the run.
func (e *Env) SlotBudget() int {
	if e.MaxSlots > 0 {
		return e.MaxSlots
	}
	return 200*len(e.Tags) + 10000
}

// Protocol is a complete tag-identification protocol.
type Protocol interface {
	// Name returns the display name used in tables (e.g. "FCAT-2").
	Name() string
	// Run identifies every tag in the environment and returns the run's
	// metrics. Implementations must be deterministic given env.RNG.
	Run(env *Env) (Metrics, error)
}

// Metrics aggregates the observable outcomes of one protocol run. The
// paper's Tables I-IV and Figures 5-6 are all functions of these fields.
type Metrics struct {
	// Tags is the population size.
	Tags int
	// EmptySlots, SingletonSlots and CollisionSlots break down the report
	// segments by outcome (Table II).
	EmptySlots     int
	SingletonSlots int
	CollisionSlots int
	// DirectIDs counts tags identified from their own singleton slot;
	// ResolvedIDs counts tags recovered from collision records via ANC
	// (Table III).
	DirectIDs   int
	ResolvedIDs int
	// Frames counts protocol frames (0 for unframed protocols).
	Frames int
	// TagTransmissions counts every individual tag transmission (each
	// costs the tag transmit energy; tree protocols make tags answer at
	// every tree level, ALOHA-family tags answer a few times in total —
	// the energy axis studied by the paper's reference [14]).
	TagTransmissions int
	// OnAir is the simulated air time of the whole run, including slot
	// guards, advertisements and acknowledgement payloads.
	OnAir time.Duration
}

// TransmissionsPerTag returns the mean number of times each tag keyed its
// transmitter during the run.
func (m Metrics) TransmissionsPerTag() float64 {
	if m.Tags == 0 {
		return 0
	}
	return float64(m.TagTransmissions) / float64(m.Tags)
}

// TotalSlots returns the number of report segments used.
func (m Metrics) TotalSlots() int {
	return m.EmptySlots + m.SingletonSlots + m.CollisionSlots
}

// Identified returns the number of tags the reader collected.
func (m Metrics) Identified() int { return m.DirectIDs + m.ResolvedIDs }

// Throughput returns the reading throughput in tag IDs per second: the
// paper's headline metric (Section VI-A).
func (m Metrics) Throughput() float64 {
	if m.OnAir <= 0 {
		return 0
	}
	return float64(m.Identified()) / m.OnAir.Seconds()
}

// Package obs is the observability layer of the simulator: one flat,
// allocation-free event stream emitted by every protocol run, plus the
// consumers that turn it into traces, spans, metrics and health scores.
//
// The paper's argument is entirely about what happens *inside* slots —
// collision records accumulating, ANC cancellation cascades, the embedded
// estimator locking on (Eq. 12) — so the event kinds mirror exactly those
// moments (see EventKind for the full list and each kind's payload).
//
// A Tracer has one method, Emit(Event). Event is a fixed-size value (a
// Kind, a timestamp and a small payload of plain fields) passed by value,
// so emitting never allocates. Producers hold a Tracer behind a nil check
// (see protocol.Env.Tracer): a run without observers builds no events at
// all. bench_test.go guards this with a testing.AllocsPerRun assertion.
//
// Consumers provided here each switch on the kinds they use and ignore
// the rest:
//
//   - JSONL: a machine-readable trace writer (one JSON object per line,
//     schema versioned by SchemaVersion; see docs/observability.md).
//   - Timeline: a human-readable slot timeline for debugging cascades.
//   - MetricsTracer: feeds an atomic counter/histogram Registry whose
//     totals mirror protocol.Metrics (cross-checked in tests) and whose
//     text dump parses as "key value" lines.
//   - SpanBuilder: folds the stream into hierarchical spans.
//   - HealthMonitor: scores the traced system's health.
//   - Buffer: records a stream and replays it in order.
//   - Func: adapts a plain func(Event) for ad-hoc observers.
//   - Multi: fans out to several tracers.
package obs

import (
	"time"

	"github.com/ancrfid/ancrfid/internal/tagid"
)

// SchemaVersion is the version number stamped on every JSONL trace line.
// It increments whenever an existing field changes meaning or is removed;
// adding new event types or new fields is backward compatible and does not
// bump it (see docs/observability.md for the full policy).
const SchemaVersion = 1

// AckKind classifies a reader acknowledgement.
type AckKind uint8

const (
	// AckDirect acknowledges a tag read from its own singleton slot.
	AckDirect AckKind = iota + 1
	// AckResolvedIndex acknowledges an ID recovered from a collision
	// record by broadcasting the record's 23-bit slot index (FCAT,
	// Section V-A).
	AckResolvedIndex
	// AckResolvedID acknowledges a recovered ID by broadcasting the full
	// 96-bit ID (SCAT and the frame-based collision resolvers).
	AckResolvedID
)

// String returns the acknowledgement-kind name.
func (k AckKind) String() string {
	switch k {
	case AckDirect:
		return "direct"
	case AckResolvedIndex:
		return "resolved-index"
	case AckResolvedID:
		return "resolved-id"
	default:
		return "unknown"
	}
}

// FaultKind classifies an injected fault (see internal/fault).
type FaultKind uint8

const (
	// FaultBurst marks a slot spoiled by Gilbert–Elliott burst noise.
	FaultBurst FaultKind = iota + 1
	// FaultAckLoss marks a reader acknowledgement dropped by the injector.
	FaultAckLoss
	// FaultMute marks a mute tag filtered out of a slot's transmitters.
	FaultMute
	// FaultStuck marks a stuck responder keying up out of protocol.
	FaultStuck
	// FaultCorruptSingleton marks a lone report corrupted in flight.
	FaultCorruptSingleton
	// FaultCorruptDecode marks a record decode silently yielding a
	// bit-flipped ID.
	FaultCorruptDecode
	// FaultCrash marks a reader crash at a slot boundary.
	FaultCrash
)

// String returns the fault-kind name.
func (k FaultKind) String() string {
	switch k {
	case FaultBurst:
		return "burst"
	case FaultAckLoss:
		return "ack-loss"
	case FaultMute:
		return "mute"
	case FaultStuck:
		return "stuck"
	case FaultCorruptSingleton:
		return "corrupt-singleton"
	case FaultCorruptDecode:
		return "corrupt-decode"
	case FaultCrash:
		return "crash"
	default:
		return "unknown"
	}
}

// FleetKind classifies multi-reader scheduler activity (see internal/fleet).
type FleetKind uint8

const (
	// FleetSlotBlocked marks a transmission grant denied by the fleet's
	// coordination policy (TDMA out-of-phase, listen-before-talk deferral).
	FleetSlotBlocked FleetKind = iota + 1
	// FleetSlotInterfered marks a slot spoiled by a reader transmitting in
	// an adjacent interrogation zone (reader-to-reader interference).
	FleetSlotInterfered
	// FleetMigration marks a tag leaving one interrogation zone and being
	// admitted into the next.
	FleetMigration
)

// String returns the fleet-activity-kind name.
func (k FleetKind) String() string {
	switch k {
	case FleetSlotBlocked:
		return "blocked"
	case FleetSlotInterfered:
		return "interfered"
	case FleetMigration:
		return "migration"
	default:
		return "unknown"
	}
}

// EventKind names one kind of event in the stream. Every kind shares the
// Event layout; the fields a kind does not list stay zero. The payload of
// each kind (the JSONL event name in parentheses):
//
//	RunStart (run_start)          Label=protocol N1=population
//	RunEnd (run_end)              Label=protocol Err=run error ("" on success)
//	                              Seq=slots N1=frames N2=direct IDs
//	                              N3=resolved IDs At=air time at finish
//	FrameStart (frame)            Seq=first slot N1=frame number (1-based)
//	                              N2=frame size F1=report probability (0 for
//	                              frame-ALOHA protocols) At
//	Advertisement (advert)        Seq=advertised slot F1=report probability At
//	SlotDone (slot)               Seq Sub=channel.Kind observed N1=transmitters
//	                              (ground truth) N2=identified so far
//	                              At=after the slot's acks and resolution work
//	TagIdentified (identify)      ID Flag=via resolution At
//	AckSent (ack)                 Seq=slot acknowledged ID Sub=AckKind
//	                              Flag=delivered At
//	RecordCreated (record)        Seq=record slot index N1=multiplicity
//	                              N2=members still unknown when stored
//	CascadeStep (cascade)         ID=tag subtracted N1=records it touched
//	                              N2=depth (0 for the starting identification)
//	RecordResolved (resolve)      Seq=record slot index ID=recovered tag
//	                              ID2=trigger (zero when resolved as stored)
//	                              N1=depth Flag=dup (residual already known)
//	EstimatorUpdate (estimate)    N1=frame (0 outside frames) N2=identified
//	                              F1=population estimate F2=single-frame
//	                              estimate (0 when not from a frame) At
//	TagArrival (arrival)          ID N1=present population after admission At
//	TagDeparture (departure)      ID Flag=identified before leaving At
//	SessionCheckpoint (checkpoint) Seq=checkpoint counter N1=present
//	                              population N2=identified At
//	FaultInjected (fault)         Seq=slot (the dropped ack's ordinal for
//	                              ack loss) Sub=FaultKind ID=affected tag
//	                              (zero for slot-scoped faults)
//	RecordQuarantined (quarantine) Seq=record slot index Label=reason ("crc",
//	                              "residual" or "order") N1=record multiplicity
//	ReaderRestart (restart)       Seq=wall slots executed N1=checkpoint
//	                              restored At=air time it rewinds to
//	FleetActivity (fleet)         N1=reader N2=zone (destination for
//	                              migrations) N3=source zone (-1 unless a
//	                              migration) Sub=FleetKind ID=migrating tag
//	                              At=fleet wall-clock time
//
// Only dynamic workloads emit arrivals, departures and checkpoints; only
// runs with a fault configuration emit faults, restarts and the "crc" and
// "residual" quarantines; only fleet runs emit fleet activity. MDFSA and
// PRALOHA quarantine with reason "order" with or without faults: their
// record store drops every collision record above the capability bound
// M+1 at the door.
//
// Adding a kind costs one constant here, one payload row above, one name
// in eventNames and one case each in JSONL.Emit and Timeline.Emit (the
// other consumers ignore kinds they do not use); TestEventKindCoverage
// checks every kind.
type EventKind uint8

const (
	RunStart EventKind = iota + 1
	RunEnd
	FrameStart
	Advertisement
	SlotDone
	TagIdentified
	AckSent
	RecordCreated
	CascadeStep
	RecordResolved
	EstimatorUpdate
	TagArrival
	TagDeparture
	SessionCheckpoint
	FaultInjected
	RecordQuarantined
	ReaderRestart
	FleetActivity
)

// eventNames backs String; the names double as JSONL "ev" values.
var eventNames = [...]string{
	RunStart:          "run_start",
	RunEnd:            "run_end",
	FrameStart:        "frame",
	Advertisement:     "advert",
	SlotDone:          "slot",
	TagIdentified:     "identify",
	AckSent:           "ack",
	RecordCreated:     "record",
	CascadeStep:       "cascade",
	RecordResolved:    "resolve",
	EstimatorUpdate:   "estimate",
	TagArrival:        "arrival",
	TagDeparture:      "departure",
	SessionCheckpoint: "checkpoint",
	FaultInjected:     "fault",
	RecordQuarantined: "quarantine",
	ReaderRestart:     "restart",
	FleetActivity:     "fleet",
}

// String returns the event-kind name, the JSONL "ev" value.
func (k EventKind) String() string {
	if int(k) < len(eventNames) && eventNames[k] != "" {
		return eventNames[k]
	}
	return "unknown"
}

// Event is one entry of the stream: a kind, a simulated-time stamp and a
// small fixed payload whose meaning per kind is listed on EventKind. It
// holds no pointers beyond its two strings, so passing it by value through
// a Tracer allocates nothing.
type Event struct {
	Kind EventKind
	// Sub is the kind's classifier: a channel.Kind, AckKind, FaultKind or
	// FleetKind.
	Sub uint8
	// Flag is the kind's boolean.
	Flag bool
	// At is the simulated air time of the event (0 for record-store
	// events, which carry no timestamp of their own).
	At time.Duration
	// Seq is the kind's sequence number or slot index.
	Seq        int
	N1, N2, N3 int
	F1, F2     float64
	ID, ID2    tagid.ID
	Label, Err string
}

// Tracer receives the event stream of a protocol run. Implementations must
// tolerate every kind from any protocol (a DFSA run emits no record or
// estimator events, a tree run emits only run/slot events, and so on) and
// ignore the kinds they do not use.
type Tracer interface {
	Emit(Event)
}

// Func adapts a plain function into a Tracer — the quickest way to observe
// a run ad hoc:
//
//	env.Tracer = obs.Func(func(ev obs.Event) {
//		if ev.Kind == obs.RecordResolved { ... }
//	})
type Func func(Event)

// Emit implements Tracer.
func (f Func) Emit(ev Event) { f(ev) }

// Multi fans every event out to each tracer in order. Nil members are
// skipped, so Multi(a, nil, b) is valid.
func Multi(tracers ...Tracer) Tracer {
	kept := make([]Tracer, 0, len(tracers))
	for _, t := range tracers {
		if t != nil {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multi(kept)
}

type multi []Tracer

func (m multi) Emit(ev Event) {
	for _, t := range m {
		t.Emit(ev)
	}
}

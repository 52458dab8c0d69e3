package obs

import "time"

// SpanKind classifies a span in the hierarchical trace model: a campaign
// contains runs, a run contains frames (framed protocols) and slots, a slot
// contains the record/cascade/decode activity it triggered, and a frame-end
// resolution phase (CRDSA-style iterative cancellation) groups the decode
// work that happens between a frame's last slot and the next frame.
type SpanKind uint8

const (
	// Duration spans.
	SpanCampaign SpanKind = iota + 1
	SpanRun
	SpanFrame
	SpanSlot
	// SpanResolution is a frame-end resolution phase: cascade/decode work
	// emitted after a frame's last slot (iterative cancellation protocols).
	SpanResolution
	// Instant spans (Start == End).
	SpanAdvert
	SpanIdentify
	SpanAck
	SpanRecord
	SpanCascade
	SpanResolve
	SpanEstimate
	SpanArrival
	SpanDeparture
	SpanCheckpoint
	SpanFault
	SpanQuarantine
	SpanRestart
	SpanFleet
)

// spanKindNames backs String; the names double as Chrome-trace event names.
var spanKindNames = [...]string{
	SpanCampaign:   "campaign",
	SpanRun:        "run",
	SpanFrame:      "frame",
	SpanSlot:       "slot",
	SpanResolution: "resolution",
	SpanAdvert:     "advert",
	SpanIdentify:   "identify",
	SpanAck:        "ack",
	SpanRecord:     "record",
	SpanCascade:    "cascade",
	SpanResolve:    "resolve",
	SpanEstimate:   "estimate",
	SpanArrival:    "arrival",
	SpanDeparture:  "departure",
	SpanCheckpoint: "checkpoint",
	SpanFault:      "fault",
	SpanQuarantine: "quarantine",
	SpanRestart:    "restart",
	SpanFleet:      "fleet",
}

// String returns the span-kind name.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) && spanKindNames[k] != "" {
		return spanKindNames[k]
	}
	return "unknown"
}

// Instant reports whether the kind is a point event (Start == End).
func (k SpanKind) Instant() bool { return k >= SpanAdvert }

// Span is one node of the hierarchical trace: a [Start, End] interval of
// simulated air time with a parent link. IDs are assigned sequentially in
// event order by SpanBuilder, so a span stream is deterministic — byte-
// identical for any worker count when fed through the campaign harness's
// ordered-merge replay. The payload fields are deliberately flat (no maps,
// no slices) so emitting a span allocates nothing.
type Span struct {
	// ID is the span's unique identifier within the stream (1 is the
	// campaign span); Parent is the containing span's ID (0 for the
	// campaign).
	ID     uint64
	Parent uint64
	Kind   SpanKind
	// Run is the 0-based run index; -1 on the campaign span.
	Run int
	// Seq is a kind-specific sequence number: the slot sequence for slots
	// and acks, the first-slot sequence for frames, the checkpoint sequence
	// for checkpoints and restarts; -1 when not applicable.
	Seq int
	// Start and End bound the span in the run's simulated air time
	// (Start == End for instants; Start <= End always).
	Start time.Duration
	End   time.Duration
	// Label carries the protocol name on run spans; empty otherwise.
	Label string
	// N1 and N2 are kind-specific payloads:
	//   run        N1=population          N2=0
	//   frame      N1=frame number        N2=frame size
	//   slot       N1=observed kind       N2=transmitters
	//   identify   N1=viaResolution(0/1)  N2=0
	//   ack        N1=AckKind             N2=delivered(0/1)
	//   record     N1=multiplicity        N2=unknown members
	//   cascade    N1=records touched     N2=depth
	//   resolve    N1=depth               N2=dup(0/1)
	//   estimate   N1=round(estimate)     N2=identified
	//   arrival    N1=active              N2=0
	//   departure  N1=identified(0/1)     N2=0
	//   checkpoint N1=active              N2=identified
	//   fault      N1=FaultKind           N2=0
	//   quarantine N1=members             N2=0
	//   restart    N1=wall slots          N2=0
	//   fleet      N1=FleetKind           N2=zone
	N1, N2 int
}

// SpanSink consumes the span stream of a SpanBuilder. Duration spans are
// emitted when they close, instants immediately; the campaign span is
// emitted last, by Close.
type SpanSink interface {
	EmitSpan(Span)
}

// SpanSinkFunc adapts a function to a SpanSink.
type SpanSinkFunc func(Span)

// EmitSpan implements SpanSink.
func (f SpanSinkFunc) EmitSpan(s Span) { f(s) }

// SpanBuilder folds the flat event stream into hierarchical spans: it
// implements Tracer, tracks the open campaign/run/frame/slot nesting, and
// emits each span to its sink as the span closes. Timestamps come from the
// events' At fields (deterministic simulated time); events without a
// timestamp of their own (record-store activity) are stamped at the
// builder's running cursor, the time of the slot that triggered them.
//
// Feed it as (part of) a campaign Tracer: the parallel harness buffers and
// replays events in run order, so the span stream — IDs included — is
// byte-identical for any worker count. Call Close after the campaign to
// flush the campaign span.
type SpanBuilder struct {
	sink   SpanSink
	nextID uint64

	run     int           // current run index; -1 before the first run
	cursor  time.Duration // running timestamp within the run (rewinds on restart)
	runHi   time.Duration // high-water mark of the current run
	campHi  time.Duration // high-water mark across runs
	runOpen bool

	runSpan   Span
	frameSpan Span // open frame; ID 0 when none
	pendSpan  Span // open slot / resolution phase; ID 0 when none
	pendSlots int  // SlotDone count inside pendSpan (0 = pure resolution phase)
	frameHi   time.Duration
	pendHi    time.Duration
}

// NewSpanBuilder returns a builder emitting into sink.
func NewSpanBuilder(sink SpanSink) *SpanBuilder {
	b := &SpanBuilder{sink: sink, run: -1, nextID: 1}
	return b
}

// id assigns the next span ID.
func (b *SpanBuilder) id() uint64 {
	b.nextID++
	return b.nextID
}

// advance moves the cursor (and every open high-water mark) forward to at;
// a zero or backward at leaves the cursor in place.
func (b *SpanBuilder) advance(at time.Duration) {
	if at > b.cursor {
		b.cursor = at
	}
	if b.cursor > b.runHi {
		b.runHi = b.cursor
	}
	if b.cursor > b.campHi {
		b.campHi = b.cursor
	}
	if b.frameSpan.ID != 0 && b.cursor > b.frameHi {
		b.frameHi = b.cursor
	}
	if b.pendSpan.ID != 0 && b.cursor > b.pendHi {
		b.pendHi = b.cursor
	}
}

// parent returns the innermost open container's ID.
func (b *SpanBuilder) parent() uint64 {
	if b.pendSpan.ID != 0 {
		return b.pendSpan.ID
	}
	if b.frameSpan.ID != 0 {
		return b.frameSpan.ID
	}
	if b.runOpen {
		return b.runSpan.ID
	}
	return 1 // campaign
}

// openPending opens the slot-or-resolution span the next slot-scoped events
// nest under, starting at the cursor (the previous slot's end).
func (b *SpanBuilder) openPending() {
	if b.pendSpan.ID != 0 {
		return
	}
	start := b.cursor
	if b.frameSpan.ID != 0 && start < b.frameSpan.Start {
		start = b.frameSpan.Start // post-restart rewind clamp
	}
	// Assigned field by field: a composite literal would build a temporary
	// Span and copy it, a cost BenchmarkSpanEmit sees on every slot.
	p := &b.pendSpan
	p.ID, p.Parent, p.Kind, p.Run, p.Seq = b.id(), b.parentOfPending(), SpanSlot, b.run, -1
	p.Start, p.End, p.Label, p.N1, p.N2 = start, 0, "", 0, 0
	b.pendHi = start
	b.pendSlots = 0
}

func (b *SpanBuilder) parentOfPending() uint64 {
	if b.frameSpan.ID != 0 {
		return b.frameSpan.ID
	}
	if b.runOpen {
		return b.runSpan.ID
	}
	return 1
}

// closePending flushes the open slot span. A pending span that never saw a
// SlotDone (decode work after a frame's last slot) closes as a resolution
// phase instead of a slot.
func (b *SpanBuilder) closePending() {
	if b.pendSpan.ID == 0 {
		return
	}
	if b.pendSlots == 0 {
		b.pendSpan.Kind = SpanResolution
	}
	b.pendSpan.End = b.pendHi
	b.sink.EmitSpan(b.pendSpan)
	b.pendSpan.ID = 0 // closed; openPending rebuilds the whole span
}

// instant emits a point span at the cursor under the given parent.
func (b *SpanBuilder) instant(kind SpanKind, parent uint64, seq, n1, n2 int) {
	at := b.cursor
	b.sink.EmitSpan(Span{ID: b.id(), Parent: parent, Kind: kind, Run: b.run,
		Seq: seq, Start: at, End: at, N1: n1, N2: n2})
}

// closeFrame flushes the open frame span.
func (b *SpanBuilder) closeFrame() {
	if b.frameSpan.ID == 0 {
		return
	}
	sp := b.frameSpan
	sp.End = b.frameHi
	b.frameSpan = Span{}
	b.sink.EmitSpan(sp)
}

// closeRun flushes the open run span.
func (b *SpanBuilder) closeRun() {
	if !b.runOpen {
		return
	}
	b.closePending()
	b.closeFrame()
	sp := b.runSpan
	sp.End = b.runHi
	b.runOpen = false
	b.sink.EmitSpan(sp)
}

// Emit implements Tracer.
func (b *SpanBuilder) Emit(ev Event) {
	switch ev.Kind {
	case RunStart:
		b.closeRun()
		b.run++
		b.cursor = 0
		b.runHi = 0
		b.runSpan = Span{ID: b.id(), Parent: 1, Kind: SpanRun, Run: b.run, Seq: -1,
			Label: ev.Label, N1: ev.N1}
		b.runOpen = true
	case RunEnd:
		b.advance(ev.At)
		b.closeRun()
	case FrameStart:
		b.closePending()
		b.closeFrame()
		start := b.cursor
		b.advance(ev.At)
		b.frameSpan = Span{ID: b.id(), Parent: b.parentOfPending(), Kind: SpanFrame,
			Run: b.run, Seq: ev.Seq, Start: start, N1: ev.N1, N2: ev.N2}
		b.frameHi = b.cursor
	case Advertisement:
		// A per-slot advertisement opens the slot it pays for (any
		// frame-end decode work still pending closes first).
		b.closePending()
		b.openPending()
		b.advance(ev.At)
		b.instant(SpanAdvert, b.pendSpan.ID, ev.Seq, 0, 0)
	case SlotDone:
		// Close the pending slot span, opening one retroactively for
		// slots with no inner events (e.g. empty slots).
		b.openPending()
		b.advance(ev.At)
		b.pendSpan.Seq = ev.Seq
		b.pendSpan.N1 = int(ev.Sub)
		b.pendSpan.N2 = ev.N1
		b.pendSlots++
		b.closePending()
	case TagIdentified:
		b.openPending()
		b.advance(ev.At)
		b.instant(SpanIdentify, b.pendSpan.ID, -1, bit(ev.Flag), 0)
	case AckSent:
		b.openPending()
		b.advance(ev.At)
		b.instant(SpanAck, b.pendSpan.ID, ev.Seq, int(ev.Sub), bit(ev.Flag))
	case RecordCreated:
		// Record-store events carry no timestamp; they are stamped at the
		// cursor, the time of the slot that produced them.
		b.openPending()
		b.instant(SpanRecord, b.pendSpan.ID, -1, ev.N1, ev.N2)
	case CascadeStep:
		b.openPending()
		b.instant(SpanCascade, b.pendSpan.ID, -1, ev.N1, ev.N2)
	case RecordResolved:
		b.openPending()
		b.instant(SpanResolve, b.pendSpan.ID, -1, ev.N1, bit(ev.Flag))
	case EstimatorUpdate:
		// Estimates close the frame-end decode phase (they are computed
		// from the finished frame, not from a slot).
		b.closePending()
		b.advance(ev.At)
		b.instant(SpanEstimate, b.parent(), -1, int(ev.F1+0.5), ev.N2)
	case TagArrival:
		b.advance(ev.At)
		b.instant(SpanArrival, b.runParent(), -1, ev.N1, 0)
	case TagDeparture:
		b.advance(ev.At)
		b.instant(SpanDeparture, b.runParent(), -1, bit(ev.Flag), 0)
	case SessionCheckpoint:
		b.advance(ev.At)
		b.instant(SpanCheckpoint, b.runParent(), ev.Seq, ev.N1, ev.N2)
	case FaultInjected:
		// Faults fire mid-slot, so they nest under the open slot when
		// there is one.
		b.instant(SpanFault, b.parent(), -1, int(ev.Sub), 0)
	case RecordQuarantined:
		b.instant(SpanQuarantine, b.parent(), -1, ev.N1, 0)
	case ReaderRestart:
		// A crash-restart rewinds the cursor to the restored checkpoint's
		// simulated time (the one place time moves backwards); high-water
		// marks keep already-closed spans consistent.
		b.closePending()
		b.cursor = ev.At
		b.instant(SpanRestart, b.runParent(), ev.N1, ev.Seq, 0)
	case FleetActivity:
		// Fleet-scheduler instants carry a wall-clock timestamp that can
		// run ahead of the reader's air clock, so they are stamped at the
		// cursor (like record-store events) rather than advancing it. Seq
		// carries the reader index.
		b.instant(SpanFleet, b.parent(), ev.N1, int(ev.Sub), ev.N2)
	}
}

// bit converts a flag to the 0/1 span payload.
func bit(f bool) int {
	if f {
		return 1
	}
	return 0
}

// runParent returns the run span's ID (workload-level events never nest
// under frames or slots).
func (b *SpanBuilder) runParent() uint64 {
	if b.runOpen {
		return b.runSpan.ID
	}
	return 1
}

// Close flushes any open spans and emits the campaign span (ID 1, covering
// every run). Call it once after the campaign; the builder must not be
// reused afterwards.
func (b *SpanBuilder) Close() {
	b.closeRun()
	b.sink.EmitSpan(Span{ID: 1, Kind: SpanCampaign, Run: -1, Seq: -1, End: b.campHi})
}

package obs

import (
	"strconv"
	"time"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Metric names fed by MetricsTracer. The slot, frame, identification and
// transmission counters mirror the protocol.Metrics fields of the traced
// runs exactly (summed over runs when one registry serves a campaign);
// the remaining counters expose what Metrics cannot see: acknowledgement
// fates, record-store activity and cascade structure.
const (
	MetricRunsStarted   = "runs.started"
	MetricRunsCompleted = "runs.completed"
	MetricRunsFailed    = "runs.failed"

	MetricSlotsEmpty     = "slots.empty"
	MetricSlotsSingleton = "slots.singleton"
	MetricSlotsCollision = "slots.collision"

	MetricFrames  = "frames"
	MetricAdverts = "adverts"

	MetricTxTotal = "tx.total"

	MetricIDsDirect   = "ids.direct"
	MetricIDsResolved = "ids.resolved"

	MetricAcksSent = "acks.sent"
	MetricAcksLost = "acks.lost"

	MetricRecordsCreated  = "records.created"
	MetricRecordsResolved = "records.resolved"
	MetricRecordsSpent    = "records.spent"
	MetricCascadeSteps    = "cascade.steps"

	MetricEstimatorUpdates = "estimator.updates"

	MetricTagsArrived        = "tags.arrived"
	MetricTagsDeparted       = "tags.departed"
	MetricTagsDepartedUnread = "tags.departed_unread"
	MetricCheckpoints        = "checkpoints"

	HistTxPerSlot    = "hist.tx_per_slot"
	HistCascadeDepth = "hist.cascade_depth"
	HistRecordMult   = "hist.record_multiplicity"

	// Streaming quantile sketches (see Sketch): identification latency in
	// microseconds of simulated time — arrival-to-identification in dynamic
	// runs, run-start-to-identification in batch runs — and cascade depth of
	// every non-duplicate record resolution. Percentiles of both are
	// available mid-run without storing per-tag records.
	SketchIdentLatencyUS = "sketch.ident_latency_us"
	SketchCascadeDepth   = "sketch.cascade_depth"

	// Fault-path counters. Unlike the handles above these are created
	// lazily, on the first matching event: Registry.WriteTo prints every
	// registered counter (zeros included), and a fault-free campaign's
	// metrics dump must stay byte-identical to earlier releases.
	MetricFaultsPrefix       = "faults." // + FaultKind.String()
	MetricRecordsQuarantined = "records.quarantined"
	MetricReaderRestarts     = "reader.restarts"

	// Fleet-scheduler counter families (see internal/fleet). Like the
	// fault-path counters these are created lazily, on the first fleet
	// event, so single-reader campaigns keep byte-identical metrics dumps.
	// Each fleet event feeds a per-kind total ("fleet.<kind>") and a
	// reader-labelled family member ("fleet.<kind>.reader<i>").
	MetricFleetPrefix = "fleet." // + FleetKind.String() [+ ".reader<i>"]
)

// MetricsTracer feeds a Registry from the event stream. The counter handles
// are resolved once at construction, so per-event cost is a handful of
// atomic adds — safe for concurrent runs sharing one registry.
type MetricsTracer struct {
	runsStarted, runsCompleted, runsFailed     *Counter
	slotsEmpty, slotsSingleton, slotsCollision *Counter
	frames, adverts                            *Counter
	txTotal                                    *Counter
	idsDirect, idsResolved                     *Counter
	acksSent, acksLost                         *Counter
	recCreated, recResolved, recSpent          *Counter
	cascadeSteps, estimatorUpdates             *Counter
	tagsArrived, tagsDeparted, departedUnread  *Counter
	checkpoints                                *Counter
	txPerSlot, cascadeDepth, recordMult        *Histogram
	identLatency, cascadeDepthSketch           *Sketch

	// arrivals maps tag -> arrival time for latency stamping; it is created
	// lazily on the first TagArrival event, so batch runs (which never emit
	// arrivals) pay nothing and measure latency from run start.
	arrivals map[tagid.ID]time.Duration

	// reg backs the lazily created fault-path handles below; faultKinds
	// caches per-kind counters after first use.
	reg         *Registry
	faultKinds  [FaultCrash + 1]*Counter
	quarantined *Counter
	restarts    *Counter

	// fleetTotals and fleetReaders back the lazily created fleet counter
	// families, keyed by kind and by (kind, reader) respectively.
	fleetTotals  [FleetMigration + 1]*Counter
	fleetReaders map[uint32]*Counter
}

// NewMetricsTracer returns a tracer that accumulates into reg.
func NewMetricsTracer(reg *Registry) *MetricsTracer {
	return &MetricsTracer{
		runsStarted:        reg.Counter(MetricRunsStarted),
		runsCompleted:      reg.Counter(MetricRunsCompleted),
		runsFailed:         reg.Counter(MetricRunsFailed),
		slotsEmpty:         reg.Counter(MetricSlotsEmpty),
		slotsSingleton:     reg.Counter(MetricSlotsSingleton),
		slotsCollision:     reg.Counter(MetricSlotsCollision),
		frames:             reg.Counter(MetricFrames),
		adverts:            reg.Counter(MetricAdverts),
		txTotal:            reg.Counter(MetricTxTotal),
		idsDirect:          reg.Counter(MetricIDsDirect),
		idsResolved:        reg.Counter(MetricIDsResolved),
		acksSent:           reg.Counter(MetricAcksSent),
		acksLost:           reg.Counter(MetricAcksLost),
		recCreated:         reg.Counter(MetricRecordsCreated),
		recResolved:        reg.Counter(MetricRecordsResolved),
		recSpent:           reg.Counter(MetricRecordsSpent),
		cascadeSteps:       reg.Counter(MetricCascadeSteps),
		estimatorUpdates:   reg.Counter(MetricEstimatorUpdates),
		tagsArrived:        reg.Counter(MetricTagsArrived),
		tagsDeparted:       reg.Counter(MetricTagsDeparted),
		departedUnread:     reg.Counter(MetricTagsDepartedUnread),
		checkpoints:        reg.Counter(MetricCheckpoints),
		txPerSlot:          reg.Histogram(HistTxPerSlot),
		cascadeDepth:       reg.Histogram(HistCascadeDepth),
		recordMult:         reg.Histogram(HistRecordMult),
		identLatency:       reg.Sketch(SketchIdentLatencyUS),
		cascadeDepthSketch: reg.Sketch(SketchCascadeDepth),
		reg:                reg,
	}
}

// Emit implements Tracer.
func (t *MetricsTracer) Emit(ev Event) {
	switch ev.Kind {
	case RunStart:
		t.runsStarted.Inc()
		clear(t.arrivals)
	case RunEnd:
		if ev.Err == "" {
			t.runsCompleted.Inc()
		} else {
			t.runsFailed.Inc()
		}
	case FrameStart:
		t.frames.Inc()
	case Advertisement:
		t.adverts.Inc()
	case SlotDone:
		// Classify by the observed kind, not the transmitter count: a
		// corrupted singleton observes as a collision and must count as one.
		switch channel.Kind(ev.Sub) {
		case channel.Empty:
			t.slotsEmpty.Inc()
		case channel.Singleton:
			t.slotsSingleton.Inc()
		case channel.Collision, channel.Captured:
			// A captured slot still occupied the air as a collision;
			// counting it there keeps the registry's counter set (and the
			// golden hashes over its dump) stable whether or not capture
			// is enabled.
			t.slotsCollision.Inc()
		}
		t.txTotal.Add(int64(ev.N1))
		t.txPerSlot.Observe(int64(ev.N1))
	case TagIdentified:
		if ev.Flag {
			t.idsResolved.Inc()
		} else {
			t.idsDirect.Inc()
		}
		lat := ev.At
		if t0, ok := t.arrivals[ev.ID]; ok {
			lat = ev.At - t0
		}
		t.identLatency.Observe(lat.Microseconds())
	case AckSent:
		t.acksSent.Inc()
		if !ev.Flag {
			t.acksLost.Inc()
		}
	case RecordCreated:
		t.recCreated.Inc()
		t.recordMult.Observe(int64(ev.N1))
	case CascadeStep:
		t.cascadeSteps.Inc()
	case RecordResolved:
		if ev.Flag {
			t.recSpent.Inc()
			return
		}
		t.recResolved.Inc()
		t.cascadeDepth.Observe(int64(ev.N1))
		t.cascadeDepthSketch.Observe(int64(ev.N1))
	case EstimatorUpdate:
		t.estimatorUpdates.Inc()
	case TagArrival:
		t.tagsArrived.Inc()
		if t.arrivals == nil {
			t.arrivals = make(map[tagid.ID]time.Duration)
		}
		t.arrivals[ev.ID] = ev.At
	case TagDeparture:
		t.tagsDeparted.Inc()
		if !ev.Flag {
			t.departedUnread.Inc()
		}
	case SessionCheckpoint:
		t.checkpoints.Inc()
	case FaultInjected:
		k := FaultKind(ev.Sub)
		if int(k) >= len(t.faultKinds) {
			k = 0
		}
		c := t.faultKinds[k]
		if c == nil {
			c = t.reg.Counter(MetricFaultsPrefix + FaultKind(ev.Sub).String())
			t.faultKinds[k] = c
		}
		c.Inc()
	case RecordQuarantined:
		if t.quarantined == nil {
			t.quarantined = t.reg.Counter(MetricRecordsQuarantined)
		}
		t.quarantined.Inc()
	case ReaderRestart:
		if t.restarts == nil {
			t.restarts = t.reg.Counter(MetricReaderRestarts)
		}
		t.restarts.Inc()
	case FleetActivity:
		t.fleetActivity(FleetKind(ev.Sub), ev.N1)
	}
}

// fleetActivity bumps the lazily created fleet counter families.
func (t *MetricsTracer) fleetActivity(kind FleetKind, reader int) {
	k := kind
	if int(k) >= len(t.fleetTotals) {
		k = 0
	}
	c := t.fleetTotals[k]
	if c == nil {
		c = t.reg.Counter(MetricFleetPrefix + kind.String())
		t.fleetTotals[k] = c
	}
	c.Inc()
	if reader < 0 || reader > 0xffff {
		return
	}
	key := uint32(k)<<16 | uint32(reader)
	rc := t.fleetReaders[key]
	if rc == nil {
		if t.fleetReaders == nil {
			t.fleetReaders = make(map[uint32]*Counter)
		}
		rc = t.reg.Counter(MetricFleetPrefix + kind.String() + ".reader" + strconv.Itoa(reader))
		t.fleetReaders[key] = rc
	}
	rc.Inc()
}

package obs

import (
	"testing"

	"github.com/ancrfid/ancrfid/internal/channel"
)

// collisionSlot is a non-empty slot that identifies nothing.
func collisionSlot(seq int) Event {
	return Event{Kind: SlotDone, Seq: seq, Sub: uint8(channel.Collision), N1: 3}
}

// TestHealthStallAndRecovery: StallSlots consecutive barren non-empty slots
// open a stall episode (scoring down), the next identification closes it,
// and empty slots never count toward a stall.
func TestHealthStallAndRecovery(t *testing.T) {
	var events []HealthEvent
	m := NewHealthMonitor(HealthConfig{StallSlots: 5})
	m.OnEvent = func(ev HealthEvent) { events = append(events, ev) }

	m.Emit(Event{Kind: RunStart, Label: "X", N1: 10})
	for i := 0; i < 4; i++ {
		m.Emit(collisionSlot(i))
	}
	// Empty slots must not advance the stall counter.
	for i := 4; i < 40; i++ {
		m.Emit(Event{Kind: SlotDone, Seq: i, Sub: uint8(channel.Empty)})
	}
	if len(events) != 0 {
		t.Fatalf("no stall expected yet, got %v", events)
	}
	m.Emit(collisionSlot(40)) // 5th consecutive barren non-empty slot
	if len(events) != 1 || events[0].Kind != HealthStall {
		t.Fatalf("want one HealthStall, got %v", events)
	}
	if s := m.Snapshot(); !s.Stalled || s.Stalls != 1 || s.Score >= 100 {
		t.Fatalf("stalled snapshot wrong: %+v", s)
	}

	// An identification inside the next slot ends the episode.
	m.Emit(Event{Kind: TagIdentified})
	m.Emit(Event{Kind: SlotDone, Seq: 41, Sub: uint8(channel.Singleton), N1: 1})
	if len(events) != 2 || events[1].Kind != HealthRecovered {
		t.Fatalf("want HealthRecovered, got %v", events)
	}
	if s := m.Snapshot(); s.Stalled || s.Stalls != 1 {
		t.Fatalf("recovered snapshot wrong: %+v", s)
	}
}

// TestHealthQuarantineSurge: the rate detector stays quiet below the
// threshold and under the minimum record count, then fires once.
func TestHealthQuarantineSurge(t *testing.T) {
	var events []HealthEvent
	m := NewHealthMonitor(HealthConfig{QuarantineRateMax: 0.25, QuarantineMinRecords: 8})
	m.OnEvent = func(ev HealthEvent) { events = append(events, ev) }
	m.Emit(Event{Kind: RunStart})

	// 2 quarantines in 4 records is over-rate but under the minimum count.
	for i := 0; i < 4; i++ {
		m.Emit(Event{Kind: RecordCreated, N1: 2})
	}
	m.Emit(Event{Kind: RecordQuarantined})
	m.Emit(Event{Kind: RecordQuarantined})
	if len(events) != 0 {
		t.Fatalf("surge fired under the record minimum: %v", events)
	}
	for i := 0; i < 4; i++ {
		m.Emit(Event{Kind: RecordCreated, N1: 2})
	}
	m.Emit(Event{Kind: RecordQuarantined}) // 3/8 > 0.25 with 8 records
	if len(events) != 1 || events[0].Kind != HealthQuarantineSurge {
		t.Fatalf("want one HealthQuarantineSurge, got %v", events)
	}
	m.Emit(Event{Kind: RecordQuarantined}) // latched: no second event
	if len(events) != 1 {
		t.Fatalf("surge must fire once, got %v", events)
	}
	if s := m.Snapshot(); s.Score > 80 {
		t.Fatalf("surge must cost at least 20 points, snapshot %+v", s)
	}
}

// TestHealthRunFailure: failed runs emit events and drag the score down,
// saturating rather than going negative.
func TestHealthRunFailure(t *testing.T) {
	m := NewHealthMonitor(HealthConfig{})
	m.Emit(Event{Kind: RunStart})
	m.Emit(Event{Kind: RunEnd, Err: "boom"})
	if got := m.Score(); got != 75 {
		t.Fatalf("one failed run: score %v, want 75", got)
	}
	for i := 0; i < 10; i++ {
		m.Emit(Event{Kind: RunStart})
		m.Emit(Event{Kind: RunEnd, Err: "boom"})
	}
	if got := m.Score(); got != 50 {
		t.Fatalf("failure penalty must cap at 50: score %v", got)
	}
	if got := m.Snapshot(); got.RunsFailed != 11 || got.Healthy {
		t.Fatalf("snapshot %+v, want 11 failures and unhealthy", got)
	}
}

// TestHealthThroughputEWMA: the rolling throughput tracks identifications
// per slot.
func TestHealthThroughputEWMA(t *testing.T) {
	m := NewHealthMonitor(HealthConfig{EWMAAlpha: 0.5})
	m.Emit(Event{Kind: RunStart})
	for i := 0; i < 20; i++ {
		m.Emit(Event{Kind: TagIdentified})
		m.Emit(Event{Kind: SlotDone, Seq: i, Sub: uint8(channel.Singleton), N1: 1})
	}
	if tp := m.Snapshot().Throughput; tp < 0.99 || tp > 1.01 {
		t.Fatalf("steady 1 id/slot: EWMA %v, want ~1", tp)
	}
}

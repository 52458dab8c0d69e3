package scat

import (
	"testing"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/protocol"
)

// newAllocRun opens a session against the given env, believing the
// population to be n.
func newAllocRun(p *Protocol, e *protocol.Env, n int) *session {
	r := p.Begin(e).(*session)
	r.n = n
	return r
}

// TestEmptySlotZeroAlloc drives the steady-state empty-slot loop (a reader
// waiting on a population that never reports — here, an empty field with an
// overshooting pre-estimate) and requires it to be allocation-free with the
// tracer off.
func TestEmptySlotZeroAlloc(t *testing.T) {
	for _, tx := range []protocol.TxModel{protocol.TxBinomial, protocol.TxHash} {
		e := env(1, 0, channel.AbstractConfig{Lambda: 2})
		e.TxModel = tx
		// A huge probe trigger keeps the run from terminating on the
		// consecutive-empty heuristic while the guard measures.
		r := newAllocRun(New(Config{EmptyProbeAfter: 1 << 30}), e, 400)
		slot := uint64(0)
		for ; slot < 32; slot++ { // warm up buffers and maps
			if r.doSlot(slot) {
				t.Fatal("empty steady state terminated")
			}
		}
		allocs := testing.AllocsPerRun(300, func() {
			if r.doSlot(slot) {
				t.Fatal("empty steady state terminated")
			}
			slot++
		})
		if allocs != 0 {
			t.Errorf("tx=%v: empty slot allocates %v times, want 0", tx, allocs)
		}
	}
}

// TestSingletonSlotZeroAlloc drives the steady-state singleton loop: one
// tag whose acknowledgements are all lost retransmits forever, exercising
// the duplicate-discard path, the acknowledgement draw and the (empty)
// resolution cascade every slot. It must be allocation-free with the
// tracer off.
func TestSingletonSlotZeroAlloc(t *testing.T) {
	for _, tx := range []protocol.TxModel{protocol.TxBinomial, protocol.TxHash} {
		e := env(2, 1, channel.AbstractConfig{Lambda: 2})
		e.TxModel = tx
		e.PAckLoss = 1
		r := newAllocRun(New(Config{}), e, 1)
		slot := uint64(0)
		for ; slot < 32; slot++ {
			if r.doSlot(slot) {
				t.Fatal("singleton steady state terminated")
			}
		}
		if r.M.SingletonSlots == 0 || r.M.Identified() != 1 {
			t.Fatalf("unexpected warmup state: %+v", r.M)
		}
		allocs := testing.AllocsPerRun(300, func() {
			if r.doSlot(slot) {
				t.Fatal("singleton steady state terminated")
			}
			slot++
		})
		if allocs != 0 {
			t.Errorf("tx=%v: singleton slot allocates %v times, want 0", tx, allocs)
		}
	}
}

package fcat

import (
	"testing"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/protocol"
)

// newAllocRun opens a session against the given env.
func newAllocRun(e *protocol.Env) *session {
	return New(Config{}).Begin(e).(*session)
}

// TestEmptySlotZeroAlloc requires the steady-state empty slot (p = 0: no
// tag reports) to be allocation-free with the tracer off, under both
// transmission models.
func TestEmptySlotZeroAlloc(t *testing.T) {
	for _, tx := range []protocol.TxModel{protocol.TxBinomial, protocol.TxHash} {
		e := env(1, 500, channel.AbstractConfig{Lambda: 2})
		e.TxModel = tx
		r := newAllocRun(e)
		for i := 0; i < 32; i++ { // warm up buffers and maps
			if _, err := r.doSlot(0); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(300, func() {
			if _, err := r.doSlot(0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("tx=%v: empty slot allocates %v times, want 0", tx, allocs)
		}
	}
}

// TestSingletonSlotZeroAlloc requires the steady-state singleton slot to be
// allocation-free: one tag whose acknowledgements are all lost retransmits
// forever at p = 1, exercising the duplicate-discard path, the
// acknowledgement draw and the (empty) resolution cascade every slot.
func TestSingletonSlotZeroAlloc(t *testing.T) {
	for _, tx := range []protocol.TxModel{protocol.TxBinomial, protocol.TxHash} {
		e := env(2, 1, channel.AbstractConfig{Lambda: 2})
		e.TxModel = tx
		e.PAckLoss = 1
		r := newAllocRun(e)
		for i := 0; i < 32; i++ {
			kind, err := r.doSlot(1)
			if err != nil {
				t.Fatal(err)
			}
			if kind != channel.Singleton {
				t.Fatalf("warmup slot %d: kind %v, want singleton", i, kind)
			}
		}
		if r.M.Identified() != 1 {
			t.Fatalf("unexpected warmup state: %+v", r.M)
		}
		allocs := testing.AllocsPerRun(300, func() {
			if _, err := r.doSlot(1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("tx=%v: singleton slot allocates %v times, want 0", tx, allocs)
		}
	}
}

package obs

// Buffer is a Tracer that records a run's event stream in memory and plays
// it back later, in the exact order it was recorded. The sim harness uses
// one Buffer per concurrent run so that a parallel campaign can replay the
// runs' streams back-to-back in run-index order, making the merged trace
// byte-identical to a sequential campaign's.
//
// A Buffer is not safe for concurrent use — it records exactly one run.
type Buffer struct {
	events []Event
}

// Emit implements Tracer.
func (b *Buffer) Emit(ev Event) { b.events = append(b.events, ev) }

// Len returns the number of buffered events.
func (b *Buffer) Len() int { return len(b.events) }

// Reset empties the buffer, retaining capacity.
func (b *Buffer) Reset() { b.events = b.events[:0] }

// Replay delivers every buffered event to t in recorded order. A nil t is
// a no-op. The buffer is left intact; call Reset to reuse it.
func (b *Buffer) Replay(t Tracer) {
	if t == nil {
		return
	}
	for _, ev := range b.events {
		t.Emit(ev)
	}
}

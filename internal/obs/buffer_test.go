package obs

import (
	"bytes"
	"testing"
)

// TestBufferReplayIdentical records a stream containing every event type
// and checks the replayed JSONL bytes match a direct emission exactly —
// the property the parallel sim harness relies on.
func TestBufferReplayIdentical(t *testing.T) {
	var direct bytes.Buffer
	emitOneOfEach(NewJSONL(&direct))

	buf := &Buffer{}
	emitOneOfEach(buf)
	if buf.Len() != 18 {
		t.Fatalf("buffered %d events, want 18", buf.Len())
	}
	var replayed bytes.Buffer
	buf.Replay(NewJSONL(&replayed))

	if !bytes.Equal(direct.Bytes(), replayed.Bytes()) {
		t.Fatalf("replayed trace differs from direct trace\ndirect:\n%s\nreplayed:\n%s",
			direct.String(), replayed.String())
	}
}

// TestBufferReplayTwiceAndReset checks Replay is non-destructive and Reset
// empties the buffer.
func TestBufferReplayTwiceAndReset(t *testing.T) {
	buf := &Buffer{}
	emitOneOfEach(buf)

	var a, b bytes.Buffer
	buf.Replay(NewJSONL(&a))
	buf.Replay(NewJSONL(&b))
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("second replay differs from first")
	}

	buf.Replay(nil) // nil target is a no-op

	buf.Reset()
	if buf.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", buf.Len())
	}
	var c bytes.Buffer
	buf.Replay(NewJSONL(&c))
	if c.Len() != 0 {
		t.Fatalf("replay after Reset emitted %d bytes", c.Len())
	}
}

// TestBufferInterleavingPreserved checks that events of the same type keep
// their relative order across interleavings with other types.
func TestBufferInterleavingPreserved(t *testing.T) {
	buf := &Buffer{}
	buf.Emit(Event{Kind: SlotDone, Seq: 0})
	buf.Emit(Event{Kind: FrameStart, N1: 1})
	buf.Emit(Event{Kind: SlotDone, Seq: 1})
	buf.Emit(Event{Kind: FrameStart, N1: 2})
	buf.Emit(Event{Kind: SlotDone, Seq: 2})

	var got []int
	buf.Replay(Func(func(ev Event) {
		switch ev.Kind {
		case SlotDone:
			got = append(got, ev.Seq)
		case FrameStart:
			got = append(got, -ev.N1)
		}
	}))
	want := []int{0, -1, 1, -2, 2}
	if len(got) != len(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed %v, want %v", got, want)
		}
	}
}

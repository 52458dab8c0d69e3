package protocol

import (
	"testing"

	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// TestActiveSetStreamCompaction: with streaming on, removing most of a
// large population must shrink the backing arrays, and compaction must be
// invisible to the set's observable behaviour (order, membership, draws).
func TestActiveSetStreamCompaction(t *testing.T) {
	r := rng.New(11)
	tags := tagid.Population(r, 4096)
	s := NewActiveSet(tags)
	s.SetStream(true)
	mirror := NewActiveSet(tags) // no streaming: the behavioural reference

	for i, id := range tags {
		if i == len(tags)-13 {
			break // keep a small live tail
		}
		if !s.Remove(id) || !mirror.Remove(id) {
			t.Fatalf("tag %d not active", i)
		}
	}
	if got, want := s.Len(), mirror.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got := cap(s.ids); got >= 1024 {
		t.Errorf("streaming set kept cap %d after retiring to %d live tags", got, s.Len())
	}
	// Entry order and membership must match the uncompacted reference
	// exactly: Transmitters draws index into this order.
	for i, id := range mirror.IDs() {
		if s.ids[i] != id {
			t.Fatalf("order diverged at %d after compaction", i)
		}
		if !s.Contains(id) {
			t.Fatalf("live tag %v lost by compaction", id)
		}
		if int(s.pos[id]) != i {
			t.Fatalf("position index stale for %v", id)
		}
	}
	buf1 := mirror.Transmitters(rng.New(5), TxHash, 77, 0.5, nil)
	buf2 := s.Transmitters(rng.New(5), TxHash, 77, 0.5, nil)
	if len(buf1) != len(buf2) {
		t.Fatalf("transmitter draw diverged: %d vs %d", len(buf1), len(buf2))
	}
	for i := range buf1 {
		if buf1[i] != buf2[i] {
			t.Fatalf("transmitter %d diverged", i)
		}
	}
}

// TestActiveSetCloneKeepsStream: a clone of a streaming set (a session
// restored from a checkpoint) must keep compacting as its tags retire.
func TestActiveSetCloneKeepsStream(t *testing.T) {
	tags := tagid.Population(rng.New(12), 4096)
	s := NewActiveSet(tags)
	s.SetStream(true)
	c := s.Clone()
	for _, id := range tags[:4000] {
		if !c.Remove(id) {
			t.Fatalf("tag %v not active in the clone", id)
		}
	}
	if got := cap(c.ids); got >= 1024 {
		t.Errorf("clone of a streaming set kept cap %d after retiring to %d live tags", got, c.Len())
	}
	if s.Len() != len(tags) {
		t.Errorf("removing from the clone changed the original: Len %d, want %d", s.Len(), len(tags))
	}
}

// TestActiveSetResetTags: the in-place reinitialisation must be equivalent
// to a fresh set, including after streaming compaction mangled the arrays.
func TestActiveSetResetTags(t *testing.T) {
	r := rng.New(13)
	first := tagid.Population(r, 2048)
	second := tagid.Population(r, 300)

	s := NewActiveSet(first)
	s.SetStream(true)
	for _, id := range first[:2000] {
		s.Remove(id)
	}
	s.ResetTags(second)

	fresh := NewActiveSet(second)
	if s.Len() != fresh.Len() {
		t.Fatalf("Len = %d, want %d", s.Len(), fresh.Len())
	}
	for i, id := range fresh.IDs() {
		if s.ids[i] != id || s.prefixes[i] != fresh.prefixes[i] || int(s.pos[id]) != i {
			t.Fatalf("reset set diverges from fresh set at %d", i)
		}
	}
	if s.stream {
		t.Error("ResetTags kept the stream flag armed")
	}
	// And the reused set must behave identically on removals.
	for _, id := range second[:100] {
		if s.Remove(id) != fresh.Remove(id) {
			t.Fatalf("Remove diverged for %v", id)
		}
	}
	if s.Len() != fresh.Len() {
		t.Fatalf("post-removal Len = %d, want %d", s.Len(), fresh.Len())
	}
}

// TestActiveSetStreamRetireZeroAlloc pins the streaming retire path: a
// steady-state Remove+Add cycle (live count far above the compaction
// trigger) must not allocate — retiring identified tags out of a mega-N
// inventory is pure swap-delete.
func TestActiveSetStreamRetireZeroAlloc(t *testing.T) {
	r := rng.New(17)
	tags := tagid.Population(r, 2048)
	s := NewActiveSet(tags)
	s.SetStream(true)
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		id := tags[i%len(tags)]
		if !s.Remove(id) {
			t.Fatal("tag not active")
		}
		if !s.Add(id) {
			t.Fatal("tag not re-added")
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("streaming retire cycle allocates %v times, want 0", allocs)
	}
}

package record

import (
	"testing"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// TestDropAbovePrunes: records beyond the bound are never indexed — no
// cascade ever yields from them — while records at or below it behave
// exactly as without the bound.
func TestDropAbovePrunes(t *testing.T) {
	r := rng.New(1)
	ch := channel.NewAbstract(channel.AbstractConfig{Lambda: 2}, r)
	ids := tagid.Population(rng.New(2), 5)

	s := NewStore()
	s.DropAbove = 2
	big := ch.Observe(ids[:4]) // multiplicity 4 > 2: pruned
	if got := s.Add(0, big.Mix, ids[:4]); got != nil {
		t.Fatalf("pruned Add returned %v", got)
	}
	if s.Active() != 0 || s.dropped != 1 || s.total != 1 {
		t.Fatalf("after prune: active=%d dropped=%d total=%d", s.Active(), s.dropped, s.total)
	}
	// Identifying members of the pruned record must not resolve anything.
	if got := s.OnIdentified(ids[0]); len(got) != 0 {
		t.Fatalf("cascade through pruned record yielded %v", got)
	}

	small := ch.Observe(ids[1:3]) // multiplicity 2: kept
	if got := s.Add(1, small.Mix, ids[1:3]); got != nil {
		t.Fatalf("unexpected immediate resolution: %v", got)
	}
	if s.Active() != 1 {
		t.Fatalf("kept record not active: %d", s.Active())
	}
	res := s.OnIdentified(ids[1])
	if len(res) != 1 || res[0].ID != ids[2] {
		t.Fatalf("kept record cascade = %v, want %v", res, ids[2])
	}
}

// TestDropAboveZeroDisabled: the zero value changes nothing.
func TestDropAboveZeroDisabled(t *testing.T) {
	r := rng.New(3)
	ch := channel.NewAbstract(channel.AbstractConfig{Lambda: 4}, r)
	ids := tagid.Population(rng.New(4), 4)
	s := NewStore()
	ob := ch.Observe(ids[:4])
	s.Add(0, ob.Mix, ids[:4])
	if s.Active() != 1 || s.dropped != 0 {
		t.Fatalf("active=%d dropped=%d, want 1, 0", s.Active(), s.dropped)
	}
	s.OnIdentified(ids[0])
	s.OnIdentified(ids[1])
	res := s.OnIdentified(ids[2])
	if len(res) != 1 || res[0].ID != ids[3] {
		t.Fatalf("cascade = %v, want %v", res, ids[3])
	}
}

// TestDropAboveReleasesStreaming: in streaming mode a pruned record's
// recording goes straight back to the channel.
func TestDropAboveReleasesStreaming(t *testing.T) {
	r := rng.New(5)
	ch := channel.NewAbstract(channel.AbstractConfig{Lambda: 2}, r)
	ids := tagid.Population(rng.New(6), 4)
	s := NewStore()
	s.DropAbove = 2
	s.SetReleaser(ch)
	ob := ch.Observe(ids[:4])
	s.Add(0, ob.Mix, ids[:4])
	// The released recording should be recycled by the very next Observe.
	ob2 := ch.Observe(ids[:3])
	if ob2.Mix != ob.Mix {
		t.Fatal("pruned recording was not recycled through the releaser")
	}
}

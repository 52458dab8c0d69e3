package record

import (
	"testing"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// newMix produces an abstract collision record over the given tags.
func newMix(t *testing.T, lambda int, tags ...tagid.ID) channel.Mixed {
	t.Helper()
	ch := channel.NewAbstract(channel.AbstractConfig{Lambda: lambda}, rng.New(99))
	obs := ch.Observe(tags)
	if obs.Kind != channel.Collision {
		t.Fatalf("expected a collision, got %v", obs.Kind)
	}
	return obs.Mix
}

func pop(n int) []tagid.ID { return tagid.Population(rng.New(7), n) }

func TestSimpleResolution(t *testing.T) {
	tags := pop(2)
	s := NewStore()
	s.Add(5, newMix(t, 2, tags...), tags)
	if s.Active() != 1 || s.total != 1 {
		t.Fatalf("Active=%d Total=%d", s.Active(), s.total)
	}

	got := s.OnIdentified(tags[0])
	if len(got) != 1 || got[0].ID != tags[1] || got[0].Slot != 5 {
		t.Fatalf("OnIdentified = %v", got)
	}
	if s.Active() != 0 {
		t.Fatalf("Active=%d after resolution", s.Active())
	}
}

func TestCascadeChain(t *testing.T) {
	// Records {A,B}@1 and {B,C}@2: identifying A resolves B, which
	// resolves C — the chain of Fig. 1 in the paper.
	tags := pop(3)
	a, b, c := tags[0], tags[1], tags[2]
	s := NewStore()
	s.Add(1, newMix(t, 2, a, b), []tagid.ID{a, b})
	s.Add(2, newMix(t, 2, b, c), []tagid.ID{b, c})

	got := s.OnIdentified(a)
	if len(got) != 2 {
		t.Fatalf("cascade yielded %d IDs, want 2", len(got))
	}
	if got[0].ID != b || got[0].Slot != 1 {
		t.Errorf("first recovery %v, want B@1", got[0])
	}
	if got[1].ID != c || got[1].Slot != 2 {
		t.Errorf("second recovery %v, want C@2", got[1])
	}
}

func TestNoDoubleYield(t *testing.T) {
	// Records {A,C}@1 and {B,C}@2. Identifying B resolves C from record 2,
	// and the cascade propagates C into record 1, which then yields A —
	// every ID exactly once. A later (redundant) identification of A must
	// recover nothing: both records are spent and C is already known.
	tags := pop(3)
	a, b, c := tags[0], tags[1], tags[2]
	s := NewStore()
	s.Add(1, newMix(t, 2, a, c), []tagid.ID{a, c})
	s.Add(2, newMix(t, 2, b, c), []tagid.ID{b, c})

	first := s.OnIdentified(b)
	if len(first) != 2 || first[0].ID != c || first[0].Slot != 2 || first[1].ID != a || first[1].Slot != 1 {
		t.Fatalf("first cascade = %v, want [C@2, A@1]", first)
	}
	if second := s.OnIdentified(a); len(second) != 0 {
		t.Fatalf("second cascade yielded %v; nothing must be recovered twice", second)
	}
	if s.Active() != 0 {
		t.Fatalf("%d records still active", s.Active())
	}
}

func TestUnresolvableMultiplicity(t *testing.T) {
	// A 3-collision under a lambda=2 decoder never resolves.
	tags := pop(3)
	s := NewStore()
	s.Add(1, newMix(t, 2, tags...), tags)
	if got := s.OnIdentified(tags[0]); len(got) != 0 {
		t.Fatalf("yielded %v from an unresolvable record", got)
	}
	if got := s.OnIdentified(tags[1]); len(got) != 0 {
		t.Fatalf("yielded %v from an unresolvable record", got)
	}
	if s.Active() != 1 {
		t.Fatalf("unresolvable record left the store")
	}
}

func TestThreeCollisionWithLambda3(t *testing.T) {
	tags := pop(3)
	s := NewStore()
	s.Add(9, newMix(t, 3, tags...), tags)
	if got := s.OnIdentified(tags[0]); len(got) != 0 {
		t.Fatal("resolved with two unknowns")
	}
	got := s.OnIdentified(tags[1])
	if len(got) != 1 || got[0].ID != tags[2] || got[0].Slot != 9 {
		t.Fatalf("got %v", got)
	}
}

func TestIdentifyingNonMemberIsNoOp(t *testing.T) {
	tags := pop(3)
	s := NewStore()
	s.Add(1, newMix(t, 2, tags[0], tags[1]), []tagid.ID{tags[0], tags[1]})
	if got := s.OnIdentified(tags[2]); len(got) != 0 {
		t.Fatalf("non-member identification yielded %v", got)
	}
	if s.Active() != 1 {
		t.Fatal("record count changed")
	}
}

func TestWideCascade(t *testing.T) {
	// A hub tag appearing in many records unlocks all of them at once.
	tags := pop(6)
	hub := tags[0]
	s := NewStore()
	for i, other := range tags[1:] {
		s.Add(uint64(i), newMix(t, 2, hub, other), []tagid.ID{hub, other})
	}
	got := s.OnIdentified(hub)
	if len(got) != 5 {
		t.Fatalf("hub cascade yielded %d, want 5", len(got))
	}
	seen := make(map[tagid.ID]bool)
	for _, res := range got {
		if seen[res.ID] {
			t.Fatalf("duplicate recovery of %v", res.ID)
		}
		seen[res.ID] = true
	}
	if s.Active() != 0 {
		t.Fatalf("%d records left active", s.Active())
	}
}

func TestEmptyStore(t *testing.T) {
	s := NewStore()
	if got := s.OnIdentified(pop(1)[0]); len(got) != 0 {
		t.Fatal("empty store yielded recoveries")
	}
	if s.Active() != 0 || s.total != 0 {
		t.Fatal("empty store has nonzero counts")
	}
}

func TestTwinRecordsYieldOnce(t *testing.T) {
	// Regression (found by the agentsim differential test): two records
	// over the same pair, {A,B}@1 and {A,B}@2, both strip to B when A is
	// learned; B must be yielded exactly once and both records spent.
	tags := pop(2)
	a, b := tags[0], tags[1]
	s := NewStore()
	s.Add(1, newMix(t, 2, a, b), []tagid.ID{a, b})
	s.Add(2, newMix(t, 2, a, b), []tagid.ID{a, b})

	got := s.OnIdentified(a)
	if len(got) != 1 || got[0].ID != b {
		t.Fatalf("cascade yielded %v, want B exactly once", got)
	}
	if s.Active() != 0 {
		t.Fatalf("%d records still active; both twins are spent", s.Active())
	}
}

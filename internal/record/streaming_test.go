package record

import (
	"testing"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// recordingReleaser counts the recordings handed back through the
// streaming-spill hook.
type recordingReleaser struct {
	released []channel.Mixed
}

func (r *recordingReleaser) ReleaseMixed(m channel.Mixed) { r.released = append(r.released, m) }

// TestStoreReleaserSpill: every path that marks a record resolved must hand
// its recording back exactly once and drop the store's own reference.
func TestStoreReleaserSpill(t *testing.T) {
	r := rng.New(21)
	ids := tagid.Population(r, 4)
	rel := &recordingReleaser{}

	s := NewStore()
	s.SetReleaser(rel)

	// Cascade spill: {a,b} stored outstanding, then a identified.
	s.Add(1, newMix(t, 2, ids[0], ids[1]), []tagid.ID{ids[0], ids[1]})
	if len(rel.released) != 0 {
		t.Fatalf("outstanding record released early")
	}
	res := s.OnIdentified(ids[0])
	if len(res) != 1 || res[0].ID != ids[1] {
		t.Fatalf("cascade did not resolve: %v", res)
	}
	if len(rel.released) != 1 {
		t.Fatalf("cascade-resolved record released %d times, want 1", len(rel.released))
	}

	// Immediate-resolve spill: all but one member already known.
	s.Add(2, newMix(t, 2, ids[0], ids[2]), []tagid.ID{ids[0], ids[2]})
	if len(rel.released) != 2 {
		t.Fatalf("add-resolved record not released (%d)", len(rel.released))
	}

	// Spent-record spill: every member a known retransmitter.
	s.Add(3, newMix(t, 2, ids[0], ids[1]), []tagid.ID{ids[0], ids[1]})
	if len(rel.released) != 3 {
		t.Fatalf("spent record not released (%d)", len(rel.released))
	}
	if s.Active() != 0 {
		t.Fatalf("active = %d, want 0", s.Active())
	}
}

// TestStoreCloneDisablesSpill: once a checkpoint clone shares the store's
// recordings, releasing must stop permanently — a clone's unresolved
// records alias the same buffers.
func TestStoreCloneDisablesSpill(t *testing.T) {
	r := rng.New(22)
	ids := tagid.Population(r, 3)
	rel := &recordingReleaser{}

	s := NewStore()
	s.SetReleaser(rel)
	s.Add(1, newMix(t, 2, ids[0], ids[1]), []tagid.ID{ids[0], ids[1]})
	if _, err := s.Clone(); err != nil {
		t.Fatal(err)
	}
	if res := s.OnIdentified(ids[0]); len(res) != 1 {
		t.Fatalf("cascade did not resolve: %v", res)
	}
	if len(rel.released) != 0 {
		t.Fatalf("post-clone resolve released %d recordings, want 0", len(rel.released))
	}
}

// TestStoreResetEquivalence: a Reset store must behave exactly like a
// fresh one — same resolutions, same counters — while retaining its arena
// chunks.
func TestStoreResetEquivalence(t *testing.T) {
	r := rng.New(23)
	ids := tagid.Population(r, 600)

	exercise := func(s *Store) (resolved, active, total int) {
		for i := 0; i+1 < len(ids); i += 2 {
			s.Add(uint64(i), newMix(t, 2, ids[i], ids[i+1]), []tagid.ID{ids[i], ids[i+1]})
		}
		for i := 0; i+1 < len(ids); i += 2 {
			resolved += len(s.OnIdentified(ids[i]))
		}
		return resolved, s.Active(), s.total
	}

	fresh := NewStore()
	wantRes, wantAct, wantTot := exercise(fresh)

	reused := NewStore()
	reused.SetReleaser(&recordingReleaser{})
	exercise(reused)
	reused.Reset()
	if reused.Active() != 0 || reused.total != 0 || reused.Quarantined() != 0 {
		t.Fatalf("Reset left counters: active=%d total=%d quarantined=%d",
			reused.Active(), reused.total, reused.Quarantined())
	}
	if reused.releaser != nil || reused.cloned {
		t.Fatal("Reset kept the releaser or the cloned latch")
	}
	gotRes, gotAct, gotTot := exercise(reused)
	if gotRes != wantRes || gotAct != wantAct || gotTot != wantTot {
		t.Fatalf("reused store diverged: resolved=%d/%d active=%d/%d total=%d/%d",
			gotRes, wantRes, gotAct, wantAct, gotTot, wantTot)
	}
}

// TestStreamingSpillZeroAlloc pins the steady-state spill path: with the
// abstract channel's recording freelist armed as the store's releaser,
// a retransmitting-collision slot (record stored, immediately spent,
// recording recycled) must settle to zero allocations.
func TestStreamingSpillZeroAlloc(t *testing.T) {
	r := rng.New(29)
	ids := tagid.Population(r, 2)
	ch := channel.NewAbstract(channel.AbstractConfig{Lambda: 2}, r)

	s := NewStore()
	s.SetReleaser(ch)
	s.MarkKnown(ids[0])
	s.MarkKnown(ids[1])

	slot := uint64(0)
	cycle := func() {
		obs := ch.Observe(ids)
		if obs.Kind != channel.Collision {
			t.Fatal("expected a collision")
		}
		// Both members are known retransmitters: the record is spent on
		// arrival and its recording goes straight back to the channel.
		if out := s.Add(slot, obs.Mix, ids); out != nil {
			t.Fatal("spent record yielded IDs")
		}
		slot++
	}
	for i := 0; i < 300; i++ {
		cycle() // warm the entry chunk and the channel freelist
	}
	allocs := testing.AllocsPerRun(200, cycle)
	if allocs != 0 {
		t.Errorf("streaming spill cycle allocates %v times, want 0", allocs)
	}
}

// TestStoreResetChunkReuse: across Reset cycles the entry and node arenas
// must be recycled, not reallocated — the cross-run scratch contract.
func TestStoreResetChunkReuse(t *testing.T) {
	r := rng.New(31)
	ids := tagid.Population(r, 512)
	ch := channel.NewAbstract(channel.AbstractConfig{Lambda: 2}, r)

	s := NewStore()
	run := func() {
		for i := 0; i+1 < len(ids); i += 2 {
			obs := ch.Observe(ids[i : i+2])
			s.Add(uint64(i), obs.Mix, ids[i:i+2])
		}
		for i := 0; i+1 < len(ids); i += 2 {
			s.OnIdentified(ids[i])
		}
		s.Reset()
	}
	run() // size the arenas
	run()
	// Reset the channel alongside the store each cycle, as the campaign
	// runner does, so its record arena is recycled too; the whole
	// run+reset cycle must then be allocation-free.
	allocs := testing.AllocsPerRun(5, func() {
		ch.Reset(r)
		run()
	})
	if allocs != 0 {
		t.Errorf("store+channel reset cycle allocates %v times, want 0", allocs)
	}
}

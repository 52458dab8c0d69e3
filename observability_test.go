package ancrfid_test

import (
	"testing"

	"github.com/ancrfid/ancrfid"
)

// TestTraceResolutionChains is the observability acceptance test: a traced
// FCAT run over 1000 tags must emit a complete event stream in which every
// tag counted in Metrics.ResolvedIDs is traceable through collision-record
// events — each resolve either decodes at store time (depth 0, no trigger)
// or is triggered by an ID the reader had already learned (a direct read or
// an earlier resolve), chaining every recovery back to a singleton slot.
func TestTraceResolutionChains(t *testing.T) {
	var (
		direct    = make(map[ancrfid.TagID]bool)
		resolved  = make(map[ancrfid.TagID]bool)
		chained   = make(map[ancrfid.TagID]bool) // resolve events seen, dup or not
		badChains int
	)
	tr := ancrfid.TracerFunc(func(ev ancrfid.TraceEvent) {
		switch ev.Kind {
		case ancrfid.TraceTagIdentified:
			if ev.Flag {
				resolved[ev.ID] = true
			} else {
				direct[ev.ID] = true
			}
		case ancrfid.TraceRecordResolved:
			if ev.N1 > 0 {
				// Triggered resolve (ID2 is the trigger): it must already
				// be known.
				if !direct[ev.ID2] && !resolved[ev.ID2] && !chained[ev.ID2] {
					badChains++
				}
			}
			chained[ev.ID] = true
		}
	})

	cfg := ancrfid.SimConfig{Tags: 1000, Runs: 1, Seed: 42, Tracer: tr}
	m, err := ancrfid.RunOnce(ancrfid.NewFCAT(2), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Identified() != 1000 {
		t.Fatalf("identified %d of 1000 tags", m.Identified())
	}
	if m.ResolvedIDs == 0 {
		t.Fatal("run resolved no tags; the traceability check is vacuous")
	}
	if len(direct) != m.DirectIDs {
		t.Fatalf("%d direct identify events, Metrics.DirectIDs = %d", len(direct), m.DirectIDs)
	}
	if len(resolved) != m.ResolvedIDs {
		t.Fatalf("%d resolved identify events, Metrics.ResolvedIDs = %d", len(resolved), m.ResolvedIDs)
	}
	if badChains != 0 {
		t.Fatalf("%d resolve events had an unknown trigger", badChains)
	}
	for id := range resolved {
		if !chained[id] {
			t.Fatalf("tag %s counted as resolved but no resolve event recovered it", id)
		}
	}
}

// TestRegistryMatchesMetrics cross-checks the aggregated registry against
// protocol.Metrics for the same runs: the two accounting paths (atomic
// counters fed by the event stream versus the protocol's own tallies) must
// agree exactly.
func TestRegistryMatchesMetrics(t *testing.T) {
	for _, name := range []string{"FCAT-2", "SCAT-2", "DFSA", "EDFSA", "CRDSA", "ABS", "AQS"} {
		t.Run(name, func(t *testing.T) {
			p, err := ancrfid.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			reg := ancrfid.NewRegistry()
			res, err := ancrfid.Run(p, ancrfid.SimConfig{
				Tags: 400, Runs: 3, Seed: 9, Metrics: reg, PAckLoss: 0.1,
			})
			if err != nil {
				t.Fatal(err)
			}
			var want ancrfid.Metrics
			for _, m := range res.Runs {
				want.EmptySlots += m.EmptySlots
				want.SingletonSlots += m.SingletonSlots
				want.CollisionSlots += m.CollisionSlots
				want.DirectIDs += m.DirectIDs
				want.ResolvedIDs += m.ResolvedIDs
				want.Frames += m.Frames
				want.TagTransmissions += m.TagTransmissions
			}
			checks := []struct {
				key  string
				want int64
			}{
				{"runs.started", 3},
				{"runs.completed", 3},
				{"runs.failed", 0},
				{"slots.empty", int64(want.EmptySlots)},
				{"slots.singleton", int64(want.SingletonSlots)},
				{"slots.collision", int64(want.CollisionSlots)},
				{"ids.direct", int64(want.DirectIDs)},
				{"ids.resolved", int64(want.ResolvedIDs)},
				{"frames", int64(want.Frames)},
				{"tx.total", int64(want.TagTransmissions)},
			}
			for _, c := range checks {
				if got := reg.Value(c.key); got != c.want {
					t.Errorf("registry %s = %d, Metrics say %d", c.key, got, c.want)
				}
			}
		})
	}
}

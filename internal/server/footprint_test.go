package server

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestAbstractSessionFootprint bounds the live heap a hosted FCAT-2
// session on the slot-level channel holds part way through its backlog:
// four 4 000-tag sessions, the server-mixed benchmark's population, each
// stepped 4 096 times (about half the tags read). FCAT's bootstrap probes
// at p = 1/2, 1/4, … pile most of the population into collisions of more
// than lambda tags, which can never decode; the record store only counts their memberships and
// hands the recordings straight back, so what a session keeps is its
// ledger, active set and live records. Storing and indexing those dead
// records reads about 1.6 MiB a session.
func TestAbstractSessionFootprint(t *testing.T) {
	const (
		sessions = 4
		tags     = 4000
		steps    = 4096
		limit    = 1.25 * (1 << 20)
	)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	hosts := make([]*hosted, sessions)
	for i := range hosts {
		h, err := newHosted(fmt.Sprintf("fp-%d", i), Spec{Protocol: "FCAT-2", Seed: uint64(i + 1), Tags: tags}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.step(steps, time.Time{}); err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	per := float64(ms.HeapAlloc-before) / sessions
	for i, h := range hosts {
		if h.identCount == 0 || h.dupIdents != 0 || h.phantoms != 0 {
			t.Fatalf("session %d: %d identified, %d duplicates, %d phantoms", i, h.identCount, h.dupIdents, h.phantoms)
		}
	}
	runtime.KeepAlive(hosts)
	t.Logf("a stepped %d-tag FCAT-2 session holds %.3f MiB", tags, per/(1<<20))
	if per > limit {
		t.Fatalf("a stepped %d-tag FCAT-2 session holds %.0f B, want <= %.0f", tags, per, limit)
	}
}

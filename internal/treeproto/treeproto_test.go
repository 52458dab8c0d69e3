package treeproto

import (
	"math"
	"testing"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

func env(seed uint64, tags int, cfg channel.AbstractConfig) *protocol.Env {
	r := rng.New(seed)
	return &protocol.Env{
		RNG:     r,
		Tags:    tagid.Population(r, tags),
		Channel: channel.NewAbstract(cfg, r),
		Timing:  air.ICode(),
	}
}

func TestNames(t *testing.T) {
	if NewABS().Name() != "ABS" || NewAQS().Name() != "AQS" {
		t.Fatal("wrong names")
	}
}

func TestABSIdentifiesEveryTag(t *testing.T) {
	for _, n := range []int{1, 2, 7, 300, 5000} {
		m, err := NewABS().Run(env(uint64(n), n, channel.AbstractConfig{Lambda: 2}))
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if m.Identified() != n || m.SingletonSlots != n {
			t.Fatalf("N=%d: identified=%d singletons=%d", n, m.Identified(), m.SingletonSlots)
		}
	}
}

func TestAQSIdentifiesEveryTag(t *testing.T) {
	for _, n := range []int{1, 2, 7, 300, 5000} {
		m, err := NewAQS().Run(env(uint64(n)+100, n, channel.AbstractConfig{Lambda: 2}))
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if m.Identified() != n {
			t.Fatalf("N=%d: identified=%d", n, m.Identified())
		}
	}
}

func TestEmptyPopulations(t *testing.T) {
	for _, p := range []protocol.Protocol{NewABS(), NewAQS()} {
		m, err := p.Run(env(9, 0, channel.AbstractConfig{Lambda: 2}))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if m.Identified() != 0 {
			t.Fatalf("%s identified tags in an empty field", p.Name())
		}
	}
}

func TestTreeSlotCounts(t *testing.T) {
	// Theory (and the paper's Table II): total slots ~ 2.88N; collision
	// slots (internal nodes) ~ 1.44N; empty ~ 0.44N; singleton = N.
	const n = 10000
	for _, p := range []protocol.Protocol{NewABS(), NewAQS()} {
		m, err := p.Run(env(10, n, channel.AbstractConfig{Lambda: 2}))
		if err != nil {
			t.Fatal(err)
		}
		total := float64(m.TotalSlots())
		if math.Abs(total-2.88*n)/(2.88*n) > 0.05 {
			t.Errorf("%s total slots %v, want ~2.88N", p.Name(), total)
		}
		if c := float64(m.CollisionSlots); math.Abs(c-1.44*n)/(1.44*n) > 0.08 {
			t.Errorf("%s collision slots %v, want ~1.44N", p.Name(), c)
		}
	}
}

func TestTreeThroughputNearBound(t *testing.T) {
	// Both tree protocols sit near 1/(2.88 T) ~ 124 tags/s (Table I).
	const n = 4000
	for _, p := range []protocol.Protocol{NewABS(), NewAQS()} {
		m, err := p.Run(env(11, n, channel.AbstractConfig{Lambda: 2}))
		if err != nil {
			t.Fatal(err)
		}
		if tput := m.Throughput(); tput < 118 || tput > 129 {
			t.Errorf("%s throughput %v outside [118, 129]", p.Name(), tput)
		}
	}
}

func TestABSCorruptionRetries(t *testing.T) {
	// Corrupted singletons re-enter splitting and are eventually read.
	m, err := NewABS().Run(env(12, 400, channel.AbstractConfig{Lambda: 2, PCorruptSingleton: 0.2}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Identified() != 400 {
		t.Fatalf("identified %d of 400", m.Identified())
	}
}

func TestAQSAdaptiveReRead(t *testing.T) {
	// The second round over an unchanged population replays the retained
	// leaf queries: no collisions, and many fewer slots.
	const n = 2000
	reader := NewAQS()
	e := env(13, n, channel.AbstractConfig{Lambda: 2})
	first, err := reader.RunRound(e)
	if err != nil {
		t.Fatal(err)
	}
	second, err := reader.RunRound(e)
	if err != nil {
		t.Fatal(err)
	}
	if second.Identified() != n {
		t.Fatalf("re-read identified %d", second.Identified())
	}
	if second.CollisionSlots != 0 {
		t.Fatalf("re-read had %d collisions; adaptive replay should have none", second.CollisionSlots)
	}
	if second.TotalSlots() >= first.TotalSlots() {
		t.Fatalf("re-read (%d slots) not cheaper than first round (%d)", second.TotalSlots(), first.TotalSlots())
	}
}

func TestAQSRunResetsState(t *testing.T) {
	// Run (the Monte-Carlo entry point) must not leak state between
	// unrelated populations.
	reader := NewAQS()
	if _, err := reader.Run(env(14, 500, channel.AbstractConfig{Lambda: 2})); err != nil {
		t.Fatal(err)
	}
	m, err := reader.Run(env(15, 500, channel.AbstractConfig{Lambda: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Identified() != 500 {
		t.Fatalf("second independent run identified %d", m.Identified())
	}
	// Slot count of an independent run must look like a cold round.
	if float64(m.TotalSlots()) < 2.5*500 {
		t.Fatalf("second Run looks like a warm replay: %d slots", m.TotalSlots())
	}
}

func TestAQSDepartedTags(t *testing.T) {
	// Re-read with half the tags removed: retained singleton queries for
	// departed tags read empty; everyone still present is found.
	reader := NewAQS()
	e := env(16, 1000, channel.AbstractConfig{Lambda: 2})
	if _, err := reader.RunRound(e); err != nil {
		t.Fatal(err)
	}
	e2 := env(16, 1000, channel.AbstractConfig{Lambda: 2})
	e2.Tags = e.Tags[:500]
	m, err := reader.RunRound(e2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Identified() != 500 {
		t.Fatalf("identified %d of the 500 remaining", m.Identified())
	}
	if m.EmptySlots < 400 {
		t.Fatalf("departed tags should show as empty retained queries (got %d empties)", m.EmptySlots)
	}
}

func TestSamePrefix(t *testing.T) {
	a := tagid.New(0b1010_1010_0000_0000, 0)
	b := tagid.New(0b1010_0101_0000_0000, 0)
	if !samePrefix(a, b, 4) {
		t.Error("first 4 bits agree")
	}
	if samePrefix(a, b, 5) {
		t.Error("bit 4 differs")
	}
	if !samePrefix(a, a, 96) {
		t.Error("identical IDs share every prefix")
	}
}

func TestDeterminism(t *testing.T) {
	run := func(p protocol.Protocol) protocol.Metrics {
		m, err := p.Run(env(17, 800, channel.AbstractConfig{Lambda: 2}))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if a, b := run(NewABS()), run(NewABS()); a != b {
		t.Fatal("ABS: same seed, different metrics")
	}
	if a, b := run(NewAQS()), run(NewAQS()); a != b {
		t.Fatal("AQS: same seed, different metrics")
	}
}

func TestQueryTreeSensitiveToIDDistribution(t *testing.T) {
	// Paper, Section VII: "A query-tree protocol can have quite different
	// reading throughputs determined by the tag ID distribution." AQS over
	// clustered IDs (sequential serials sharing long prefixes) wastes
	// queries walking shared prefixes; ABS splits on random draws and is
	// distribution-independent.
	const n = 2000
	clustered := make([]tagid.ID, n)
	for i := range clustered {
		clustered[i] = tagid.FromParts(42, 7, uint64(i))
	}

	runWith := func(p protocol.Protocol, tags []tagid.ID) protocol.Metrics {
		r := rng.New(99)
		e := &protocol.Env{
			RNG:     r,
			Tags:    tags,
			Channel: channel.NewAbstract(channel.AbstractConfig{Lambda: 2}, r),
			Timing:  air.ICode(),
		}
		m, err := p.Run(e)
		if err != nil {
			t.Fatal(err)
		}
		if m.Identified() != n {
			t.Fatalf("%s identified %d of %d", p.Name(), m.Identified(), n)
		}
		return m
	}

	// A warehouse-style population: many vendor/class clusters, each a
	// sparse sampled subset (items in one reader's range). Deep shared
	// prefixes with half-empty subtrees are the expensive direction.
	sub := rng.New(2)
	sparse := make([]tagid.ID, 0, n)
	for _, i := range sub.SampleDistinct(n, 3*n) {
		sparse = append(sparse, tagid.FromParts(uint32(1000+i%6), uint16(i%37), uint64(i)))
	}

	uniform := tagid.Population(rng.New(1), n)
	aqsUniform := runWith(NewAQS(), uniform)
	aqsDense := runWith(NewAQS(), clustered)
	aqsSparse := runWith(NewAQS(), sparse)
	absUniform := runWith(NewABS(), uniform)
	absDense := runWith(NewABS(), clustered)

	// A dense sequential block packs a perfectly balanced subtree: cheaper
	// than uniform IDs. A sparse subset wastes queries on empty branches:
	// costlier. Both directions demonstrate the distribution dependence.
	if float64(aqsDense.TotalSlots()) > 0.85*float64(aqsUniform.TotalSlots()) {
		t.Errorf("AQS on a dense block should be cheaper: %d vs uniform %d slots",
			aqsDense.TotalSlots(), aqsUniform.TotalSlots())
	}
	if float64(aqsSparse.TotalSlots()) < 1.15*float64(aqsUniform.TotalSlots()) {
		t.Errorf("AQS on a sparse subset should be costlier: %d vs uniform %d slots",
			aqsSparse.TotalSlots(), aqsUniform.TotalSlots())
	}
	absRel := float64(absDense.TotalSlots()) / float64(absUniform.TotalSlots())
	if absRel < 0.9 || absRel > 1.1 {
		t.Errorf("ABS should be distribution-independent: %d vs %d slots",
			absDense.TotalSlots(), absUniform.TotalSlots())
	}
}

func TestAQSArrivalsIdentifiedOnReRead(t *testing.T) {
	// Tags that arrive between rounds collide inside their covering
	// retained leaf and must be split out and identified.
	reader := NewAQS()
	r := rng.New(30)
	all := tagid.Population(r, 1500)
	e := env(30, 0, channel.AbstractConfig{Lambda: 2})
	e.Tags = all[:1000]
	if _, err := reader.RunRound(e); err != nil {
		t.Fatal(err)
	}
	e2 := env(31, 0, channel.AbstractConfig{Lambda: 2})
	e2.Tags = all // 500 arrivals
	m, err := reader.RunRound(e2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Identified() != 1500 {
		t.Fatalf("re-read identified %d of 1500 after arrivals", m.Identified())
	}
}

func TestAQSEmptyLeafMerging(t *testing.T) {
	// After a mass departure, sibling empty leaves merge so later rounds
	// do not re-probe a forest of holes one slot each.
	reader := NewAQS()
	e := env(32, 4000, channel.AbstractConfig{Lambda: 2})
	if _, err := reader.RunRound(e); err != nil {
		t.Fatal(err)
	}
	// Everyone leaves.
	gone := env(33, 0, channel.AbstractConfig{Lambda: 2})
	first, err := reader.RunRound(gone)
	if err != nil {
		t.Fatal(err)
	}
	second, err := reader.RunRound(gone)
	if err != nil {
		t.Fatal(err)
	}
	if first.TotalSlots() < 4000 {
		t.Fatalf("departure round should probe every retained leaf (%d slots)", first.TotalSlots())
	}
	if second.TotalSlots() > 4 {
		t.Fatalf("after merging, an empty field should cost ~1 slot, used %d", second.TotalSlots())
	}
}

// TestABSAdmitRepeatedID: an ID repeated inside one Admit batch joins the
// traversal once, so it is counted once and cannot collide with itself.
func TestABSAdmitRepeatedID(t *testing.T) {
	e := env(40, 5, channel.AbstractConfig{Lambda: 2})
	s := NewABS().Begin(e).(*absSession)
	x := tagid.New(0xABCD, 42)
	s.Admit([]tagid.ID{x, x})
	if got := s.Metrics().Tags; got != 6 {
		t.Fatalf("Tags = %d after admitting one new ID twice, want 6", got)
	}
	n := 0
	for _, g := range s.stack {
		for _, id := range g {
			if id == x {
				n++
			}
		}
	}
	if n != 1 {
		t.Fatalf("the admitted ID is pending %d times, want once", n)
	}
	for done := false; !done; {
		var err error
		if done, err = s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m := s.Metrics(); m.Identified() != 6 {
		t.Fatalf("identified %d of 6 tags", m.Identified())
	}
}

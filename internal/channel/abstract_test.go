package channel

import (
	"testing"

	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

func ids(r *rng.Source, n int) []tagid.ID {
	return tagid.Population(r, n)
}

func TestAbstractClassification(t *testing.T) {
	r := rng.New(1)
	ch := NewAbstract(AbstractConfig{Lambda: 2}, r)
	tags := ids(r, 3)

	if obs := ch.Observe(nil); obs.Kind != Empty {
		t.Errorf("no transmitters -> %v, want empty", obs.Kind)
	}
	if obs := ch.Observe(tags[:1]); obs.Kind != Singleton || obs.ID != tags[0] {
		t.Errorf("one transmitter -> %v", obs.Kind)
	}
	obs := ch.Observe(tags[:2])
	if obs.Kind != Collision || obs.Mix == nil {
		t.Fatalf("two transmitters -> %v", obs.Kind)
	}
	if obs.Mix.Multiplicity() != 2 {
		t.Errorf("multiplicity %d, want 2", obs.Mix.Multiplicity())
	}
}

func TestAbstractTwoCollisionResolves(t *testing.T) {
	r := rng.New(2)
	ch := NewAbstract(AbstractConfig{Lambda: 2}, r)
	tags := ids(r, 2)
	mix := ch.Observe(tags).Mix

	if _, ok := mix.Decode(); ok {
		t.Fatal("decoded with no subtraction")
	}
	if !mix.Contains(tags[0]) || !mix.Contains(tags[1]) {
		t.Fatal("Contains should report both members")
	}
	if mix.Contains(ids(r, 1)[0]) {
		t.Fatal("Contains reported a non-member")
	}
	mix.Subtract(tags[0])
	got, ok := mix.Decode()
	if !ok || got != tags[1] {
		t.Fatalf("Decode after one subtraction: %v, %v", got, ok)
	}
}

func TestAbstractLambdaLimit(t *testing.T) {
	r := rng.New(3)
	ch := NewAbstract(AbstractConfig{Lambda: 2}, r)
	tags := ids(r, 3)
	mix := ch.Observe(tags).Mix
	mix.Subtract(tags[0])
	mix.Subtract(tags[1])
	if _, ok := mix.Decode(); ok {
		t.Fatal("3-collision resolved under lambda=2")
	}

	ch3 := NewAbstract(AbstractConfig{Lambda: 3}, r)
	mix3 := ch3.Observe(tags).Mix
	mix3.Subtract(tags[0])
	mix3.Subtract(tags[1])
	got, ok := mix3.Decode()
	if !ok || got != tags[2] {
		t.Fatal("3-collision did not resolve under lambda=3")
	}
}

func TestAbstractSubtractIdempotent(t *testing.T) {
	r := rng.New(4)
	ch := NewAbstract(AbstractConfig{Lambda: 2}, r)
	tags := ids(r, 2)
	mix := ch.Observe(tags).Mix
	mix.Subtract(tags[0])
	mix.Subtract(tags[0]) // repeated subtraction must not fake progress
	got, ok := mix.Decode()
	if !ok || got != tags[1] {
		t.Fatal("idempotent subtraction broke decoding")
	}
}

func TestAbstractSubtractNonMember(t *testing.T) {
	r := rng.New(5)
	ch := NewAbstract(AbstractConfig{Lambda: 2}, r)
	tags := ids(r, 3)
	mix := ch.Observe(tags[:2]).Mix
	mix.Subtract(tags[2]) // not a member: no effect
	if _, ok := mix.Decode(); ok {
		t.Fatal("subtracting a non-member enabled decoding")
	}
}

func TestAbstractOverSubtraction(t *testing.T) {
	r := rng.New(6)
	ch := NewAbstract(AbstractConfig{Lambda: 2}, r)
	tags := ids(r, 2)
	mix := ch.Observe(tags).Mix
	mix.Subtract(tags[0])
	mix.Subtract(tags[1])
	// Zero unknowns left: nothing to decode.
	if _, ok := mix.Decode(); ok {
		t.Fatal("decoded a fully-subtracted record")
	}
}

func TestAbstractUnresolvableProbability(t *testing.T) {
	r := rng.New(7)
	ch := NewAbstract(AbstractConfig{Lambda: 2, PUnresolvable: 1}, r)
	tags := ids(r, 2)
	mix := ch.Observe(tags).Mix
	mix.Subtract(tags[0])
	if _, ok := mix.Decode(); ok {
		t.Fatal("record resolved despite PUnresolvable=1")
	}
}

func TestAbstractCorruptSingleton(t *testing.T) {
	r := rng.New(8)
	ch := NewAbstract(AbstractConfig{Lambda: 2, PCorruptSingleton: 1}, r)
	tags := ids(r, 1)
	obs := ch.Observe(tags)
	if obs.Kind != Collision {
		t.Fatalf("corrupted singleton observed as %v, want collision", obs.Kind)
	}
	if obs.Mix.Multiplicity() != 1 {
		t.Fatalf("pseudo-record multiplicity %d, want 1", obs.Mix.Multiplicity())
	}
	// A corrupted recording never yields an ID, even "fully known".
	obs.Mix.Subtract(tags[0])
	if _, ok := obs.Mix.Decode(); ok {
		t.Fatal("corrupted record decoded")
	}
}

func TestAbstractLambdaFloor(t *testing.T) {
	r := rng.New(9)
	ch := NewAbstract(AbstractConfig{Lambda: 0}, r) // clamped to 1
	tags := ids(r, 2)
	mix := ch.Observe(tags).Mix
	mix.Subtract(tags[0])
	if _, ok := mix.Decode(); ok {
		t.Fatal("lambda<1 should behave as ALOHA (no resolution)")
	}
}

func TestKindString(t *testing.T) {
	for kind, want := range map[Kind]string{
		Empty: "empty", Singleton: "singleton", Collision: "collision", Kind(99): "unknown",
	} {
		if kind.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", kind, kind.String(), want)
		}
	}
}

func TestAbstractUnresolvableFractionStatistical(t *testing.T) {
	// PUnresolvable=0.4 should spoil ~40% of otherwise-resolvable records.
	r := rng.New(40)
	ch := NewAbstract(AbstractConfig{Lambda: 2, PUnresolvable: 0.4}, r)
	resolved := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		tags := tagid.Population(r, 2)
		mix := ch.Observe(tags).Mix
		mix.Subtract(tags[0])
		if _, ok := mix.Decode(); ok {
			resolved++
		}
	}
	got := float64(resolved) / trials
	if got < 0.55 || got > 0.65 {
		t.Fatalf("resolvable fraction %.3f, want ~0.60", got)
	}
}

func TestAbstractCorruptionFractionStatistical(t *testing.T) {
	r := rng.New(41)
	ch := NewAbstract(AbstractConfig{Lambda: 2, PCorruptSingleton: 0.25}, r)
	singles := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		tags := tagid.Population(r, 1)
		if ch.Observe(tags).Kind == Singleton {
			singles++
		}
	}
	got := float64(singles) / trials
	if got < 0.70 || got > 0.80 {
		t.Fatalf("clean-singleton fraction %.3f, want ~0.75", got)
	}
}

// TestAbstractDead: a record beyond lambda, or one spoiled by noise, is
// provably undecodable; a resolvable one is not.
func TestAbstractDead(t *testing.T) {
	r := rng.New(9)
	tags := ids(r, 3)
	ch := NewAbstract(AbstractConfig{Lambda: 2}, r)
	if Dead(ch.Observe(tags[:2]).Mix) {
		t.Fatal("a 2-collision under lambda 2 reported dead")
	}
	if !Dead(ch.Observe(tags).Mix) {
		t.Fatal("a 3-collision under lambda 2 not reported dead")
	}
	spoiled := NewAbstract(AbstractConfig{Lambda: 2, PUnresolvable: 1}, r)
	if !Dead(spoiled.Observe(tags[:2]).Mix) {
		t.Fatal("a spoiled 2-collision not reported dead")
	}
}

// TestAbstractRecycledBigRecord: a released big record's header is reused
// by the next big collision, whose lazily built index must describe its
// own members: Contains and Subtract see the new record only, and a
// repeated ID maps to its last position.
func TestAbstractRecycledBigRecord(t *testing.T) {
	r := rng.New(10)
	tags := ids(r, 60)
	ch := NewAbstract(AbstractConfig{Lambda: 64}, r)
	first := ch.Observe(tags[:40]).Mix.(*abstractMixed)
	if !first.Contains(tags[3]) || first.Contains(tags[50]) {
		t.Fatal("first record's membership wrong")
	}
	ch.ReleaseMixed(first)

	members := append(append([]tagid.ID(nil), tags[30:50]...), tags[30])
	m := ch.Observe(members).Mix.(*abstractMixed)
	if m != first {
		t.Fatal("released header not recycled")
	}
	if m.index != nil {
		t.Fatal("recycled record carries its predecessor's index")
	}
	if m.Contains(tags[3]) || !m.Contains(tags[45]) || !m.Contains(tags[30]) {
		t.Fatal("recycled record's membership wrong")
	}
	m.Subtract(tags[30])
	if !m.subtracted(len(members)-1) || m.subtracted(0) {
		t.Fatal("repeated ID did not map to its last position")
	}
	m.Subtract(tags[3]) // not a member: a no-op
	for _, id := range tags[31:50] {
		m.Subtract(id)
	}
	if m.Remaining() != 1 {
		t.Fatalf("remaining %d, want 1", m.Remaining())
	}
	if y, ok := m.Decode(); !ok || y != tags[30] {
		t.Fatalf("decode = %v, %v; want %v", y, ok, tags[30])
	}
}

// TestAbstractGiantRecordRelease: releasing a record above memberChunk/2
// members drops its storage instead of pinning it on the free list.
func TestAbstractGiantRecordRelease(t *testing.T) {
	r := rng.New(11)
	tags := ids(r, memberChunk)
	ch := NewAbstract(AbstractConfig{Lambda: 2}, r)
	m := ch.Observe(tags).Mix.(*abstractMixed)
	m.Contains(tags[0])
	ch.ReleaseMixed(m)
	if m.members != nil || m.index != nil || m.subBig != nil {
		t.Fatal("giant record's storage pinned on the free list")
	}
	ch.ReleaseMixed(m) // a second release is ignored
	if len(ch.free) != 1 {
		t.Fatalf("free list holds %d records, want 1", len(ch.free))
	}
	small := ch.Observe(tags[:3]).Mix
	if small != Mixed(m) || !small.Contains(tags[2]) || small.Contains(tags[3]) {
		t.Fatal("released giant header not recycled for a small record")
	}
}

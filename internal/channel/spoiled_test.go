package channel

import (
	"slices"
	"testing"

	"github.com/ancrfid/ancrfid/internal/rng"
)

// TestSpoiled checks the never-decoding recording: membership is all it
// knows, each member's subtraction counts once, Decode never succeeds, a
// clone subtracts independently and the caller's slice is not aliased.
func TestSpoiled(t *testing.T) {
	tags := ids(rng.New(7), 4)
	in := slices.Clone(tags[:3])
	mix := Spoiled(in)
	outsider := tags[3]
	in[0] = outsider // the recording copied its members

	for _, id := range tags[:3] {
		if !mix.Contains(id) {
			t.Errorf("member %v missing", id)
		}
	}
	if mix.Contains(outsider) {
		t.Error("non-member reported as a member")
	}
	if mix.Multiplicity() != 3 {
		t.Errorf("multiplicity %d, want 3", mix.Multiplicity())
	}
	remaining := func(m Mixed) int {
		t.Helper()
		n, ok := Remaining(m)
		if !ok {
			t.Fatal("Spoiled does not implement Residual")
		}
		return n
	}
	if n := remaining(mix); n != 3 {
		t.Fatalf("remaining %d before any subtraction, want 3", n)
	}

	mix.Subtract(tags[0])
	if n := remaining(mix); n != 2 {
		t.Errorf("remaining %d after one subtraction, want 2", n)
	}
	mix.Subtract(tags[0])
	mix.Subtract(outsider)
	if n := remaining(mix); n != 2 {
		t.Errorf("remaining %d after a repeat and a non-member, want 2", n)
	}

	clone, ok := CloneMixed(mix)
	if !ok {
		t.Fatal("Spoiled does not clone")
	}
	clone.Subtract(tags[1])
	if n := remaining(clone); n != 1 {
		t.Errorf("clone remaining %d, want 1", n)
	}
	if n := remaining(mix); n != 2 {
		t.Errorf("subtracting from the clone moved the original to %d, want 2", n)
	}
	mix.Subtract(tags[2])
	if n := remaining(clone); n != 1 {
		t.Errorf("subtracting from the original moved the clone to %d, want 1", n)
	}

	for _, m := range []Mixed{mix, clone} {
		for _, id := range tags[:3] {
			m.Subtract(id)
			if _, ok := m.Decode(); ok {
				t.Fatal("a spoiled recording decoded")
			}
		}
		if n := remaining(m); n != 0 {
			t.Errorf("remaining %d with every member subtracted, want 0", n)
		}
		if !Dead(m) {
			t.Error("a spoiled recording is not Dead")
		}
	}
}

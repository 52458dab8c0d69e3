package protocol

import (
	"errors"
	"reflect"
	"testing"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// framedFixture is a Framed core opened over ids[:n]; ids[n:] are tags
// that have not been admitted.
type framedFixture struct {
	f   *Framed
	ids []tagid.ID
}

func newFramedFixture(n int) *framedFixture {
	r := rng.New(7)
	ids := tagid.Population(r, n+4)
	env := &Env{
		RNG:     r,
		Tags:    ids[:n],
		Channel: channel.NewAbstract(channel.AbstractConfig{Lambda: 2}, r),
		Timing:  air.ICode(),
	}
	f := &Framed{}
	f.Open("TEST", env)
	return &framedFixture{f: f, ids: ids}
}

// tags maps fixture indices to IDs (nil for none).
func (x *framedFixture) tags(idx ...int) []tagid.ID {
	if len(idx) == 0 {
		return nil
	}
	out := make([]tagid.ID, len(idx))
	for i, k := range idx {
		out[i] = x.ids[k]
	}
	return out
}

// frame opens a frame of len(buckets) slots filled with the given fixture
// indices and moves the cursor to slot cursor.
func (x *framedFixture) frame(cursor int, buckets ...[]int) {
	occ, err := x.f.StartFrame(len(buckets), 1)
	if err != nil {
		panic(err)
	}
	for j, b := range buckets {
		occ[j] = append(occ[j], x.tags(b...)...)
	}
	x.f.SlotJ = cursor
}

func TestFramedAdmitRevokeContract(t *testing.T) {
	cases := []struct {
		name string
		// run drives the fixture (opened over tags 0..3) and returns the
		// IDs the hooks saw.
		run         func(x *framedFixture) []tagid.ID
		wantHooks   []int
		wantUnread  []int
		wantTags    int
		wantBuckets [][]int // nil: no frame open
	}{
		{
			name:      "duplicates inside one admit batch join once",
			wantHooks: []int{4, 5},
			run: func(x *framedFixture) []tagid.ID {
				var got []tagid.ID
				x.f.AdmitEach(x.tags(4, 5, 4, 5, 4), func(id tagid.ID) { got = append(got, id) })
				return got
			},
			wantUnread: []int{0, 1, 2, 3, 4, 5},
			wantTags:   6,
		},
		{
			name: "admitting a backlog tag is ignored",
			run: func(x *framedFixture) []tagid.ID {
				var got []tagid.ID
				x.f.AdmitEach(x.tags(2, 0), func(id tagid.ID) { got = append(got, id) })
				return got
			},
			wantUnread: []int{0, 1, 2, 3},
			wantTags:   4,
		},
		{
			name:      "re-admitting an identified tag is ignored",
			wantHooks: []int{5},
			run: func(x *framedFixture) []tagid.ID {
				x.f.Seen[x.ids[4]] = struct{}{}
				var got []tagid.ID
				x.f.AdmitEach(x.tags(4, 5), func(id tagid.ID) { got = append(got, id) })
				return got
			},
			wantUnread: []int{0, 1, 2, 3, 5},
			wantTags:   5,
		},
		{
			name: "revoking an unknown tag does nothing",
			run: func(x *framedFixture) []tagid.ID {
				x.frame(0, []int{0}, []int{1}, []int{2, 3})
				var got []tagid.ID
				x.f.RevokeEach(x.tags(6, 7, 6), func(id tagid.ID) { got = append(got, id) })
				return got
			},
			wantUnread:  []int{0, 1, 2, 3},
			wantTags:    4,
			wantBuckets: [][]int{{0}, {1}, {2, 3}},
		},
		{
			name:      "a batch revoke keeps the backlog order",
			wantHooks: []int{4, 1, 2},
			run: func(x *framedFixture) []tagid.ID {
				x.f.Admit(x.tags(4, 5))
				var got []tagid.ID
				x.f.RevokeEach(x.tags(4, 1, 4, 2), func(id tagid.ID) { got = append(got, id) })
				return got
			},
			wantUnread: []int{0, 3, 5},
			wantTags:   6,
		},
		{
			name:      "mid-frame revoke strips every remaining bucket",
			wantHooks: []int{1},
			run: func(x *framedFixture) []tagid.ID {
				// Tag 1 sits in an observed slot and in two remaining ones
				// (CRDSA-style replicas); only the remaining ones change.
				x.frame(1, []int{1, 0}, []int{2, 1}, []int{1, 3, 0})
				var got []tagid.ID
				x.f.RevokeEach(x.tags(1), func(id tagid.ID) { got = append(got, id) })
				return got
			},
			wantUnread:  []int{0, 2, 3},
			wantTags:    4,
			wantBuckets: [][]int{{1, 0}, {2}, {3, 0}},
		},
		{
			name:      "a revoked tag can be admitted again",
			wantHooks: []int{0},
			run: func(x *framedFixture) []tagid.ID {
				x.f.Revoke(x.tags(0))
				var got []tagid.ID
				x.f.AdmitEach(x.tags(0), func(id tagid.ID) { got = append(got, id) })
				return got
			},
			wantUnread: []int{1, 2, 3, 0},
			wantTags:   5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := newFramedFixture(4)
			hooked := tc.run(x)
			if want := x.tags(tc.wantHooks...); !reflect.DeepEqual(hooked, want) {
				t.Errorf("hooks saw %v, want %v", hooked, want)
			}
			if got, want := x.f.Unread(), x.tags(tc.wantUnread...); !reflect.DeepEqual(got, want) {
				t.Errorf("unread %v, want %v", got, want)
			}
			if x.f.Outstanding() != len(tc.wantUnread) {
				t.Errorf("Outstanding %d, want %d", x.f.Outstanding(), len(tc.wantUnread))
			}
			if x.f.M.Tags != tc.wantTags {
				t.Errorf("Metrics.Tags %d, want %d", x.f.M.Tags, tc.wantTags)
			}
			if tc.wantBuckets != nil {
				for j, b := range tc.wantBuckets {
					if got, want := x.f.occ[j], x.tags(b...); !reflect.DeepEqual(got, want) {
						t.Errorf("bucket %d = %v, want %v", j, got, want)
					}
				}
			}
		})
	}
}

// TestFramedRestoreRebuildsIndex checks that the membership index follows
// a Restore: Admit after restoring still deduplicates against the restored
// backlog, and tags admitted after the snapshot are admissible again.
func TestFramedRestoreRebuildsIndex(t *testing.T) {
	x := newFramedFixture(4)
	x.f.Admit(x.tags(4))
	cp := x.f.SnapshotWith("extra")
	x.f.Admit(x.tags(5))
	x.f.Revoke(x.tags(0, 4))

	var extra any
	if err := x.f.RestoreWith(cp, func(v any) error { extra = v; return nil }); err != nil {
		t.Fatal(err)
	}
	if extra != "extra" {
		t.Fatalf("restore handed back %v, want the snapshot's extra state", extra)
	}
	x.f.Admit(x.tags(0, 4, 3, 5, 5))
	if got, want := x.f.Unread(), x.tags(0, 1, 2, 3, 4, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("unread after restore+admit %v, want %v", got, want)
	}
	if x.f.M.Tags != 6 {
		t.Fatalf("Metrics.Tags %d, want 6", x.f.M.Tags)
	}
	x.f.Revoke(x.tags(5, 0))
	if got, want := x.f.Unread(), x.tags(1, 2, 3, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("unread after revoke %v, want %v", got, want)
	}
}

// TestFramedRestoreNeverHalfApplies checks a rejected restore leaves the
// session untouched: a checkpoint of another protocol, or an extra state
// the protocol refuses.
func TestFramedRestoreNeverHalfApplies(t *testing.T) {
	x := newFramedFixture(4)
	other := newFramedFixture(2)
	other.f.name = "OTHER"
	cp := x.f.SnapshotWith(nil)
	x.f.Revoke(x.tags(1))
	before := x.f.Unread()

	if err := x.f.RestoreWith(other.f.SnapshotWith(nil), func(any) error { return nil }); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("foreign checkpoint: got %v, want ErrCheckpointMismatch", err)
	}
	boom := errors.New("boom")
	if err := x.f.RestoreWith(cp, func(any) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("refused extra state: got %v", err)
	}
	if got := x.f.Unread(); !reflect.DeepEqual(got, before) {
		t.Fatalf("failed restore changed the backlog: %v, want %v", got, before)
	}
}

// TestFramedSilenceKeepsIndex checks the frame-end filter removes read tags
// from the index too: the index never holds a tag that left the backlog,
// and a tag still in it still deduplicates.
func TestFramedSilenceKeepsIndex(t *testing.T) {
	x := newFramedFixture(4)
	x.f.Admit(nil) // build the index
	x.frame(0, []int{0, 1, 2, 3})
	x.f.Read[x.ids[2]] = struct{}{}
	x.f.InFrame = false
	x.f.Silence()
	if got, want := x.f.Unread(), x.tags(0, 1, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("unread after silence %v, want %v", got, want)
	}
	x.f.Admit(x.tags(2, 3))
	if got, want := x.f.Unread(), x.tags(0, 1, 3, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("unread after admit %v, want %v", got, want)
	}
}

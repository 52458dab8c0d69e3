package record

import (
	"slices"
	"testing"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// FuzzCascade drives a Store (with and without Quarantine armed) through an
// arbitrary op sequence — record insertion with possibly-duplicated member
// lists, identification, revoke/readmit, clone-and-swap — and checks the
// inventory invariants after every step:
//
//   - no ID is ever yielded twice (duplicate identification),
//   - no yielded ID is revoked at yield time (stale identification),
//   - every yielded ID belongs to the universe (no phantom),
//   - the active-record count never goes negative and never exceeds
//     the stored total.
//
// It also replays every op on an oracle store whose recordings hide
// channel.Dead, so it stores and indexes the records the store under test
// only counts, and requires both to agree after every step: the same
// resolutions, active and quarantined counts, and record event stream.
//
// The op encoding is deliberately permissive: any byte string decodes to a
// valid sequence, so the fuzzer explores deep interleavings (cyclic record
// references, revoked-then-readmitted tags, duplicate members) for free.
func FuzzCascade(f *testing.F) {
	f.Add([]byte{0x00, 0x03, 0x10, 0x21})                         // add {0,1}, identify 0
	f.Add([]byte{0x00, 0x03, 0x00, 0x06, 0x00, 0x05, 0x10})       // cycle {0,1},{1,2},{0,2}, identify 0
	f.Add([]byte{0x20, 0x10, 0x00, 0x83, 0x10})                   // revoke 0, identify 0, add dup {0,0,1}
	f.Add([]byte{0x20, 0x30, 0x00, 0x03, 0x10})                   // revoke 0, readmit 0, add {0,1}, identify 0
	f.Add([]byte{0x10, 0x00, 0x83, 0x00, 0x83})                   // identify 1, then dup records {0,0,1}
	f.Add([]byte{0x06, 0x00, 0x81})                               // identify 0, add dup record {0,0}
	f.Add([]byte{0x10, 0x02, 0x00, 0x03})                         // identify 1, revoke 0, add {0,1}
	f.Add([]byte{0x40, 0x00, 0x03, 0x40, 0x10, 0x40})             // clone swaps around a resolution
	f.Add([]byte{0x00, 0x0f, 0x00, 0x11, 0x01, 0x10, 0x04, 0x24}) // dead {0,1,2,3}, {0,4}; identify 0, 1, clone, identify 2
	f.Add([]byte{0x00, 0x1f, 0x34, 0x01, 0x10, 0x30, 0x33})       // dead {0..4}, revoke 3, identify 0, 1, readmit 3, identify 3
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, quarantine := range []bool{false, true} {
			runCascadeOps(t, data, quarantine)
		}
	})
}

// hiddenMix forwards a recording but not its channel.Doomed probe, which
// sends the store down its indexed path for every record.
type hiddenMix struct{ channel.Mixed }

func (m hiddenMix) Remaining() int {
	r, _ := channel.Remaining(m.Mixed)
	return r
}

func (m hiddenMix) CloneMixed() channel.Mixed {
	c, ok := channel.CloneMixed(m.Mixed)
	if !ok {
		return nil
	}
	return hiddenMix{c}
}

func runCascadeOps(t *testing.T, data []byte, quarantine bool) {
	const nTags = 6
	universe := tagid.Population(rng.New(7), nTags)
	inUniverse := make(map[tagid.ID]bool, nTags)
	for _, id := range universe {
		inUniverse[id] = true
	}
	// Two identically seeded channels hand the store and its oracle equal
	// recordings; the store recycles its released ones into its own.
	cfg := channel.AbstractConfig{Lambda: 3}
	ch := channel.NewAbstract(cfg, rng.New(99))
	och := channel.NewAbstract(cfg, rng.New(99))

	var events, oevents []obs.Event
	s := NewStore()
	s.Quarantine = quarantine
	s.Tracer = obs.Func(func(ev obs.Event) { events = append(events, ev) })
	s.SetReleaser(ch)
	o := NewStore()
	o.Quarantine = quarantine
	o.Tracer = obs.Func(func(ev obs.Event) { oevents = append(oevents, ev) })

	seen := make(map[tagid.ID]bool)    // IDs the reader has learned (model)
	revoked := make(map[tagid.ID]bool) // currently-revoked tags (model)
	var slot uint64

	check := func(op string, got, want []Resolved) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("quarantine=%v %s: resolved %v, oracle %v", quarantine, op, got, want)
		}
		if s.Active() != o.Active() || s.Quarantined() != o.Quarantined() {
			t.Fatalf("quarantine=%v %s: active %d quarantined %d, oracle %d and %d",
				quarantine, op, s.Active(), s.Quarantined(), o.Active(), o.Quarantined())
		}
		if !slices.Equal(events, oevents) {
			t.Fatalf("quarantine=%v %s: events\n%v\noracle\n%v", quarantine, op, events, oevents)
		}
		for _, res := range got {
			if !inUniverse[res.ID] {
				t.Fatalf("quarantine=%v %s: yielded phantom ID %v", quarantine, op, res.ID)
			}
			if seen[res.ID] {
				t.Fatalf("quarantine=%v %s: duplicate yield of %v", quarantine, op, res.ID)
			}
			if revoked[res.ID] {
				t.Fatalf("quarantine=%v %s: yielded revoked tag %v", quarantine, op, res.ID)
			}
			seen[res.ID] = true
		}
		if s.Active() < 0 {
			t.Fatalf("quarantine=%v %s: negative active count %d", quarantine, op, s.Active())
		}
		if s.Active() > s.total {
			t.Fatalf("quarantine=%v %s: active %d exceeds total %d", quarantine, op, s.Active(), s.total)
		}
	}

	for i := 0; i < len(data); i++ {
		op := data[i]
		tag := universe[int(op>>4)%nTags]
		switch op % 5 {
		case 0: // Add a record; the next byte is a member bitmask.
			if i+1 >= len(data) {
				return
			}
			i++
			mask := data[i]
			var members []tagid.ID
			for b := 0; b < nTags; b++ {
				if mask&(1<<b) != 0 {
					members = append(members, universe[b])
				}
			}
			if mask&0x80 != 0 && len(members) > 0 {
				// Duplicate-member corruption: repeat the first member.
				members = append(members, members[0])
			}
			if len(members) < 2 {
				continue
			}
			ob, oob := ch.Observe(members), och.Observe(members)
			if ob.Kind != channel.Collision || oob.Kind != ob.Kind {
				continue
			}
			slot++
			got := slices.Clone(s.Add(slot, ob.Mix, members))
			check("Add", got, o.Add(slot, hiddenMix{oob.Mix}, members))
		case 1: // The reader learns a tag from a singleton read.
			if seen[tag] || revoked[tag] {
				continue
			}
			got := slices.Clone(s.OnIdentified(tag))
			want := o.OnIdentified(tag)
			seen[tag] = true
			check("OnIdentified", got, want)
		case 2:
			revoked[tag] = true
			s.Revoke(tag)
			o.Revoke(tag)
			check("Revoke", nil, nil)
		case 3:
			delete(revoked, tag)
			s.Readmit(tag)
			o.Readmit(tag)
			check("Readmit", nil, nil)
		case 4: // Checkpoint round-trip: continue on the clones.
			c, err := s.Clone()
			if err != nil {
				t.Fatalf("quarantine=%v Clone: %v", quarantine, err)
			}
			oc, err := o.Clone()
			if err != nil {
				t.Fatalf("quarantine=%v oracle Clone: %v", quarantine, err)
			}
			s, o = c, oc
			check("Clone", nil, nil)
		}
	}
}

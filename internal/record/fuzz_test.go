package record

import (
	"testing"

	"github.com/ancrfid/ancrfid/internal/channel"
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
// The op encoding is deliberately permissive: any byte string decodes to a
// valid sequence, so the fuzzer explores deep interleavings (cyclic record
// references, revoked-then-readmitted tags, duplicate members) for free.
func FuzzCascade(f *testing.F) {
	f.Add([]byte{0x00, 0x03, 0x10, 0x21})                   // add {0,1}, identify 0
	f.Add([]byte{0x00, 0x03, 0x00, 0x06, 0x00, 0x05, 0x10}) // cycle {0,1},{1,2},{0,2}, identify 0
	f.Add([]byte{0x20, 0x10, 0x00, 0x83, 0x10})             // revoke 0, identify 0, add dup {0,0,1}
	f.Add([]byte{0x20, 0x30, 0x00, 0x03, 0x10})             // revoke 0, readmit 0, add {0,1}, identify 0
	f.Add([]byte{0x10, 0x00, 0x83, 0x00, 0x83})             // identify 1, then dup records {0,0,1}
	f.Add([]byte{0x06, 0x00, 0x81})                         // identify 0, add dup record {0,0}
	f.Add([]byte{0x10, 0x02, 0x00, 0x03})                   // identify 1, revoke 0, add {0,1}
	f.Add([]byte{0x40, 0x00, 0x03, 0x40, 0x10, 0x40})       // clone swaps around a resolution
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, quarantine := range []bool{false, true} {
			runCascadeOps(t, data, quarantine)
		}
	})
}

func runCascadeOps(t *testing.T, data []byte, quarantine bool) {
	const nTags = 6
	universe := tagid.Population(rng.New(7), nTags)
	inUniverse := make(map[tagid.ID]bool, nTags)
	for _, id := range universe {
		inUniverse[id] = true
	}
	ch := channel.NewAbstract(channel.AbstractConfig{Lambda: 3}, rng.New(99))

	s := NewStore()
	s.Quarantine = quarantine

	seen := make(map[tagid.ID]bool)    // IDs the reader has learned (model)
	revoked := make(map[tagid.ID]bool) // currently-revoked tags (model)
	var slot uint64

	check := func(op string, got []Resolved) {
		t.Helper()
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
			ob := ch.Observe(members)
			if ob.Kind != channel.Collision {
				continue
			}
			slot++
			check("Add", s.Add(slot, ob.Mix, members))
		case 1: // The reader learns a tag from a singleton read.
			if seen[tag] || revoked[tag] {
				continue
			}
			seen[tag] = true
			check("OnIdentified", s.OnIdentified(tag))
		case 2:
			revoked[tag] = true
			s.Revoke(tag)
			check("Revoke", nil)
		case 3:
			delete(revoked, tag)
			s.Readmit(tag)
			check("Readmit", nil)
		case 4: // Checkpoint round-trip: continue on the clone.
			c, err := s.Clone()
			if err != nil {
				t.Fatalf("quarantine=%v Clone: %v", quarantine, err)
			}
			s = c
			check("Clone", nil)
		}
	}
}

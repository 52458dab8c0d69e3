package record

import (
	"testing"

	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// cascadeSteps returns a tracer that appends the N1 of every CascadeStep
// to *steps.
func cascadeSteps(steps *[]int) obs.Tracer {
	return obs.Func(func(ev obs.Event) {
		if ev.Kind == obs.CascadeStep {
			*steps = append(*steps, ev.N1)
		}
	})
}

// TestDeadRecordNotStored: a record beyond lambda is counted, not stored,
// its recording goes straight back to the channel, and its memberships
// still show in the CascadeStep of each member.
func TestDeadRecordNotStored(t *testing.T) {
	tags := pop(5)
	s := NewStore()
	var steps []int
	s.Tracer = cascadeSteps(&steps)
	rel := &recordingReleaser{}
	s.SetReleaser(rel)
	s.Add(1, newMix(t, 2, tags[:4]...), tags[:4])
	if len(rel.released) != 1 {
		t.Fatalf("dead recording released %d times, want 1", len(rel.released))
	}
	s.Add(2, newMix(t, 2, tags[0], tags[4]), []tagid.ID{tags[0], tags[4]})
	if len(s.byMember) != 2 || len(s.dead) != 4 || s.Active() != 2 {
		t.Fatalf("indexed %d members, %d dead counts, active %d; want 2, 4, 2",
			len(s.byMember), len(s.dead), s.Active())
	}
	res := s.OnIdentified(tags[0])
	if len(res) != 1 || res[0].ID != tags[4] {
		t.Fatalf("resolved %v, want %v", res, tags[4])
	}
	s.OnIdentified(tags[1])
	if len(steps) != 3 || steps[0] != 2 || steps[1] != 1 || steps[2] != 1 {
		t.Fatalf("cascade steps N1 %v, want [2 1 1]", steps)
	}
	if s.Active() != 1 {
		t.Fatalf("active %d, want the dead record's 1", s.Active())
	}
}

// TestCloneCarriesDeadCounts: a clone reports the dead memberships of the
// store it was taken from, and the two stay independent.
func TestCloneCarriesDeadCounts(t *testing.T) {
	tags := pop(3)
	s := NewStore()
	var steps []int
	s.Tracer = cascadeSteps(&steps)
	s.Add(1, newMix(t, 2, tags...), tags)
	c, err := s.Clone()
	if err != nil {
		t.Fatal(err)
	}
	s.OnIdentified(tags[0])
	c.OnIdentified(tags[0])
	c.OnIdentified(tags[1])
	if len(steps) != 3 || steps[0] != 1 || steps[1] != 1 || steps[2] != 1 {
		t.Fatalf("cascade steps N1 %v, want [1 1 1]", steps)
	}
	if c.Active() != 1 {
		t.Fatalf("clone active %d, want 1", c.Active())
	}
}

// TestRevokeClearsDeadCount: a revoked tag's dead memberships are dropped
// with its indexed ones, so learning it later starts no cascade, even
// after it is readmitted.
func TestRevokeClearsDeadCount(t *testing.T) {
	tags := pop(3)
	s := NewStore()
	var steps []int
	s.Tracer = cascadeSteps(&steps)
	s.Add(1, newMix(t, 2, tags...), tags)
	s.Revoke(tags[0])
	s.Readmit(tags[0])
	s.OnIdentified(tags[0])
	if len(steps) != 0 {
		t.Fatalf("revoked tag cascaded with N1 %v", steps)
	}
	s.OnIdentified(tags[1])
	if len(steps) != 1 || steps[0] != 1 {
		t.Fatalf("cascade steps N1 %v, want [1]", steps)
	}
}

// TestDeadRecordQuarantineResidual: under Quarantine a dead record is
// stored and indexed, so the residual guard still evicts it once a single
// constituent remains.
func TestDeadRecordQuarantineResidual(t *testing.T) {
	tags := pop(3)
	s := NewStore()
	s.Quarantine = true
	var reasons []string
	s.Tracer = obs.Func(func(ev obs.Event) {
		if ev.Kind == obs.RecordQuarantined {
			reasons = append(reasons, ev.Label)
		}
	})
	s.Add(1, newMix(t, 2, tags...), tags)
	if len(s.dead) != 0 || s.Active() != 1 {
		t.Fatalf("%d dead counts, active %d; want the record stored", len(s.dead), s.Active())
	}
	s.OnIdentified(tags[0])
	s.OnIdentified(tags[1])
	if len(reasons) != 1 || reasons[0] != "residual" {
		t.Fatalf("quarantine reasons %v, want [residual]", reasons)
	}
	if s.Active() != 0 || s.Quarantined() != 1 {
		t.Fatalf("active %d quarantined %d, want 0 and 1", s.Active(), s.Quarantined())
	}
}

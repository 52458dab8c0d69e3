// The driver tests run the one dynamic driver, sim.RunDynamicOnce, over
// this package's schedules; the external test package breaks the import
// cycle.
package workload_test

import (
	"reflect"
	"testing"
	"time"

	"github.com/ancrfid/ancrfid/internal/fcat"
	"github.com/ancrfid/ancrfid/internal/sim"
	"github.com/ancrfid/ancrfid/internal/workload"
)

// runOnce executes run 0 of a fault-free dynamic campaign of FCAT-2 over
// tags initial tags under cfg.
func runOnce(seed uint64, tags int, cfg workload.Config) (sim.DynamicReport, error) {
	dc := sim.DynamicConfig{Config: sim.Config{Tags: tags, Seed: seed}, Workload: cfg}
	return sim.RunDynamicOnce(fcat.New(fcat.Config{Lambda: 2}), dc, 0)
}

// TestConveyorAccounting checks the total population accounting of a
// conveyor run: every admitted tag ends identified, departed-unread, or
// still-active, and the per-tag records agree with the aggregate counters.
func TestConveyorAccounting(t *testing.T) {
	rep, err := runOnce(7, 10, workload.Conveyor(80, 500*time.Millisecond, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != len(rep.Tags) {
		t.Fatalf("Admitted=%d but %d records", rep.Admitted, len(rep.Tags))
	}
	if got := rep.Identified + rep.DepartedUnread + rep.ActiveUnread; got != rep.Admitted {
		t.Fatalf("accounting leak: identified %d + missed %d + active %d = %d, admitted %d",
			rep.Identified, rep.DepartedUnread, rep.ActiveUnread, got, rep.Admitted)
	}
	if rep.Admitted < 200 {
		t.Fatalf("expected ~400 arrivals over 5s at 80/s, got %d", rep.Admitted)
	}
	var idf, missed, active int
	for _, rec := range rep.Tags {
		switch {
		case rec.Identified:
			idf++
			if rec.IdentifiedAt < rec.ArrivedAt {
				t.Fatalf("tag %v identified at %v before arrival %v", rec.ID, rec.IdentifiedAt, rec.ArrivedAt)
			}
		case rec.Departed:
			missed++
			if rec.DepartedAt < rec.ArrivedAt {
				t.Fatalf("tag %v departed at %v before arrival %v", rec.ID, rec.DepartedAt, rec.ArrivedAt)
			}
		default:
			active++
		}
	}
	if idf != rep.Identified || missed != rep.DepartedUnread || active != rep.ActiveUnread {
		t.Fatalf("record tally (%d,%d,%d) disagrees with counters (%d,%d,%d)",
			idf, missed, active, rep.Identified, rep.DepartedUnread, rep.ActiveUnread)
	}
	if rep.Metrics.Tags != rep.Admitted {
		t.Fatalf("Metrics.Tags=%d, want every admitted tag counted (%d)", rep.Metrics.Tags, rep.Admitted)
	}
	if rep.Duration < 5*time.Second {
		t.Fatalf("run stopped at %v, before the 5s horizon", rep.Duration)
	}
}

// TestRunDeterminism re-runs the identical configuration and expects the
// byte-identical report.
func TestRunDeterminism(t *testing.T) {
	cfg := workload.Config{Duration: 2 * time.Second, ArrivalRate: 50, DepartureRate: 0.2, Burst: 3}
	rep1, err1 := runOnce(11, 5, cfg)
	rep2, err2 := runOnce(11, 5, cfg)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatal("same seed produced different reports")
	}
}

// TestPortalMissedReads drives a portal with dwell far shorter than the
// identification capacity allows, so some tags must depart unread — the
// missed-read accounting has to catch them.
func TestPortalMissedReads(t *testing.T) {
	rep, err := runOnce(5, 0, workload.Portal(40, 2, 30*time.Millisecond, 3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DepartedUnread == 0 {
		t.Fatalf("expected missed reads with 30ms mean dwell and 80 tags/s offered, got none (admitted %d, identified %d)",
			rep.Admitted, rep.Identified)
	}
	if got := rep.Identified + rep.DepartedUnread + rep.ActiveUnread; got != rep.Admitted {
		t.Fatalf("accounting leak under departures: %d != %d", got, rep.Admitted)
	}
}

// TestPercentile pins the nearest-rank definition.
func TestPercentile(t *testing.T) {
	lat := []time.Duration{40, 10, 20, 30}
	if got := workload.Percentile(lat, 50); got != 20 {
		t.Fatalf("p50 = %v, want 20", got)
	}
	if got := workload.Percentile(lat, 100); got != 40 {
		t.Fatalf("p100 = %v, want 40", got)
	}
	if got := workload.Percentile(nil, 50); got != 0 {
		t.Fatalf("empty p50 = %v, want 0", got)
	}
}

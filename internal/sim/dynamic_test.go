package sim

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/ancrfid/ancrfid/internal/fault"
	"github.com/ancrfid/ancrfid/internal/fcat"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/workload"
)

func dynamicConfig(workers int) DynamicConfig {
	return DynamicConfig{
		Config: Config{Tags: 10, Runs: 6, Seed: 21, Workers: workers},
		Workload: workload.Config{
			Duration:      1500 * time.Millisecond,
			ArrivalRate:   60,
			DepartureRate: 0.3,
		},
	}
}

// TestRunDynamicParallelDeterminism holds the ordered-merge contract for
// dynamic campaigns: any worker count yields the identical reports and
// the byte-identical trace stream.
func TestRunDynamicParallelDeterminism(t *testing.T) {
	p := fcat.New(fcat.Config{Lambda: 2})

	var seqTrace bytes.Buffer
	seqCfg := dynamicConfig(1)
	seqCfg.Tracer = obs.NewJSONL(&seqTrace)
	seq, err := RunDynamic(p, seqCfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 8} {
		var trace bytes.Buffer
		cfg := dynamicConfig(workers)
		cfg.Tracer = obs.NewJSONL(&trace)
		got, err := RunDynamic(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, got) {
			t.Fatalf("workers=%d changed the dynamic campaign result", workers)
		}
		if !bytes.Equal(seqTrace.Bytes(), trace.Bytes()) {
			t.Fatalf("workers=%d changed the trace stream", workers)
		}
	}
}

// TestRunDynamicTracesRunEnd checks every dynamic run closes its trace with
// run_end, so the completed-runs counter and the span builder see it end.
func TestRunDynamicTracesRunEnd(t *testing.T) {
	var trace bytes.Buffer
	cfg := dynamicConfig(1)
	cfg.Runs = 2
	cfg.Tracer = obs.NewJSONL(&trace)
	cfg.Metrics = obs.NewRegistry()
	if _, err := RunDynamic(fcat.New(fcat.Config{Lambda: 2}), cfg); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(trace.Bytes(), []byte(`"ev":"run_end"`)); got != 2 {
		t.Errorf("%d run_end lines in a 2-run trace, want 2", got)
	}
	if got := cfg.Metrics.Value(obs.MetricRunsCompleted); got != 2 {
		t.Errorf("%s = %d, want 2", obs.MetricRunsCompleted, got)
	}
}

// TestRunDynamicError checks a failing run surfaces as the campaign error
// with its run index, like the static path.
func TestRunDynamicError(t *testing.T) {
	p := fcat.New(fcat.Config{Lambda: 2})
	cfg := dynamicConfig(1)
	cfg.MaxSlots = 3 // starve the budget so the horizon is unreachable
	_, err := RunDynamic(p, cfg)
	if !errors.Is(err, protocol.ErrNoProgress) {
		t.Fatalf("want ErrNoProgress, got %v", err)
	}
}

// TestRunDynamicOncePartialReport checks the failing run still hands back
// its partially accumulated report (the CLI prints it).
func TestRunDynamicOncePartialReport(t *testing.T) {
	p := fcat.New(fcat.Config{Lambda: 2})
	cfg := dynamicConfig(1)
	cfg.MaxSlots = 3
	rep, err := RunDynamicOnce(p, cfg, 0)
	if !errors.Is(err, protocol.ErrNoProgress) {
		t.Fatalf("want ErrNoProgress, got %v", err)
	}
	if rep.Admitted == 0 {
		t.Fatal("partial report lost the admitted population")
	}
}

// TestRunDynamicCrashMarks checks that crash-recovery marks are taken
// only when a crash can happen: a faulted run without crashes takes no
// snapshot and emits no SessionCheckpoint event, and a crashing run still
// takes its marks and restores from them.
func TestRunDynamicCrashMarks(t *testing.T) {
	p := fcat.New(fcat.Config{Lambda: 2})
	for _, tc := range []struct {
		name   string
		faults fault.Config
	}{
		{"ackloss", fault.Config{AckLoss: 0.1}},
		{"crash", fault.Config{AckLoss: 0.1, CrashEvery: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var events int
			cfg := dynamicConfig(1)
			cfg.Faults = tc.faults
			cfg.Tracer = obs.Func(func(ev obs.Event) {
				if ev.Kind == obs.SessionCheckpoint {
					events++
				}
			})
			rep, err := RunDynamicOnce(p, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rep.FaultsInjected == 0 {
				t.Fatal("no fault injected; the run does not exercise the fault path")
			}
			if events != rep.Checkpoints {
				t.Errorf("%d session_checkpoint events for %d checkpoints", events, rep.Checkpoints)
			}
			crashes := tc.faults.CrashEvery > 0
			if got := rep.Checkpoints > 0; got != crashes {
				t.Errorf("CrashEvery %d: %d checkpoints taken", tc.faults.CrashEvery, rep.Checkpoints)
			}
			if crashes && rep.Crashes == 0 {
				t.Error("crashing run restored from no mark")
			}
		})
	}
}

// TestZeroDwellDepartures drives a departure hazard so high that every tag
// leaves at the instant it arrives. The departure must still follow its
// own tag's arrival, with and without a fault channel and crashes, and a
// burst arrives whole before its tags leave.
func TestZeroDwellDepartures(t *testing.T) {
	p := fcat.New(fcat.Config{Lambda: 2})
	cfg := dynamicConfig(1)
	cfg.Workload.Burst = 3
	cfg.Workload.DepartureRate = 1e12
	var present []int
	cfg.Tracer = obs.Func(func(ev obs.Event) {
		if ev.Kind == obs.TagArrival {
			present = append(present, ev.N1)
		}
	})

	rep, err := RunDynamicOnce(p, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range present {
		if n != i%3+1 {
			t.Fatalf("arrival %d saw %d tags present, want %d: a burst must arrive whole, then leave",
				i, n, i%3+1)
		}
	}
	if !rep.Accounted() || rep.Phantoms != 0 || rep.DupIdents != 0 {
		t.Errorf("fault-free: invariants broken: %+v", rep)
	}
	assertAllDeparted(t, "fault-free", rep.Tags)

	cfg.Tracer = nil
	cfg.Faults = fault.Config{AckLoss: 0.1, CrashEvery: 64}
	crep, err := RunDynamicOnce(p, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !crep.Accounted() || crep.Phantoms != 0 || crep.DupIdents != 0 {
		t.Errorf("faulted: invariants broken: %+v", crep)
	}
	assertAllDeparted(t, "faulted", crep.Tags)
}

func assertAllDeparted(t *testing.T, entry string, tags []workload.TagRecord) {
	t.Helper()
	if len(tags) <= 10 {
		t.Fatalf("%s: only %d tags admitted; the schedule delivered no arrivals", entry, len(tags))
	}
	for _, rec := range tags {
		if !rec.Departed || rec.DepartedAt != rec.ArrivedAt {
			t.Fatalf("%s: tag %v arrived %v, departed=%v at %v; want it gone on arrival",
				entry, rec.ID, rec.ArrivedAt, rec.Departed, rec.DepartedAt)
		}
	}
}

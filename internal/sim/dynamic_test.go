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

// TestRunDynamicRejectsFaults checks that a dynamic campaign configured
// with fault injection fails loudly instead of running fault-free.
func TestRunDynamicRejectsFaults(t *testing.T) {
	p := fcat.New(fcat.Config{Lambda: 2})
	cfg := dynamicConfig(1)
	cfg.Faults = fault.Config{AckLoss: 0.5, MuteProb: 0.3}
	if _, err := RunDynamic(p, cfg); !errors.Is(err, ErrDynamicFaults) {
		t.Fatalf("RunDynamic: want ErrDynamicFaults, got %v", err)
	}
	if _, err := RunDynamicOnce(p, cfg, 0); !errors.Is(err, ErrDynamicFaults) {
		t.Fatalf("RunDynamicOnce: want ErrDynamicFaults, got %v", err)
	}
	cfg.Workers = 4
	if _, err := RunDynamic(p, cfg); !errors.Is(err, ErrDynamicFaults) {
		t.Fatalf("RunDynamic with workers: want ErrDynamicFaults, got %v", err)
	}
}

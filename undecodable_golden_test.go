package ancrfid_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/ancrfid/ancrfid"
)

// undecodableGolden pins the recordings a reader can never decode (paper,
// Section IV-E) bit-for-bit: slots spoiled by burst noise, corrupted
// singletons and slots an adjacent reader's carrier interfered with. One
// SHA-256 per cell covers the campaign result, the JSONL trace and the
// registry dump. The other goldens' faulted cells inject only ack loss,
// decode corruption and crashes, so none of them records such a slot.
//
// The cells are a dynamic FCAT-2 campaign under burst, corrupt-singleton
// and corrupt-decode faults, and an uncoordinated FCAT-2 fleet at the
// default transmit power, fault-free and under the same faults, each over
// both channels. Every cell also asserts that it exercised what it pins.
//
// Regenerate (only when intentionally changing observable behaviour) with:
//
//	UPDATE_GOLDEN=1 go test -run TestUndecodableGolden .
const undecodableGolden = "testdata/undecodable.golden"

// undecodableFaults are the fault shapes whose recordings never decode,
// plus decode corruption, whose recordings wrap a decodable one.
var undecodableFaults = ancrfid.FaultConfig{
	Burst:            ancrfid.FaultBurstConfig{Duty: 0.1},
	CorruptSingleton: 0.2,
	CorruptDecode:    0.2,
}

type undecodableCell struct {
	key string
	// faults reports whether the cell injects undecodableFaults; fleet
	// reports whether it is a fleet campaign (dynamic otherwise).
	faults, fleet bool
	channel       string // "abstract" or "signal"
}

func undecodableCells() []undecodableCell {
	var cells []undecodableCell
	for _, ch := range []string{"abstract", "signal"} {
		cells = append(cells,
			undecodableCell{key: "dynamic/FCAT-2/" + ch + "/faults", faults: true, channel: ch},
			undecodableCell{key: "fleet/FCAT-2/none/" + ch, fleet: true, channel: ch},
			undecodableCell{key: "fleet/FCAT-2/none/" + ch + "/faults", faults: true, fleet: true, channel: ch},
		)
	}
	return cells
}

// undecodableHash runs one cell and hashes its result, JSONL trace and
// registry dump, failing the test when the cell exercised nothing.
func undecodableHash(t *testing.T, c undecodableCell) string {
	t.Helper()
	var trace bytes.Buffer
	jsonl := ancrfid.NewJSONLTracer(&trace)
	reg := ancrfid.NewRegistry()
	faultEvents := map[ancrfid.FaultKind]int{}
	count := ancrfid.TracerFunc(func(ev ancrfid.TraceEvent) {
		if ev.Kind == ancrfid.TraceFaultInjected {
			faultEvents[ancrfid.FaultKind(ev.Sub)]++
		}
	})
	cfg := ancrfid.SimConfig{
		Tags: 40, Runs: 2, Seed: 29, Workers: 2, PAckLoss: 0.02,
		Tracer: ancrfid.MultiTracer(jsonl, count), Metrics: reg,
	}
	if c.faults {
		cfg.Faults = undecodableFaults
	}
	if c.channel == "signal" {
		cfg.Tags = 12
		cfg.NewChannel = signalChannel
	}
	var res any
	var err error
	if c.fleet {
		res, err = ancrfid.RunFleet(sessionByName(t, "FCAT-2"), ancrfid.FleetSimConfig{
			Config: cfg,
			Fleet: ancrfid.FleetTopology{
				Readers: 4, Zones: 4, Policy: ancrfid.UncoordinatedPolicy(), Workers: 2,
				Horizon: 300 * time.Millisecond, MigrationRate: 3,
			},
		})
	} else {
		wl := ancrfid.WorkloadConfig{Duration: 1500 * time.Millisecond, ArrivalRate: 8, Burst: 4, DepartureRate: 0.6}
		if c.channel == "signal" {
			wl.ArrivalRate, wl.Burst, wl.Duration = 3, 3, time.Second
		}
		res, err = ancrfid.RunDynamic(sessionByName(t, "FCAT-2"), ancrfid.DynamicSimConfig{Config: cfg, Workload: wl})
	}
	if err != nil {
		t.Fatalf("%s: %v", c.key, err)
	}
	if err := jsonl.Err(); err != nil {
		t.Fatal(err)
	}
	if c.faults && (faultEvents[ancrfid.FaultBurst] == 0 || faultEvents[ancrfid.FaultCorruptSingleton] == 0) {
		t.Errorf("%s: vacuous cell: %d burst and %d corrupt-singleton faults", c.key,
			faultEvents[ancrfid.FaultBurst], faultEvents[ancrfid.FaultCorruptSingleton])
	}
	if !c.faults && len(faultEvents) != 0 {
		t.Errorf("%s: fault-free cell injected faults: %v", c.key, faultEvents)
	}
	if n := reg.Value("fleet.interfered"); c.fleet && n == 0 {
		t.Errorf("%s: vacuous cell: no interfered slot", c.key)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%#v\n", res)
	h.Write(trace.Bytes())
	if _, err := reg.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestUndecodableGolden pins the never-decoding recordings of fault
// injection and fleet interference on both channels.
func TestUndecodableGolden(t *testing.T) {
	cells := undecodableCells()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var sb strings.Builder
		sb.WriteString("# Capture hashes of campaign result + JSONL trace + registry dump per cell whose\n")
		sb.WriteString("# slots record never-decoding collisions. See undecodable_golden_test.go.\n")
		for _, c := range cells {
			fmt.Fprintf(&sb, "%s %s\n", c.key, undecodableHash(t, c))
		}
		if err := os.WriteFile(undecodableGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d cells", undecodableGolden, len(cells))
		return
	}
	want := readGoldenFile(t, undecodableGolden)
	if len(want) != len(cells) {
		t.Fatalf("golden has %d cells, expected %d", len(want), len(cells))
	}
	for _, c := range cells {
		c := c
		t.Run(c.key, func(t *testing.T) {
			t.Parallel()
			if want[c.key] == "" {
				t.Fatalf("no golden entry for %s", c.key)
			}
			if got := undecodableHash(t, c); got != want[c.key] {
				t.Errorf("drifted:\n got %s\nwant %s", got, want[c.key])
			}
		})
	}
}

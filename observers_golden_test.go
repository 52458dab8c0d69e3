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

// observersGolden pins the event-stream consumers the other goldens do not
// cover: one SHA-256 per cell over the Timeline text, the Chrome-trace JSON
// a SpanBuilder feeds, and the HealthMonitor's OnEvent stream plus its final
// Snapshot. testdata/differential.golden and testdata/dynamic.golden hash
// only the JSONL trace and the registry dump; this file pins the rest.
//
// The cells are the differential matrix at its first seed (every protocol
// x abstract/signal x workers 1/8), one faulted RunDynamic campaign (ack
// loss, decode corruption and crash-restarts, so fault, quarantine and
// restart events flow) and one RunFleet campaign (fleet activity events).
//
// Regenerate (only when intentionally changing observable behaviour) with:
//
//	UPDATE_GOLDEN=1 go test -run TestObserversGolden .
const observersGolden = "testdata/observers.golden"

// observerHealthConfig makes the detectors trip on these small campaigns,
// so the health stream is not vacuous.
var observerHealthConfig = ancrfid.HealthConfig{StallSlots: 6, QuarantineMinRecords: 2}

type observerCell struct {
	key string
	run func(tracer ancrfid.Tracer) error
}

func observerCells(t *testing.T) []observerCell {
	var cells []observerCell
	for _, proto := range allProtocols {
		for _, ch := range []string{"abstract", "signal"} {
			for _, workers := range differentialWorkers {
				c := differentialCase{proto, ch, differentialSeeds[0], workers}
				cells = append(cells, observerCell{key: c.key(), run: func(tr ancrfid.Tracer) error {
					p, err := ancrfid.ByName(c.proto)
					if err != nil {
						return err
					}
					cfg := differentialConfig(c)
					cfg.Tracer = tr
					_, err = ancrfid.Run(p, cfg)
					return err
				}})
			}
		}
	}
	fcat := sessionByName(t, "FCAT-2")
	cells = append(cells, observerCell{key: "chaos/FCAT-2/abstract/workers=8", run: func(tr ancrfid.Tracer) error {
		cfg := ancrfid.DynamicSimConfig{
			Config: ancrfid.SimConfig{Tags: 40, Runs: 2, Seed: 17, Workers: 8, PAckLoss: 0.05, Tracer: tr},
			Workload: ancrfid.WorkloadConfig{
				Duration: 1500 * time.Millisecond, ArrivalRate: 8, Burst: 4, DepartureRate: 0.6,
			},
			CheckpointEvery: 16,
		}
		cfg.Faults = ancrfid.FaultConfig{AckLoss: 0.1, CorruptDecode: 0.2, CrashEvery: 40}
		_, err := ancrfid.RunDynamic(fcat, cfg)
		return err
	}})
	cells = append(cells, observerCell{key: "fleet/FCAT-2/tdma/workers=4", run: func(tr ancrfid.Tracer) error {
		_, err := ancrfid.RunFleet(fcat, ancrfid.FleetSimConfig{
			Config: ancrfid.SimConfig{Tags: 60, Runs: 2, Seed: 23, PAckLoss: 0.02, Tracer: tr, Workers: 4},
			Fleet: ancrfid.FleetTopology{
				Readers: 4, Zones: 4, Policy: ancrfid.TDMAPolicy(0), Workers: 2,
				Horizon: 300 * time.Millisecond, MigrationRate: 3,
			},
		})
		return err
	}})
	return cells
}

// observersHash runs one cell with a Timeline, a SpanBuilder over a
// ChromeTrace and a HealthMonitor attached, and hashes all three outputs.
func observersHash(t *testing.T, c observerCell) string {
	t.Helper()
	var timeline, spans, health bytes.Buffer
	tl := ancrfid.NewTimelineTracer(&timeline)
	ct := ancrfid.NewChromeTrace(&spans)
	sb := ancrfid.NewSpanBuilder(ct)
	hm := ancrfid.NewHealthMonitor(observerHealthConfig)
	hm.OnEvent = func(ev ancrfid.HealthEvent) { fmt.Fprintf(&health, "%#v\n", ev) }
	if err := c.run(ancrfid.MultiTracer(tl, sb, hm)); err != nil {
		t.Fatalf("%s: %v", c.key, err)
	}
	sb.Close()
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tl.Err(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&health, "%#v\n", hm.Snapshot())
	h := sha256.New()
	for _, part := range []*bytes.Buffer{&timeline, &spans, &health} {
		fmt.Fprintf(h, "%d\n", part.Len())
		h.Write(part.Bytes())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestObserversGolden pins the Timeline, span and health outputs of every
// protocol over both channels and both campaign paths, plus chaos and fleet
// campaigns.
func TestObserversGolden(t *testing.T) {
	cells := observerCells(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var sb strings.Builder
		sb.WriteString("# Capture hashes of Timeline text + SpanBuilder/ChromeTrace JSON + HealthMonitor\n")
		sb.WriteString("# events and snapshot per cell. See observers_golden_test.go.\n")
		for _, c := range cells {
			fmt.Fprintf(&sb, "%s %s\n", c.key, observersHash(t, c))
		}
		if err := os.WriteFile(observersGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d cells", observersGolden, len(cells))
		return
	}
	want := readGoldenFile(t, observersGolden)
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
			if got := observersHash(t, c); got != want[c.key] {
				t.Errorf("observer outputs drifted:\n got %s\nwant %s", got, want[c.key])
			}
		})
	}
}

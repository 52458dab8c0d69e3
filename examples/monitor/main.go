// monitor runs the paper's periodic-reading loop (Section I: "Periodically
// reading the IDs of the tags is an important function to guard against
// administration error, vendor fraud and employee theft"): a dock door is
// read every round while pallets arrive and depart, and each round's
// report lists exactly what changed, comparing the adaptive tree reader
// (cheap re-reads, expensive on churn) against the collision-aware FCAT
// reader (flat cost).
//
// The per-round report is assembled live from the reader's telemetry plane:
// an ancrfid.SpanBuilder folds the event stream into hierarchical spans
// (run > frame > slot > decode activity) whose stream drives the slot
// counts, the ANC-resolution tally and the on-air time, while an
// ancrfid.HealthMonitor scores each round's degradation. Only the ID diff
// itself still reads identification events directly — spans deliberately
// carry no 96-bit tag IDs. The report needs no access to the simulation's
// ground truth: it sees exactly what a reader in the field would see.
//
// Run with:
//
//	go run ./examples/monitor
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/ancrfid/ancrfid"
)

// roundTelemetry accumulates one reading round from the telemetry plane.
type roundTelemetry struct {
	ids      map[ancrfid.TagID]struct{}
	builder  *ancrfid.SpanBuilder
	health   *ancrfid.HealthMonitor
	slots    int // SpanSlot spans seen
	resolved int // SpanIdentify spans flagged via-resolution
	airTime  time.Duration
}

func newRoundTelemetry() *roundTelemetry {
	rt := &roundTelemetry{ids: make(map[ancrfid.TagID]struct{})}
	rt.builder = ancrfid.NewSpanBuilder(ancrfid.SpanSinkFunc(func(s ancrfid.Span) {
		switch s.Kind {
		case ancrfid.SpanSlot:
			rt.slots++
		case ancrfid.SpanIdentify:
			if s.N1 == 1 {
				rt.resolved++
			}
		case ancrfid.SpanRun:
			rt.airTime = s.End - s.Start
		}
	}))
	rt.health = ancrfid.NewHealthMonitor(ancrfid.HealthConfig{})
	return rt
}

// tracer returns the round's composite observer: the span builder and the
// health monitor consume the full stream; a minimal hook collects the IDs
// the change report diffs.
func (rt *roundTelemetry) tracer() ancrfid.Tracer {
	return ancrfid.MultiTracer(
		ancrfid.TracerFunc(func(ev ancrfid.TraceEvent) {
			if ev.Kind == ancrfid.TraceTagIdentified {
				rt.ids[ev.ID] = struct{}{}
			}
		}),
		rt.builder,
		rt.health,
	)
}

// finish flushes the round's open spans (run and campaign close on Close).
func (rt *roundTelemetry) finish() { rt.builder.Close() }

func main() {
	r := ancrfid.NewRNG(99)

	// The dock starts with 3000 tagged pallets.
	present := make(map[ancrfid.TagID]struct{})
	var serial uint64
	addPallets := func(n int) {
		for i := 0; i < n; i++ {
			present[ancrfid.TagIDFromParts(500, 1, serial)] = struct{}{}
			serial++
		}
	}
	removePallets := func(n int) {
		for id := range present {
			if n == 0 {
				break
			}
			delete(present, id)
			n--
		}
	}
	addPallets(3000)

	aqs := ancrfid.NewAQSReader()
	fcat := ancrfid.NewFCAT(2)
	known := make(map[ancrfid.TagID]struct{})

	fmt.Println("round  present  arrived  departed  resolved  AQS slots  FCAT slots  FCAT air  health")
	for round := 1; round <= 6; round++ {
		// Overnight churn: trucks come and go.
		switch round {
		case 2:
			removePallets(400)
		case 3:
			addPallets(900)
		case 5:
			removePallets(1500)
			addPallets(200)
		}

		tags := make([]ancrfid.TagID, 0, len(present))
		for id := range present {
			tags = append(tags, id)
		}

		// Each reader streams its telemetry into its own collector; the AQS
		// one is only used for its slot count here, the FCAT one drives the
		// change report.
		aqsTel, fcatTel := newRoundTelemetry(), newRoundTelemetry()
		if _, err := aqs.RunRound(freshEnv(r, tags, aqsTel.tracer())); err != nil {
			log.Fatal(err)
		}
		if _, err := fcat.Run(freshEnv(r, tags, fcatTel.tracer())); err != nil {
			log.Fatal(err)
		}
		aqsTel.finish()
		fcatTel.finish()

		// Diff the streamed reading against the last known inventory.
		arrived, departed := 0, 0
		for id := range fcatTel.ids {
			if _, ok := known[id]; !ok {
				arrived++
			}
		}
		for id := range known {
			if _, ok := fcatTel.ids[id]; !ok {
				departed++
			}
		}
		known = fcatTel.ids

		fmt.Printf("%5d  %7d  %7d  %8d  %8d  %9d  %10d  %8v  %6.0f\n",
			round, len(present), arrived, departed, fcatTel.resolved,
			aqsTel.slots, fcatTel.slots, fcatTel.airTime.Round(time.Millisecond),
			fcatTel.health.Score())
	}

	fmt.Println("\nAQS re-reads an unchanged dock almost for free but pays to rebuild")
	fmt.Println("its tree under churn; FCAT's cost tracks the population size alone.")
}

func freshEnv(r *ancrfid.RNG, tags []ancrfid.TagID, tr ancrfid.Tracer) *ancrfid.Env {
	return &ancrfid.Env{
		RNG:     r.Split(),
		Tags:    tags,
		Channel: ancrfid.NewAbstractChannel(ancrfid.AbstractChannelConfig{Lambda: 2}, r.Split()),
		Timing:  ancrfid.ICodeTiming(),
		Tracer:  tr,
	}
}

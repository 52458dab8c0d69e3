// Hot-path benchmarks: the per-run cost the CI bench gate tracks (see
// cmd/benchgate and docs/performance.md). BenchmarkCampaign is the
// headline end-to-end number; BenchmarkSlotLoop isolates the steady-state
// slot loop it is built from.
package ancrfid_test

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/ancrfid/ancrfid"
	"github.com/ancrfid/ancrfid/internal/channel"
)

// BenchmarkCampaign measures a single-worker FCAT-2 campaign over 5000
// tags — the per-run hot path (transmitter draws, channel observations,
// record cascades) with no parallelism masking it.
func BenchmarkCampaign(b *testing.B) {
	p := ancrfid.NewFCAT(2)
	cfg := ancrfid.SimConfig{Tags: 5000, Runs: 4, Seed: 1, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ancrfid.Run(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
	simulated := float64(cfg.Tags*cfg.Runs) * float64(b.N)
	b.ReportMetric(simulated/b.Elapsed().Seconds(), "tags/sec")
}

// sessionSteadyState builds an FCAT-2 session and drives it until the
// population is exhausted, leaving it in the continuous-monitoring state
// (probing an empty field) — the per-slot cost an idle reader pays between
// arrivals in a dynamic workload.
func sessionSteadyState(fatal func(...any)) ancrfid.Session {
	sp, ok := ancrfid.AsSession(ancrfid.NewFCAT(2))
	if !ok {
		fatal("FCAT does not implement SessionProtocol")
	}
	env := sessionEnv("abstract", 1)
	env.MaxSlots = 1 << 40 // monitoring steps must never hit the budget
	s := sp.Begin(env)
	for {
		done, err := s.Step()
		if err != nil {
			fatal(err)
		}
		if done {
			return s
		}
	}
}

// BenchmarkSessionStep measures the steady-state session step: a quiesced
// FCAT-2 session monitoring an exhausted field, one probe slot per Step.
// This is the idle-reader cost of the continuous-inventory loop (see
// docs/architecture.md); the zero-alloc guard for it is
// TestSessionStepZeroAlloc.
func BenchmarkSessionStep(b *testing.B) {
	s := sessionSteadyState(b.Fatal)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSessionStepZeroAlloc pins the steady-state session step to zero
// allocations with the tracer off: monitoring an empty field must cost the
// probe slot and nothing else, so dynamic workloads can idle indefinitely
// without garbage.
func TestSessionStepZeroAlloc(t *testing.T) {
	s := sessionSteadyState(func(args ...any) { t.Fatal(args...) })
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state session step allocates %v times, want 0", allocs)
	}
}

// BenchmarkSlotLoop measures one deterministic FCAT-2 run and reports the
// amortised cost per slot, the unit the zero-allocation guards are written
// against.
func BenchmarkSlotLoop(b *testing.B) {
	p := ancrfid.NewFCAT(2)
	cfg := ancrfid.SimConfig{Tags: 2000, Runs: 1, Seed: 1, Workers: 1}
	b.ReportAllocs()
	slots := 0
	for i := 0; i < b.N; i++ {
		m, err := ancrfid.RunOnce(p, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		slots = m.TotalSlots()
	}
	if slots > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(slots), "ns/slot")
	}
}

// BenchmarkSpanEmit measures the span builder's per-slot cost: folding an
// identify + slot event pair into the open hierarchy with a no-op sink.
// This is the overhead -spans adds to every traced slot, so the bench gate
// tracks it; TestSpanEmitNoAlloc (internal/obs) pins it allocation-free.
func BenchmarkSpanEmit(b *testing.B) {
	sb := ancrfid.NewSpanBuilder(ancrfid.SpanSinkFunc(func(ancrfid.Span) {}))
	sb.Emit(ancrfid.TraceEvent{Kind: ancrfid.TraceRunStart, Label: "BENCH", N1: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := time.Duration(i) * time.Millisecond
		sb.Emit(ancrfid.TraceEvent{Kind: ancrfid.TraceTagIdentified, At: at})
		sb.Emit(ancrfid.TraceEvent{Kind: ancrfid.TraceSlotDone, Seq: i,
			Sub: uint8(channel.Singleton), N1: 1, At: at})
	}
}

// BenchmarkExposition measures one Prometheus text exposition of a
// campaign-populated registry — the cost of a /metrics scrape against a
// live -serve endpoint.
func BenchmarkExposition(b *testing.B) {
	p := ancrfid.NewFCAT(2)
	reg := ancrfid.NewRegistry()
	cfg := ancrfid.SimConfig{Tags: 1000, Runs: 1, Seed: 1, Workers: 1, Metrics: reg}
	if _, err := ancrfid.Run(p, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ancrfid.WritePrometheus(io.Discard, reg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmitLarge admits a batch of fresh tags into a session over an
// empty field, then revokes the whole batch in one call — the path a
// session-server client drives with a large admit. Every session keeps a
// membership index beside its tag list, so both calls are linear in the
// batch: the n=100000 case should cost about 10x the n=10000 one, not
// 100x.
func BenchmarkAdmitLarge(b *testing.B) {
	for _, name := range []string{"DFSA", "EDFSA", "CRDSA", "MDFSA-2", "PRALOHA-2", "ABS", "AQS", "FCAT-2", "SCAT-2"} {
		p, err := ancrfid.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		sp, _ := ancrfid.AsSession(p)
		for _, n := range []int{10_000, 100_000} {
			ids := ancrfid.Population(ancrfid.NewRNG(uint64(n)), n)
			// Sub-benchmark names avoid "-<digits>", which benchgate would
			// read as a GOMAXPROCS suffix.
			b.Run(fmt.Sprintf("%s/n=%d", strings.TrimSuffix(name, "-2"), n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r := ancrfid.NewRNG(1)
					s := sp.Begin(&ancrfid.Env{
						RNG:     r,
						Channel: ancrfid.NewAbstractChannel(ancrfid.AbstractChannelConfig{Lambda: 2}, r),
						Timing:  ancrfid.ICodeTiming(),
					})
					s.Admit(ids)
					s.Revoke(ids)
					if s.Outstanding() != 0 {
						b.Fatalf("%d tags outstanding after revoking the batch", s.Outstanding())
					}
				}
			})
		}
	}
}

// Benchmarks regenerating the paper's evaluation artefacts.
//
// Each BenchmarkTableN / BenchmarkFigN runs the corresponding experiment
// from internal/experiments at a reduced Monte-Carlo budget so the whole
// suite completes in minutes; cmd/tables regenerates them at the paper's
// full budget (100 runs per data point). Where a benchmark measures a
// single protocol campaign it reports the reading throughput as a custom
// metric (tags/sec) next to the usual ns/op.
//
// Run with:
//
//	go test -bench=. -benchmem
package ancrfid_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"github.com/ancrfid/ancrfid"
	"github.com/ancrfid/ancrfid/internal/experiments"
)

// benchOpts is the reduced Monte-Carlo budget used by the table/figure
// benchmarks.
func benchOpts() experiments.Options {
	return experiments.Options{Runs: 2, Seed: 1}
}

func runExperiment(b *testing.B, id string, opts experiments.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Throughput regenerates Table I (reading throughput of
// FCAT-2/3/4 vs DFSA, EDFSA, ABS, AQS) on a reduced population grid.
func BenchmarkTable1Throughput(b *testing.B) {
	opts := benchOpts()
	opts.Sizes = []int{2000}
	runExperiment(b, "table1", opts)
}

// BenchmarkTable2SlotBreakdown regenerates Table II (empty/singleton/
// collision slots at N = 10000).
func BenchmarkTable2SlotBreakdown(b *testing.B) {
	runExperiment(b, "table2", benchOpts())
}

// BenchmarkTable3ResolvedIDs regenerates Table III (tag IDs recovered from
// collision slots).
func BenchmarkTable3ResolvedIDs(b *testing.B) {
	opts := benchOpts()
	opts.Runs = 1
	runExperiment(b, "table3", opts)
}

// BenchmarkTable4OptimalOmega regenerates Table IV (swept-optimal omega vs
// the computed (lambda!)^(1/lambda)).
func BenchmarkTable4OptimalOmega(b *testing.B) {
	opts := benchOpts()
	opts.Runs = 1
	runExperiment(b, "table4", opts)
}

// BenchmarkFig3EstimatorBias regenerates Fig. 3 (estimator bias, analytic
// Eq. 16 next to Monte-Carlo measurement).
func BenchmarkFig3EstimatorBias(b *testing.B) {
	runExperiment(b, "fig3", benchOpts())
}

// BenchmarkFig4ExpectedSlots regenerates Fig. 4 (expected slot counts per
// frame; purely analytic).
func BenchmarkFig4ExpectedSlots(b *testing.B) {
	runExperiment(b, "fig4", benchOpts())
}

// BenchmarkFig5OmegaSweep regenerates Fig. 5 (FCAT throughput vs omega).
func BenchmarkFig5OmegaSweep(b *testing.B) {
	opts := benchOpts()
	opts.Runs = 1
	runExperiment(b, "fig5", opts)
}

// BenchmarkFig6FrameSize regenerates Fig. 6 (FCAT throughput vs frame
// size).
func BenchmarkFig6FrameSize(b *testing.B) {
	opts := benchOpts()
	opts.Runs = 1
	runExperiment(b, "fig6", opts)
}

// benchProtocol runs one campaign per iteration and reports the measured
// reading throughput as a custom metric.
func benchProtocol(b *testing.B, p ancrfid.Protocol, cfg ancrfid.SimConfig) {
	b.Helper()
	var tput float64
	for i := 0; i < b.N; i++ {
		res, err := ancrfid.Run(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		tput = res.Throughput.Mean
	}
	b.ReportMetric(tput, "tags/sec")
}

// BenchmarkProtocols measures each protocol's simulation cost and reading
// throughput at N = 5000.
func BenchmarkProtocols(b *testing.B) {
	cfg := ancrfid.SimConfig{Tags: 5000, Runs: 2, Seed: 1}
	for _, name := range []string{"FCAT-2", "FCAT-3", "FCAT-4", "SCAT-2", "DFSA", "EDFSA", "ABS", "AQS"} {
		p, err := ancrfid.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		c := cfg
		switch name {
		case "FCAT-3":
			c.Lambda = 3
		case "FCAT-4":
			c.Lambda = 4
		}
		b.Run(name, func(b *testing.B) { benchProtocol(b, p, c) })
	}
}

// BenchmarkAblationTxModel compares the exact hash-driven transmission
// model against the binomial fast path (DESIGN.md design choice 1): same
// distribution, very different simulation cost.
func BenchmarkAblationTxModel(b *testing.B) {
	for name, model := range map[string]ancrfid.SimConfig{
		"binomial": {Tags: 3000, Runs: 2, Seed: 1, TxModel: ancrfid.TxBinomial},
		"hash":     {Tags: 3000, Runs: 2, Seed: 1, TxModel: ancrfid.TxHash},
	} {
		b.Run(name, func(b *testing.B) { benchProtocol(b, ancrfid.NewFCAT(2), model) })
	}
}

// BenchmarkAblationEstimator compares FCAT's population estimators
// (DESIGN.md design choice 2): the self-consistent inversion (default), the
// paper's one-shot closed form, the rejected empty-slot estimator, the
// last-frame-only variant (no averaging) and the perfect-knowledge oracle.
func BenchmarkAblationEstimator(b *testing.B) {
	cfg := ancrfid.SimConfig{Tags: 5000, Runs: 2, Seed: 1}
	variants := map[string]ancrfid.FCATConfig{
		"exact":       {Lambda: 2},
		"closed-form": {Lambda: 2, Estimator: ancrfid.EstimatorClosedForm},
		"empty-slots": {Lambda: 2, Estimator: ancrfid.EstimatorEmpty},
		"last-frame":  {Lambda: 2, LastFrameOnly: true},
		"oracle":      {Lambda: 2, OracleEstimate: true},
	}
	for name, fc := range variants {
		b.Run(name, func(b *testing.B) {
			benchProtocol(b, ancrfid.NewFCATWith(fc), cfg)
		})
	}
}

// BenchmarkAblationAckEncoding compares SCAT (full 96-bit ID
// acknowledgements for resolved records) against FCAT (23-bit slot
// indices) — the Section V-A optimisation.
func BenchmarkAblationAckEncoding(b *testing.B) {
	cfg := ancrfid.SimConfig{Tags: 3000, Runs: 2, Seed: 1}
	b.Run("scat-full-id", func(b *testing.B) { benchProtocol(b, ancrfid.NewSCAT(2), cfg) })
	b.Run("fcat-slot-index", func(b *testing.B) { benchProtocol(b, ancrfid.NewFCAT(2), cfg) })
}

// BenchmarkSignalChannel runs the full protocol over real MSK waveform
// mixing and cancellation (small population: every slot synthesises and
// decodes waveforms).
func BenchmarkSignalChannel(b *testing.B) {
	cfg := ancrfid.SimConfig{
		Tags: 100, Runs: 1, Seed: 1,
		NewChannel: func(r *ancrfid.RNG) ancrfid.Channel {
			return ancrfid.NewSignalChannel(ancrfid.SignalChannelConfig{MaxCancel: 2}, r)
		},
	}
	benchProtocol(b, ancrfid.NewFCAT(2), cfg)
}

// Micro-benchmarks of the physical-layer primitives.

func BenchmarkModulateID(b *testing.B) {
	r := ancrfid.NewRNG(1)
	id := ancrfid.Population(r, 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ancrfid.ModulateID(id, ancrfid.SamplesPerBit)
	}
}

func BenchmarkDecodeWaveform(b *testing.B) {
	r := ancrfid.NewRNG(2)
	id := ancrfid.Population(r, 1)[0]
	w := ancrfid.ModulateID(id, ancrfid.SamplesPerBit)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ancrfid.DecodeWaveform(w, ancrfid.SamplesPerBit); !ok {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkCancellation(b *testing.B) {
	r := ancrfid.NewRNG(3)
	ids := ancrfid.Population(r, 2)
	refA := ancrfid.ModulateID(ids[0], ancrfid.SamplesPerBit)
	refB := ancrfid.ModulateID(ids[1], ancrfid.SamplesPerBit)
	mixed := ancrfid.MixWaveforms(
		ancrfid.ScaleWaveform(refA, complex(0.8, 0.2)),
		ancrfid.ScaleWaveform(refB, complex(-0.3, 0.5)),
	)
	refs := []ancrfid.Waveform{refA}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gains := ancrfid.EstimateGains(mixed, refs)
		residual := ancrfid.CancelWaveforms(mixed, refs, gains)
		if _, ok := ancrfid.DecodeWaveform(residual, ancrfid.SamplesPerBit); !ok {
			b.Fatal("cancellation failed")
		}
	}
}

// BenchmarkTracerOverhead measures the cost of the observability layer on
// the standard FCAT-2 campaign: "off" is the nil-tracer fast path (must be
// indistinguishable from the pre-instrumentation baseline), "hooks" is an
// empty TracerFunc (the cost of event emission alone) and "metrics" folds
// every event into a registry.
func BenchmarkTracerOverhead(b *testing.B) {
	base := ancrfid.SimConfig{Tags: 5000, Runs: 2, Seed: 1}
	b.Run("off", func(b *testing.B) { benchProtocol(b, ancrfid.NewFCAT(2), base) })
	b.Run("hooks", func(b *testing.B) {
		cfg := base
		cfg.Tracer = ancrfid.TracerFunc(func(ancrfid.TraceEvent) {})
		benchProtocol(b, ancrfid.NewFCAT(2), cfg)
	})
	b.Run("metrics", func(b *testing.B) {
		cfg := base
		cfg.Metrics = ancrfid.NewRegistry()
		benchProtocol(b, ancrfid.NewFCAT(2), cfg)
	})
}

// TestNilTracerZeroAlloc guards the tracing fast path: with Env.Tracer nil,
// every emission helper must be a branch and nothing else — zero
// allocations per call.
func TestNilTracerZeroAlloc(t *testing.T) {
	r := ancrfid.NewRNG(1)
	id := ancrfid.Population(r, 1)[0]
	env := &ancrfid.Env{}
	allocs := testing.AllocsPerRun(100, func() {
		env.EmitNow(ancrfid.TraceEvent{Kind: ancrfid.TraceSlotDone, Seq: 1, N1: 2, N2: 3})
		env.NotifyIdentified(id, true)
		env.TraceRunStart("FCAT-2")
		env.TraceRunEnd("FCAT-2", ancrfid.Metrics{}, nil)
		env.EmitNow(ancrfid.TraceEvent{Kind: ancrfid.TraceFrameStart, N1: 1, N2: 64})
		env.EmitNow(ancrfid.TraceEvent{Kind: ancrfid.TraceAdvertisement, Seq: 1, F1: 0.5})
		env.EmitNow(ancrfid.TraceEvent{Kind: ancrfid.TraceAckSent, Seq: 1, ID: id,
			Sub: uint8(ancrfid.AckDirect), Flag: true})
		env.EmitNow(ancrfid.TraceEvent{Kind: ancrfid.TraceEstimatorUpdate, N1: 1, F1: 100})
		env.Emit(ancrfid.TraceEvent{Kind: ancrfid.TraceTagArrival, ID: id, N1: 1})
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer emission allocated %.1f times per run, want 0", allocs)
	}
}

// campaignBenchConfig is the fixed campaign measured by the worker-scaling
// benchmark and the BENCH_campaign.json emitter: large enough that the
// per-run work dominates pool overhead, small enough for CI.
func campaignBenchConfig(workers int) ancrfid.SimConfig {
	return ancrfid.SimConfig{Tags: 2000, Runs: 16, Seed: 1, Workers: workers}
}

// campaignWorkerCounts returns the worker counts the scaling benchmark
// measures: sequential, 4, and all CPUs (deduplicated, ascending).
func campaignWorkerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkCampaignWorkers measures the parallel campaign runner's scaling:
// the identical FCAT-2 campaign at 1, 4 and GOMAXPROCS workers. The output
// is bit-identical across sub-benchmarks (see docs/parallelism.md); only
// the wall clock may differ. tags/sec here is wall-clock campaign
// throughput (population x runs / elapsed), not the protocol's reading
// throughput. Wired into the CI bench gate with a fixed iteration count
// (-benchtime=3x -count=5, like BenchmarkFleetCampaign), so the gated
// number is a min-over-reps of a fixed workload rather than whatever
// iteration count the timer negotiated under ambient machine load.
func BenchmarkCampaignWorkers(b *testing.B) {
	p := ancrfid.NewFCAT(2)
	for _, w := range campaignWorkerCounts() {
		cfg := campaignBenchConfig(w)
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ancrfid.Run(p, cfg); err != nil {
					b.Fatal(err)
				}
			}
			simulated := float64(cfg.Tags*cfg.Runs) * float64(b.N)
			b.ReportMetric(simulated/b.Elapsed().Seconds(), "tags/sec")
		})
	}
}

// TestEmitCampaignBench writes the campaign-scaling measurements as JSON to
// the path named by BENCH_CAMPAIGN_OUT (skipped when unset). CI uploads the
// file as the BENCH_campaign.json artifact; run locally with:
//
//	BENCH_CAMPAIGN_OUT=BENCH_campaign.json go test -run TestEmitCampaignBench .
func TestEmitCampaignBench(t *testing.T) {
	out := os.Getenv("BENCH_CAMPAIGN_OUT")
	if out == "" {
		t.Skip("BENCH_CAMPAIGN_OUT not set")
	}
	p := ancrfid.NewFCAT(2)
	type row struct {
		Workers             int     `json:"workers"`
		NsPerOp             float64 `json:"ns_per_op"`
		TagsPerSec          float64 `json:"tags_per_sec"`
		SpeedupVsSequential float64 `json:"speedup_vs_sequential"`
	}
	report := struct {
		Bench      string `json:"bench"`
		GoVersion  string `json:"go_version"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Tags       int    `json:"tags"`
		Runs       int    `json:"runs"`
		Results    []row  `json:"results"`
	}{
		Bench:      "campaign",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Tags:       campaignBenchConfig(1).Tags,
		Runs:       campaignBenchConfig(1).Runs,
	}
	var seqNs float64
	for _, w := range campaignWorkerCounts() {
		cfg := campaignBenchConfig(w)
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ancrfid.Run(p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if w == 1 {
			seqNs = ns
		}
		speedup := 0.0
		if seqNs > 0 {
			speedup = seqNs / ns
		}
		report.Results = append(report.Results, row{
			Workers:             w,
			NsPerOp:             ns,
			TagsPerSec:          float64(cfg.Tags*cfg.Runs) / (ns / 1e9),
			SpeedupVsSequential: speedup,
		})
		t.Logf("workers=%d: %.0f ns/op, %.0f tags/s, %.2fx", w, ns,
			float64(cfg.Tags*cfg.Runs)/(ns/1e9), speedup)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkExtensionExperiments runs the extension experiments (beyond the
// paper's tables) at a reduced budget: the CRDSA comparison, the tag-energy
// table and the identification-progress curves.
func BenchmarkExtensionExperiments(b *testing.B) {
	for _, id := range []string{"crdsa", "energy", "estimators", "noise", "progress"} {
		b.Run(id, func(b *testing.B) {
			opts := benchOpts()
			opts.Runs = 1
			runExperiment(b, id, opts)
		})
	}
}

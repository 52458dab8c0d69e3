// Package sim is the Monte-Carlo harness: it executes a protocol over many
// independent runs with deterministic per-run seeds and aggregates the
// metrics the paper's tables report. The paper averages 100 runs per data
// point (Section VI); every experiment here does the same by default.
package sim

import (
	"fmt"
	"sync"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/fault"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/stats"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// DefaultRuns is the paper's Monte-Carlo repetition count.
const DefaultRuns = 100

// Config describes one simulation campaign (a protocol at one population
// size).
type Config struct {
	// Tags is the population size N.
	Tags int
	// Runs is the number of independent Monte-Carlo runs (default 100).
	Runs int
	// Seed makes the whole campaign reproducible. Run i derives its own
	// generator from (Seed, i), so runs are independent and reorderable.
	Seed uint64
	// Workers bounds the number of runs executed concurrently. 0 or 1
	// executes runs sequentially on the calling goroutine (the library
	// default); larger values fan the runs across a worker pool. The
	// campaign's Result, trace stream and metrics registry are
	// bit-identical for every worker count: results are merged by run
	// index, each run's tracer events are buffered and replayed in run
	// order, and registry counters are commutative atomics. See
	// docs/parallelism.md for the full determinism contract.
	Workers int
	// NewChannel builds the channel model for a run; nil selects the
	// paper's abstract model with Lambda.
	NewChannel func(r *rng.Source) channel.Channel
	// Lambda is the ANC capability of the default abstract channel
	// (ignored when NewChannel is set); zero selects 2.
	Lambda int
	// Capability extends the default abstract channel with the unified
	// decode-capability model: MaxOrder overrides Lambda and CaptureSINRdB
	// enables capture-effect decoding over the link budget (ignored when
	// NewChannel is set). The zero value is the degenerate capability —
	// campaigns are bit-identical to earlier releases.
	Capability channel.Capability
	// Timing is the air-interface model; the zero value selects Philips
	// I-Code.
	Timing air.Timing
	// TxModel selects the transmitter-set model (default TxBinomial).
	TxModel protocol.TxModel
	// MaxSlots bounds each run (0 = automatic).
	MaxSlots int
	// PAckLoss is the probability a reader acknowledgement is lost (see
	// protocol.Env.PAckLoss).
	PAckLoss float64
	// Stream enables the streaming campaign mode for mega-N populations:
	// identified tags are compacted out of the active set, so its memory
	// tracks the outstanding population instead of the cumulative one.
	// Resolved collision recordings go back to the channel, and the runner
	// recycles its per-run arenas across repetitions, in every campaign,
	// streaming or not. Streaming changes memory management only — no RNG
	// draw, decode decision or trace event moves — so a streaming campaign
	// is bit-identical to a non-streaming one. See docs/performance.md.
	Stream bool
	// Faults configures deterministic fault injection (see internal/fault).
	// The zero value is the fault-free fast path: no wrapper channel, no
	// extra RNG draws, bit-identical results and traces to earlier
	// releases. When enabled, each run derives its injector purely from
	// (Seed, run index) — like the run RNG — so campaigns stay reproducible
	// and reorderable across worker counts.
	Faults fault.Config
	// Tracer, when non-nil, receives the typed event stream of every run in
	// the campaign (see internal/obs). Events from consecutive runs are
	// delimited by RunStart/RunEnd pairs.
	Tracer obs.Tracer
	// Metrics, when non-nil, aggregates campaign-wide counters and
	// histograms: every run's events are folded into the registry through an
	// obs.MetricsTracer, alongside (and independent of) Tracer.
	Metrics *obs.Registry
	// Progress, when non-nil, is called after each completed run with the
	// 0-based run index and the run's metrics; err is non-nil when the run
	// failed (the campaign then stops after the callback).
	Progress func(run int, m protocol.Metrics, err error)
}

func (c Config) withDefaults() Config {
	if c.Runs <= 0 {
		c.Runs = DefaultRuns
	}
	if c.Lambda <= 0 {
		c.Lambda = 2
	}
	if c.Timing == (air.Timing{}) {
		c.Timing = air.ICode()
	}
	if c.TxModel == 0 {
		c.TxModel = protocol.TxBinomial
	}
	return c
}

// Result aggregates a campaign.
type Result struct {
	Protocol string
	Tags     int
	Runs     []protocol.Metrics

	Throughput     stats.Summary
	EmptySlots     stats.Summary
	SingletonSlots stats.Summary
	CollisionSlots stats.Summary
	TotalSlots     stats.Summary
	DirectIDs      stats.Summary
	ResolvedIDs    stats.Summary
}

// Run executes the campaign for one protocol. With cfg.Workers > 1 the
// runs execute on a bounded worker pool; the outcome is bit-identical to
// the sequential campaign (see Config.Workers). On error Run returns the
// zero Result together with the error of the lowest-indexed failing run —
// callers never see a half-populated summary.
func Run(p protocol.Protocol, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	runs, err := campaign(p, cfg, func(run int, c Config, sc *runScratch) (protocol.Metrics, error) {
		return runOnce(p, c, run, sc)
	}, func(m *protocol.Metrics) protocol.Metrics { return *m })
	if err != nil {
		return Result{}, err
	}
	res := Result{Protocol: p.Name(), Tags: cfg.Tags, Runs: runs}
	res.summarize()
	return res, nil
}

// runError wraps a run's error with its campaign context.
func runError(p protocol.Protocol, cfg Config, run int, err error) error {
	return fmt.Errorf("%s run %d (N=%d): %w", p.Name(), run, cfg.Tags, err)
}

// campaign is the one campaign runner behind Run, RunDynamic, RunChaos and
// RunFleet. It executes once for runs 0..cfg.Runs-1 and returns their
// outcomes in run order; metrics extracts the per-run Metrics handed to
// cfg.Progress. once receives the campaign config with the Tracer it must
// use for that run, and a scratch reused across the runs of one worker.
//
// With cfg.Workers <= 1 (or a single run) the runs execute in order on the
// calling goroutine. Otherwise they run across min(Workers, Runs)
// goroutines and merge deterministically:
//
//   - Workers claim run indices from an ascending dispatch cursor, so
//     whenever run i executes, every run j < i has been dispatched too.
//   - Each outcome lands in the slot its index names, and the result is
//     the index-ordered prefix, exactly as the sequential path builds it.
//   - cfg.Metrics is fed live through per-run MetricsTracers — its atomic
//     counters commute, so the final dump is order-independent.
//   - cfg.Tracer is never called concurrently: each run records its events
//     into an obs.Buffer, and the merge loop below replays the buffers in
//     run order as the completed prefix grows, so the trace is a
//     deterministic sequence of RunStart/RunEnd-delimited streams.
//   - cfg.Progress is invoked under the pool lock (serialized), but in
//     completion order, not run order.
//   - The first error (always the lowest failing index, because dispatch
//     is ascending and lower runs are deterministic) cancels dispatch of
//     the remaining runs; in-flight runs drain before campaign returns.
//
// On error it returns the lowest failing run's error, wrapped by runError,
// and no outcomes.
func campaign[R any](p protocol.Protocol, cfg Config, once func(run int, c Config, sc *runScratch) (R, error), metrics func(*R) protocol.Metrics) ([]R, error) {
	out := make([]R, 0, cfg.Runs)
	if cfg.Workers <= 1 || cfg.Runs <= 1 {
		var sc runScratch
		for i := 0; i < cfg.Runs; i++ {
			r, err := once(i, cfg, &sc)
			if cfg.Progress != nil {
				cfg.Progress(i, metrics(&r), err)
			}
			if err != nil {
				return nil, runError(p, cfg, i, err)
			}
			out = append(out, r)
		}
		return out, nil
	}
	workers := min(cfg.Workers, cfg.Runs)

	type outcome struct {
		r   R
		err error
		buf *obs.Buffer
	}
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		outcomes = make([]*outcome, cfg.Runs)
		next     int // next run index to dispatch
		inflight int // dispatched but not yet deposited
		failed   bool
		wg       sync.WaitGroup
	)

	worker := func() {
		defer wg.Done()
		var sc runScratch
		for {
			mu.Lock()
			if failed || next >= cfg.Runs {
				mu.Unlock()
				return
			}
			i := next
			next++
			inflight++
			mu.Unlock()

			runCfg := cfg
			runCfg.Tracer = nil // untraced runs keep the zero-cost fast path
			var buf *obs.Buffer
			if cfg.Tracer != nil {
				buf = &obs.Buffer{}
				runCfg.Tracer = buf
			}
			r, err := once(i, runCfg, &sc)

			mu.Lock()
			outcomes[i] = &outcome{r: r, err: err, buf: buf}
			inflight--
			if err != nil {
				failed = true
			}
			if cfg.Progress != nil {
				cfg.Progress(i, metrics(&r), err)
			}
			cond.Broadcast()
			mu.Unlock()
		}
	}
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go worker()
	}

	var firstErr error
	mu.Lock()
merge:
	for i := 0; i < cfg.Runs; i++ {
		for outcomes[i] == nil {
			if failed && i >= next && inflight == 0 {
				// Run i was cancelled before dispatch; nothing more to merge.
				break merge
			}
			cond.Wait()
		}
		o := outcomes[i]
		outcomes[i] = nil // release the buffer as the prefix is consumed
		mu.Unlock()
		if o.buf != nil {
			o.buf.Replay(cfg.Tracer)
		}
		if o.err != nil {
			firstErr = runError(p, cfg, i, o.err)
			mu.Lock()
			break
		}
		out = append(out, o.r)
		mu.Lock()
	}
	mu.Unlock()
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// runScratch holds the arenas one campaign worker recycles across its
// runs: the population buffer, the runner-constructed channel (rewound via
// channel.Resettable instead of reallocated) and the protocol scratch
// container. Reuse never changes a run's draws or decisions — the
// scratch-free RunOnce and runOnce are bit-identical.
type runScratch struct {
	tags []tagid.ID
	ch   channel.Channel
	ps   protocol.Scratch
}

// RunOnce executes a single run of the campaign with the deterministic
// generator derived from (cfg.Seed, run).
func RunOnce(p protocol.Protocol, cfg Config, run int) (protocol.Metrics, error) {
	return runOnce(p, cfg, run, nil)
}

// runOnce is RunOnce with an optional cross-run scratch (nil allocates
// everything fresh).
func runOnce(p protocol.Protocol, cfg Config, run int, sc *runScratch) (protocol.Metrics, error) {
	cfg = cfg.withDefaults()
	r := runRNG(cfg.Seed, run)
	var tags []tagid.ID
	if sc != nil {
		sc.tags = tagid.PopulationAppend(sc.tags, r, cfg.Tags)
		tags = sc.tags
	} else {
		tags = tagid.Population(r, cfg.Tags)
	}
	var ch channel.Channel
	if sc != nil && cfg.NewChannel == nil {
		// Only channels the runner built itself are reused: a NewChannel
		// hook may capture per-run state the runner cannot see.
		if rc, ok := sc.ch.(channel.Resettable); ok {
			rc.Reset(r)
			ch = sc.ch
		}
	}
	if ch == nil {
		ch = cfg.newChannel(r)
		if sc != nil && cfg.NewChannel == nil {
			sc.ch = ch
		}
	}
	env := &protocol.Env{
		RNG:      r,
		Tags:     tags,
		Channel:  ch,
		Timing:   cfg.Timing,
		TxModel:  cfg.TxModel,
		MaxSlots: cfg.MaxSlots,
		PAckLoss: cfg.PAckLoss,
		Tracer:   cfg.tracer(),
		Stream:   cfg.Stream,
	}
	if sc != nil {
		env.Scratch = &sc.ps
	}
	if cfg.Faults.Enabled() {
		inj := fault.New(cfg.Faults, cfg.Seed, run)
		fch := fault.WrapChannel(ch, inj)
		fch.Tracer = env.Tracer
		fch.AdmitAll(tags)
		env.Channel = fch
		env.Faults = inj
	}
	return p.Run(env)
}

// tracer combines the campaign's event tracer with the metrics registry
// into the single tracer each run's Env carries. Nil when neither is set,
// so untraced campaigns keep the zero-cost fast path.
func (c Config) tracer() obs.Tracer {
	if c.Metrics == nil {
		return c.Tracer
	}
	return obs.Multi(obs.NewMetricsTracer(c.Metrics), c.Tracer)
}

func (c Config) newChannel(r *rng.Source) channel.Channel {
	if c.NewChannel != nil {
		return c.NewChannel(r)
	}
	return channel.NewAbstract(channel.AbstractConfig{Lambda: c.Lambda, Capability: c.Capability}, r)
}

// runRNG derives the run's generator: a SplitMix-style mix of the campaign
// seed and the run index, so each run has an independent stream.
func runRNG(seed uint64, run int) *rng.Source {
	return rng.New(seed ^ (uint64(run)+1)*0x9e3779b97f4a7c15)
}

func (r *Result) summarize() {
	n := len(r.Runs)
	var (
		tp  = make([]float64, 0, n)
		e   = make([]float64, 0, n)
		s   = make([]float64, 0, n)
		c   = make([]float64, 0, n)
		tot = make([]float64, 0, n)
		d   = make([]float64, 0, n)
		rv  = make([]float64, 0, n)
	)
	for _, m := range r.Runs {
		tp = append(tp, m.Throughput())
		e = append(e, float64(m.EmptySlots))
		s = append(s, float64(m.SingletonSlots))
		c = append(c, float64(m.CollisionSlots))
		tot = append(tot, float64(m.TotalSlots()))
		d = append(d, float64(m.DirectIDs))
		rv = append(rv, float64(m.ResolvedIDs))
	}
	r.Throughput = stats.Summarize(tp)
	r.EmptySlots = stats.Summarize(e)
	r.SingletonSlots = stats.Summarize(s)
	r.CollisionSlots = stats.Summarize(c)
	r.TotalSlots = stats.Summarize(tot)
	r.DirectIDs = stats.Summarize(d)
	r.ResolvedIDs = stats.Summarize(rv)
}

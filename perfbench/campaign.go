package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/registry"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/sim"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// campaignWorkload describes an FCAT-2 Monte-Carlo campaign workload.
type campaignWorkload struct {
	salt uint64
	tags int
	// The fixed work is ceil(seconds × runsPerSecond / chunkRuns) campaign
	// repetitions (chunks) of chunkRuns inventory runs each, so every count
	// is a function of the flags alone. A chunk is the workload's
	// operation: its wall time is the op latency.
	runsPerSecond float64
	chunkRuns     int
	// channel builds the run's channel; nil leaves the runner's default
	// abstract channel (lambda 2) in place.
	channel func(*rng.Source) channel.Channel
}

// fcatSignal is the physical-layer channel configured exactly as rfidsim
// -channel signal configures it by default.
var fcatSignal = campaignWorkload{salt: 2, tags: 2000, runsPerSecond: 13, chunkRuns: 5,
	channel: func(r *rng.Source) channel.Channel {
		return channel.NewSignal(channel.SignalConfig{NoiseSigma: 0.03, MaxCancel: 2}, r)
	}}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// config is the campaign of one chunk: chunk k of a workload seed draws
// its own run seeds. It runs on one worker, bypassing the pool.
func (w campaignWorkload) config(seed uint64, chunk, runs int) sim.Config {
	return sim.Config{
		Tags:       w.tags,
		Runs:       runs,
		Seed:       mix(mix(seed, w.salt), uint64(chunk)),
		Workers:    1,
		Lambda:     2,
		NewChannel: w.channel,
	}
}

// buildChannel returns the channel a run would get without a NewChannel
// hook, so the traced pass can wrap the very same model.
func (w campaignWorkload) buildChannel() func(*rng.Source) channel.Channel {
	if w.channel != nil {
		return w.channel
	}
	return func(r *rng.Source) channel.Channel {
		return channel.NewAbstract(channel.AbstractConfig{Lambda: 2}, r)
	}
}

// campaignPass is one timed campaign and what was observed around it.
type campaignPass struct {
	res   sim.Result
	err   error
	wall  time.Duration
	start time.Time
	// endSumNS is the sum of the run completion times relative to start,
	// as the Progress callback saw them.
	endSumNS int64
	mallocs  uint64
	gcCPU    float64
	totalCPU float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() (gc, total float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}

// runPass runs one campaign from a settled heap and times it.
func runPass(p protocol.Protocol, cfg sim.Config) *campaignPass {
	pass := &campaignPass{}
	// The runner serialises Progress calls and returns only after the
	// last one, so the sum needs no lock.
	cfg.Progress = func(int, protocol.Metrics, error) {
		pass.endSumNS += int64(time.Since(pass.start))
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	gc0, tot0 := readCPU()
	pass.start = time.Now()
	pass.res, pass.err = sim.Run(p, cfg)
	pass.wall = time.Since(pass.start)
	gc1, tot1 := readCPU()
	runtime.ReadMemStats(&ms)
	pass.mallocs = ms.Mallocs - mallocs
	pass.gcCPU, pass.totalCPU = gc1-gc0, tot1-tot0
	return pass
}

// counts are the exact per-campaign totals the workload checks and reports.
type counts struct {
	empty, singleton, collision, direct, resolved, frames int
	onAir                                                 time.Duration
}

func totals(runs []protocol.Metrics) counts {
	var c counts
	for _, m := range runs {
		c.addRun(m)
	}
	return c
}

func (c *counts) addRun(m protocol.Metrics) {
	c.empty += m.EmptySlots
	c.singleton += m.SingletonSlots
	c.collision += m.CollisionSlots
	c.direct += m.DirectIDs
	c.resolved += m.ResolvedIDs
	c.frames += m.Frames
	c.onAir += m.OnAir
}

func (c *counts) add(o counts) {
	c.empty += o.empty
	c.singleton += o.singleton
	c.collision += o.collision
	c.direct += o.direct
	c.resolved += o.resolved
	c.frames += o.frames
	c.onAir += o.onAir
}

func (c counts) slots() int { return c.empty + c.singleton + c.collision }

// setCounts reports the exact counts as per-layer metrics.
func (r *result) setCounts(c counts) {
	r.set("slots.total", float64(c.slots()), "count")
	r.set("slots.empty", float64(c.empty), "count")
	r.set("slots.singleton", float64(c.singleton), "count")
	r.set("slots.collision", float64(c.collision), "count")
	r.set("ids.direct", float64(c.direct), "count")
	r.set("ids.resolved", float64(c.resolved), "count")
	r.set("frames", float64(c.frames), "count")
}

// checkCampaign applies the campaign output checks: every run succeeded and
// identified every tag exactly once (direct + resolved == runs × tags).
func checkCampaign(r *result, label string, pass *campaignPass, cfg sim.Config) {
	r.check(pass.err == nil, "%s: campaign failed: %v", label, pass.err)
	if pass.err != nil {
		return
	}
	c := totals(pass.res.Runs)
	r.check(len(pass.res.Runs) == cfg.Runs, "%s: %d of %d runs reported", label, len(pass.res.Runs), cfg.Runs)
	r.check(c.direct+c.resolved == cfg.Runs*cfg.Tags,
		"%s: ids.direct + ids.resolved = %d, want runs × tags = %d", label, c.direct+c.resolved, cfg.Runs*cfg.Tags)
}

func runCampaign(w campaignWorkload, o options) (*result, error) {
	p, err := registry.ByName("FCAT-2")
	if err != nil {
		return nil, err
	}
	chunks := int(math.Ceil(o.seconds * w.runsPerSecond / float64(w.chunkRuns)))
	r := newResult()

	// Set-up: build the configuration and run one untimed warm-up
	// repetition (one run per worker), several times; report the median.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		warm := w.config(o.seed, -1-i, 0)
		warm.Runs = warm.Workers
		wp := runPass(p, warm)
		checkCampaign(r, "warm-up", wp, warm)
		setups = append(setups, time.Since(t0).Seconds())
	}
	if o.trace {
		// Each traced chunk runs three times; a third of the chunks keeps
		// the traced run as long as the untraced one.
		traceCampaign(r, p, w, o.seed, (chunks+2)/3)
		return r, nil
	}

	var (
		all  counts
		lat  latencies
		wall time.Duration
	)
	for k := 0; k < chunks; k++ {
		cfg := w.config(o.seed, k, w.chunkRuns)
		pass := runPass(p, cfg)
		checkCampaign(r, "campaign", pass, cfg)
		r.Attempted += cfg.Runs
		r.Failed += cfg.Runs - len(pass.res.Runs)
		all.add(totals(pass.res.Runs))
		lat.add(pass.wall)
		wall += pass.wall
	}
	l := lat.summarize()
	r.set("setup_s", median(setups), "s")
	r.set("tags_per_s", float64(all.direct+all.resolved)/wall.Seconds(), "1/s")
	r.set("air_tags_per_s", float64(all.direct+all.resolved)/all.onAir.Seconds(), "1/s")
	r.set("steps_per_s", float64(all.slots())/wall.Seconds(), "1/s")
	r.set("op_p50_ms", l.p50, "ms")
	r.set("op_tail_ms", l.tail, "ms")
	fmt.Printf("# %d chunks of %d inventory runs of %d tags on %d workers in %.3fs; chunk latency n=%d p50=%.3fms p%g=%.3fms\n",
		chunks, w.chunkRuns, w.tags, w.config(0, 0, 0).Workers, wall.Seconds(), l.n, l.p50, l.tailLevel, l.tail)
	return r, nil
}

// traceCampaign fills the per-layer metrics. Chunk by chunk it runs the
// campaign plain (the reference), with the timing channel decorator, and
// with the metrics registry attached; it checks that both instrumented
// passes reproduce the reference counts exactly, and it times population
// generation on the run seeds.
func traceCampaign(r *result, p protocol.Protocol, w campaignWorkload, seed uint64, chunks int) {
	var (
		all                            counts
		mallocs                        uint64
		gcCPU, totalCPU                float64
		refWall, tracedWall, meterWall time.Duration
		spans                          time.Duration
		probes                         chanTotals
		popTime                        time.Duration
	)
	workers := w.config(0, 0, 0).Workers
	for k := 0; k < chunks; k++ {
		cfg := w.config(seed, k, w.chunkRuns)
		ref := runPass(p, cfg)
		checkCampaign(r, "campaign", ref, cfg)
		r.Attempted += cfg.Runs
		r.Failed += cfg.Runs - len(ref.res.Runs)
		all.add(totals(ref.res.Runs))
		mallocs += ref.mallocs
		gcCPU += ref.gcCPU
		totalCPU += ref.totalCPU
		refWall += ref.wall

		// Decorated pass: per-run channel time and run spans.
		tcfg := cfg
		var chunkProbes chanTotals
		tcfg.NewChannel = chunkProbes.newChannel(w.buildChannel())
		traced := runPass(p, tcfg)
		checkCampaign(r, "traced campaign", traced, tcfg)
		r.check(sameRuns(ref.res.Runs, traced.res.Runs), "chunk %d: traced campaign counts differ from the untraced campaign", k)
		spans += time.Duration(traced.endSumNS - chunkProbes.collect(traced.start))
		probes.stats.add(&chunkProbes.stats)
		tracedWall += traced.wall

		// Metrics pass: the same campaign with the registry attached.
		mcfg := cfg
		mcfg.Metrics = obs.NewRegistry()
		metered := runPass(p, mcfg)
		checkCampaign(r, "metered campaign", metered, mcfg)
		r.check(sameRuns(ref.res.Runs, metered.res.Runs), "chunk %d: metered campaign counts differ from the untraced campaign", k)
		meterWall += metered.wall

		// Population generation, timed on the run seeds the runner
		// derives (sim's per-run generator is seed ^ (run+1)·golden).
		t0 := time.Now()
		for i := 0; i < cfg.Runs; i++ {
			tagid.Population(rng.New(cfg.Seed^(uint64(i)+1)*0x9e3779b97f4a7c15), cfg.Tags)
		}
		popTime += time.Since(t0)
	}

	slots := all.slots()
	r.setCounts(all)
	r.set("runtime.allocs_per_slot", float64(mallocs)/float64(slots), "allocs/slot")
	r.set("runtime.gc_cpu_frac", gcCPU/totalCPU, "ratio")

	st := probes.stats
	r.check(st.observeN == int64(slots), "decorator saw %d observations, campaign reports %d slots", st.observeN, slots)
	r.set("channel.observe_s", time.Duration(st.observeNS).Seconds(), "s")
	r.set("channel.observe_n", float64(st.observeN), "count")
	r.set("channel.decode_s", time.Duration(st.decodeNS).Seconds(), "s")
	r.set("channel.decode_n", float64(st.decodeN), "count")
	if st.decodeN > 0 {
		r.set("channel.decode_ok_frac", float64(st.decodeOK)/float64(st.decodeN), "ratio")
	}
	r.set("channel.subtract_s", time.Duration(st.subtractNS).Seconds(), "s")
	r.set("channel.subtract_n", float64(st.subtractN), "count")
	r.set("protocol.self_s", (spans - time.Duration(st.channelNS())).Seconds(), "s")
	r.set("sim.busy_frac", spans.Seconds()/(float64(workers)*tracedWall.Seconds()), "ratio")
	r.set("obs.metrics_overhead_frac", meterWall.Seconds()/refWall.Seconds()-1, "ratio")
	r.set("tagid.population_s", popTime.Seconds(), "s")
}

// sameRuns reports whether two campaigns produced identical per-run
// metrics, air time included.
func sameRuns(a, b []protocol.Metrics) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Dynamic-population campaigns: the Monte-Carlo harness over the workload
// driver instead of the batch Run, with the same per-run seed derivation
// and the same ordered-merge determinism contract as the static path (see
// docs/parallelism.md).
package sim

import (
	"errors"

	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/stats"
	"github.com/ancrfid/ancrfid/internal/tagid"
	"github.com/ancrfid/ancrfid/internal/workload"
)

// ErrDynamicFaults is returned by RunDynamic and RunDynamicOnce when
// Config.Faults enables fault injection. The workload driver runs no fault
// channel, so the faults would be silently dropped; RunChaos is the
// fault-injected dynamic path.
var ErrDynamicFaults = errors.New("sim: dynamic runs do not inject faults; use RunChaos")

// DynamicConfig describes a dynamic-population campaign: the campaign
// knobs of Config plus a workload schedule. Config.Tags is the initial
// population present when the session opens; the workload admits and
// revokes tags while it runs.
type DynamicConfig struct {
	// Config carries the campaign knobs (Runs, Seed, Workers, channel,
	// timing, tracing); Config.MaxSlots 0 lets the workload driver budget
	// by horizon instead of by initial population.
	Config
	// Workload is the arrival/departure schedule of every run. Each run
	// draws its schedule from a dedicated generator derived from
	// (Seed, run), so schedules are deterministic and independent of the
	// protocol's own draws.
	Workload workload.Config
}

// DynamicResult aggregates a dynamic campaign.
type DynamicResult struct {
	Protocol string
	// Runs holds one workload report per run, in run order.
	Runs []workload.Report

	// Admitted, Identified, DepartedUnread and ActiveUnread summarise the
	// per-run population accounting.
	Admitted       stats.Summary
	Identified     stats.Summary
	DepartedUnread stats.Summary
	ActiveUnread   stats.Summary
	// Throughput summarises identified tags per second of simulated time.
	Throughput stats.Summary
	// LatencyP50, LatencyP90 and LatencyP99 summarise the per-run
	// identification-latency percentiles, in seconds.
	LatencyP50 stats.Summary
	LatencyP90 stats.Summary
	LatencyP99 stats.Summary
}

// RunDynamic executes the dynamic campaign for one session protocol. With
// cfg.Workers > 1 the runs execute on a bounded worker pool with the
// static campaign's merge discipline: outcomes land in run order, traces
// are buffered and replayed in run order, and the first error reported is
// the lowest-indexed failing run's. Unlike the static path, a failing run
// still contributes its partial report to the error return's context —
// but the campaign result is withheld, exactly like Run.
func RunDynamic(p protocol.SessionProtocol, cfg DynamicConfig) (DynamicResult, error) {
	if cfg.Faults.Enabled() {
		return DynamicResult{}, ErrDynamicFaults
	}
	cfg.Config = cfg.Config.withDefaults()
	runs, err := campaign(p, cfg.Config, func(run int, c Config, _ *runScratch) (workload.Report, error) {
		dc := cfg
		dc.Config = c
		return RunDynamicOnce(p, dc, run)
	}, func(rep *workload.Report) protocol.Metrics { return rep.Metrics })
	if err != nil {
		return DynamicResult{}, err
	}
	res := DynamicResult{Protocol: p.Name(), Runs: runs}
	res.summarize()
	return res, nil
}

// RunDynamicOnce executes a single dynamic run with the deterministic
// generators derived from (cfg.Seed, run): the protocol draws from the
// run generator exactly as a batch run would, and the workload schedule
// draws from a Split-off child stream.
func RunDynamicOnce(p protocol.SessionProtocol, cfg DynamicConfig, run int) (workload.Report, error) {
	if cfg.Faults.Enabled() {
		return workload.Report{}, ErrDynamicFaults
	}
	cfg.Config = cfg.Config.withDefaults()
	r := runRNG(cfg.Seed, run)
	tags := tagid.Population(r, cfg.Tags)
	wl := r.Split()
	ch := cfg.newChannel(r)
	env := &protocol.Env{
		RNG:      r,
		Tags:     tags,
		Channel:  ch,
		Timing:   cfg.Timing,
		TxModel:  cfg.TxModel,
		MaxSlots: cfg.MaxSlots,
		PAckLoss: cfg.PAckLoss,
		Tracer:   cfg.tracer(),
	}
	return workload.Run(p, env, wl, cfg.Workload)
}

func (r *DynamicResult) summarize() {
	n := len(r.Runs)
	var (
		adm = make([]float64, 0, n)
		idf = make([]float64, 0, n)
		dep = make([]float64, 0, n)
		act = make([]float64, 0, n)
		tp  = make([]float64, 0, n)
		p50 = make([]float64, 0, n)
		p90 = make([]float64, 0, n)
		p99 = make([]float64, 0, n)
	)
	for i := range r.Runs {
		rep := &r.Runs[i]
		adm = append(adm, float64(rep.Admitted))
		idf = append(idf, float64(rep.Identified))
		dep = append(dep, float64(rep.DepartedUnread))
		act = append(act, float64(rep.ActiveUnread))
		if rep.Duration > 0 {
			tp = append(tp, float64(rep.Identified)/rep.Duration.Seconds())
		}
		lat := rep.Latencies()
		if len(lat) > 0 {
			p50 = append(p50, workload.Percentile(lat, 50).Seconds())
			p90 = append(p90, workload.Percentile(lat, 90).Seconds())
			p99 = append(p99, workload.Percentile(lat, 99).Seconds())
		}
	}
	r.Admitted = stats.Summarize(adm)
	r.Identified = stats.Summarize(idf)
	r.DepartedUnread = stats.Summarize(dep)
	r.ActiveUnread = stats.Summarize(act)
	r.Throughput = stats.Summarize(tp)
	r.LatencyP50 = stats.Summarize(p50)
	r.LatencyP90 = stats.Summarize(p90)
	r.LatencyP99 = stats.Summarize(p99)
}

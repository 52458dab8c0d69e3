// Chaos campaigns: the Monte-Carlo harness over a fault-injected dynamic
// run with reader crash-restart. It runs the one dynamic driver
// (driveWorkload, shared with RunDynamic) through a fault channel. The
// whole schedule — arrivals, departures AND faults — is a pure function of
// (seed, run), so a reader crash can rewind the session to its last
// checkpoint and the replayed slots face the identical world.
//
// The driver also audits the invariants the robustness work promises
// (docs/robustness.md): no tag identified twice, no phantom IDs, and exact
// population accounting at the horizon. Violations are tallied in the
// ChaosReport rather than panicking, so the chaos suite can assert them and
// a CLI user can see them.
package sim

import (
	"time"

	"github.com/ancrfid/ancrfid/internal/fault"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/stats"
	"github.com/ancrfid/ancrfid/internal/workload"
)

// DefaultChaosCheckpointEvery is the default checkpoint cadence of the
// RunChaos driver, in executed slots.
const DefaultChaosCheckpointEvery = 32

// ChaosConfig describes a chaos campaign: campaign knobs (including the
// fault configuration in Config.Faults), a dynamic workload, and the
// crash-recovery checkpoint cadence.
type ChaosConfig struct {
	// Config carries the campaign knobs. Config.Faults selects the fault
	// shapes; Config.Tags is the initial population.
	Config
	// Workload is the arrival/departure schedule. Its CheckpointEvery field
	// is ignored here — RunChaos checkpoints by executed slots (see
	// CheckpointEvery below) so that crash rollback cost is bounded in
	// reader work, not in simulated time.
	Workload workload.Config
	// CheckpointEvery is the checkpoint cadence in executed slots (default
	// DefaultChaosCheckpointEvery). When Config.Faults.CrashEvery is
	// positive it is raised to at least twice this cadence, so every crash
	// cycle makes net forward progress.
	CheckpointEvery int
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	c.Config = c.Config.withDefaults()
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = DefaultChaosCheckpointEvery
	}
	if c.Faults.CrashEvery > 0 && c.Faults.CrashEvery < 2*c.CheckpointEvery {
		c.Faults.CrashEvery = 2 * c.CheckpointEvery
	}
	return c
}

// ChaosReport is the outcome of one chaos run.
type ChaosReport struct {
	Protocol string
	// Metrics are the session's protocol metrics at cutoff. Under crashes
	// they reflect the surviving timeline (rolled-back slots are not
	// counted twice — the session state itself was rewound).
	Metrics protocol.Metrics
	// Tags holds one lifecycle record per admitted tag, in admission order.
	Tags []workload.TagRecord

	// Admitted == Identified + DepartedUnread + ActiveUnread is the exact
	// accounting invariant; Unaccounted is its violation count (0 always,
	// unless the harness itself is broken).
	Admitted       int
	Identified     int
	DepartedUnread int
	ActiveUnread   int

	// DupIdents counts tags the session reported identified twice within
	// one crash-free stretch; Phantoms counts reported IDs that were never
	// admitted. Both must be zero — they are the hard invariants the
	// record-store defenses exist for.
	DupIdents int
	Phantoms  int

	// Crashes counts reader crash-restarts; Checkpoints the recovery marks
	// taken; WallSteps the total executed slots including rolled-back work.
	Crashes     int
	Checkpoints int
	WallSteps   uint64

	// FaultsInjected and Quarantined tally the run's FaultInjected and
	// RecordQuarantined events (rolled-back work included: the trace is the
	// honest wall-clock history, not the surviving timeline).
	FaultsInjected int
	Quarantined    int

	// Stalls counts stall episodes the health monitor flagged (stretches of
	// non-empty slots with no new identification; see obs.HealthMonitor),
	// and HealthScore is the monitor's final 0-100 degradation score.
	Stalls      int
	HealthScore float64

	// Duration is the simulated air time of the surviving timeline.
	Duration time.Duration
}

// Accounted reports whether the exact-accounting invariant holds.
func (r *ChaosReport) Accounted() bool {
	return r.Admitted == r.Identified+r.DepartedUnread+r.ActiveUnread
}

// ChaosResult aggregates a chaos campaign.
type ChaosResult struct {
	Protocol string
	Runs     []ChaosReport

	Admitted       stats.Summary
	Identified     stats.Summary
	DepartedUnread stats.Summary
	ActiveUnread   stats.Summary
	Throughput     stats.Summary
	Crashes        stats.Summary
	FaultsInjected stats.Summary
	Quarantined    stats.Summary
	Stalls         stats.Summary
	HealthScore    stats.Summary
}

// RunChaos executes the chaos campaign for one session protocol, with the
// static campaign's parallel merge discipline (see Config.Workers): results
// land in run order, traces replay in run order, and the first error
// reported is the lowest-indexed failing run's.
func RunChaos(p protocol.SessionProtocol, cfg ChaosConfig) (ChaosResult, error) {
	cfg = cfg.withDefaults()
	runs, err := campaign(p, cfg.Config, func(run int, c Config, _ *runScratch) (ChaosReport, error) {
		cc := cfg
		cc.Config = c
		return RunChaosOnce(p, cc, run)
	}, func(rep *ChaosReport) protocol.Metrics { return rep.Metrics })
	if err != nil {
		return ChaosResult{}, err
	}
	res := ChaosResult{Protocol: p.Name(), Runs: runs}
	res.summarize()
	return res, nil
}

// RunChaosOnce executes a single chaos run with the deterministic
// generators derived from (cfg.Seed, run): the one dynamic driver with the
// fault channel, crash-recovery marks every cfg.CheckpointEvery executed
// slots, and the run-local audit and health monitor that fill the report's
// fault and health fields.
func RunChaosOnce(p protocol.SessionProtocol, cfg ChaosConfig, run int) (ChaosReport, error) {
	cfg = cfg.withDefaults()
	env, wl := cfg.dynamicEnv(run)

	// The run-local audit tracer tallies fault activity into the report; it
	// sees events in emission order regardless of worker count because it
	// lives inside the run.
	var faults, quarantined int
	audit := obs.Func(func(ev obs.Event) {
		switch ev.Kind {
		case obs.FaultInjected:
			faults++
		case obs.RecordQuarantined:
			quarantined++
		}
	})
	// The health monitor rides the same in-run event stream as the audit;
	// its final score and stall count land in the report.
	health := obs.NewHealthMonitor(obs.HealthConfig{})
	env.Tracer = obs.Multi(audit, health, env.Tracer)

	var fch *fault.Channel
	if cfg.Faults.Enabled() {
		env.Faults = fault.New(cfg.Faults, cfg.Seed, run)
		fch = fault.WrapChannel(env.Channel, env.Faults)
		fch.Tracer = env.Tracer
		fch.AdmitAll(env.Tags)
		env.Channel = fch
	}

	wlCfg := cfg.Workload
	wlCfg.CheckpointEvery = 0 // marks go by executed slots instead
	rep, err := driveWorkload(p, env, wl, wlCfg, cfg.CheckpointEvery, fch)
	rep.FaultsInjected = faults
	rep.Quarantined = quarantined
	rep.Stalls = health.Stalls()
	rep.HealthScore = health.Score()
	return rep, err
}

func (r *ChaosResult) summarize() {
	n := len(r.Runs)
	var (
		adm = make([]float64, 0, n)
		idf = make([]float64, 0, n)
		dep = make([]float64, 0, n)
		act = make([]float64, 0, n)
		tp  = make([]float64, 0, n)
		cr  = make([]float64, 0, n)
		fl  = make([]float64, 0, n)
		qr  = make([]float64, 0, n)
		st  = make([]float64, 0, n)
		hs  = make([]float64, 0, n)
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
		cr = append(cr, float64(rep.Crashes))
		fl = append(fl, float64(rep.FaultsInjected))
		qr = append(qr, float64(rep.Quarantined))
		st = append(st, float64(rep.Stalls))
		hs = append(hs, rep.HealthScore)
	}
	r.Admitted = stats.Summarize(adm)
	r.Identified = stats.Summarize(idf)
	r.DepartedUnread = stats.Summarize(dep)
	r.ActiveUnread = stats.Summarize(act)
	r.Throughput = stats.Summarize(tp)
	r.Crashes = stats.Summarize(cr)
	r.FaultsInjected = stats.Summarize(fl)
	r.Quarantined = stats.Summarize(qr)
	r.Stalls = stats.Summarize(st)
	r.HealthScore = stats.Summarize(hs)
}

// Dynamic-population campaigns: the Monte-Carlo harness over the one
// dynamic driver (driveWorkload) instead of the batch Run, with the same
// per-run seed derivation and the same ordered-merge determinism contract
// as the static path (see docs/parallelism.md).
//
// Config.Faults, when set, runs the session through a fault channel. The
// whole schedule — arrivals, departures AND faults — is a pure function of
// (seed, run), so a reader crash can rewind the session to its last
// crash-recovery mark and the replayed slots face the identical world.
//
// The driver also audits the invariants the robustness work promises
// (docs/robustness.md): no tag identified twice, no phantom IDs, and exact
// population accounting at the horizon. Violations are tallied in the
// DynamicReport rather than panicking, so the chaos suite can assert them
// and a CLI user can see them.
package sim

import (
	"time"

	"github.com/ancrfid/ancrfid/internal/fault"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/stats"
	"github.com/ancrfid/ancrfid/internal/tagid"
	"github.com/ancrfid/ancrfid/internal/workload"
)

// defaultCheckpointEvery is the default crash-recovery mark cadence of a
// dynamic run, in executed slots.
const defaultCheckpointEvery = 32

// DynamicConfig describes a dynamic-population campaign: the campaign
// knobs of Config plus a workload schedule. Config.Tags is the initial
// population present when the session opens; the workload admits and
// revokes tags while it runs.
type DynamicConfig struct {
	// Config carries the campaign knobs (Runs, Seed, Workers, channel,
	// timing, tracing); Config.MaxSlots 0 lets the dynamic driver budget
	// by horizon instead of by initial population. Config.Faults selects
	// the fault shapes (the zero value injects none).
	Config
	// Workload is the arrival/departure schedule of every run. Each run
	// draws its schedule from a dedicated generator derived from
	// (Seed, run), so schedules are deterministic and independent of the
	// protocol's own draws.
	Workload workload.Config
	// CheckpointEvery is the crash-recovery mark cadence in executed slots
	// (default 32). Marks are taken only when Config.Faults.CrashEvery is
	// positive, which is then raised to at least twice this cadence, so
	// every crash cycle makes net forward progress.
	CheckpointEvery int
}

func (c DynamicConfig) withDefaults() DynamicConfig {
	c.Config = c.Config.withDefaults()
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = defaultCheckpointEvery
	}
	if c.Faults.CrashEvery > 0 && c.Faults.CrashEvery < 2*c.CheckpointEvery {
		c.Faults.CrashEvery = 2 * c.CheckpointEvery
	}
	return c
}

// DynamicReport is the audited outcome of one dynamic run.
type DynamicReport struct {
	Protocol string
	// Metrics are the session's protocol metrics at cutoff (Tags counts
	// every tag ever admitted). Under crashes they reflect the surviving
	// timeline (rolled-back slots are not counted twice — the session state
	// itself was rewound).
	Metrics protocol.Metrics
	// Tags holds one lifecycle record per admitted tag, in admission order.
	Tags []workload.TagRecord

	// Admitted == Identified + DepartedUnread + ActiveUnread is the exact
	// accounting invariant: every tag that entered the field (initial
	// population included) was collected before cutoff, left unread (a
	// missed read), or is still in the field unread at cutoff.
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

	// Duration is the simulated air time of the surviving timeline (>= the
	// configured horizon unless the run errored).
	Duration time.Duration
}

// Accounted reports whether the exact-accounting invariant holds.
func (r *DynamicReport) Accounted() bool {
	return r.Admitted == r.Identified+r.DepartedUnread+r.ActiveUnread
}

// Latencies returns the identification latencies of all identified tags,
// in admission order.
func (r *DynamicReport) Latencies() []time.Duration {
	out := make([]time.Duration, 0, r.Identified)
	for _, t := range r.Tags {
		if t.Identified {
			out = append(out, t.Latency())
		}
	}
	return out
}

// DynamicResult aggregates a dynamic campaign.
type DynamicResult struct {
	Protocol string
	// Runs holds one report per run, in run order.
	Runs []DynamicReport

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
	// Crashes, FaultsInjected, Quarantined, Stalls and HealthScore
	// summarise the per-run fault and health tallies.
	Crashes        stats.Summary
	FaultsInjected stats.Summary
	Quarantined    stats.Summary
	Stalls         stats.Summary
	HealthScore    stats.Summary
}

// RunDynamic executes the dynamic campaign for one session protocol. With
// cfg.Workers > 1 the runs execute on a bounded worker pool with the
// static campaign's merge discipline: outcomes land in run order, traces
// are buffered and replayed in run order, and the first error reported is
// the lowest-indexed failing run's; the campaign result is then withheld,
// exactly like Run (RunDynamicOnce hands back a failing run's partial
// report).
func RunDynamic(p protocol.SessionProtocol, cfg DynamicConfig) (DynamicResult, error) {
	cfg = cfg.withDefaults()
	runs, err := campaign(p, cfg.Config, func(run int, c Config, _ *runScratch) (DynamicReport, error) {
		dc := cfg
		dc.Config = c
		return RunDynamicOnce(p, dc, run)
	}, func(rep *DynamicReport) protocol.Metrics { return rep.Metrics })
	if err != nil {
		return DynamicResult{}, err
	}
	res := DynamicResult{Protocol: p.Name(), Runs: runs}
	res.summarize()
	return res, nil
}

// RunDynamicOnce executes a single dynamic run with the deterministic
// generators derived from (cfg.Seed, run): the protocol draws from the run
// generator exactly as a batch run would, and the workload schedule draws
// from a Split-off child stream. Config.Faults, when set, wraps the
// channel in a fault channel; a run-local audit and health monitor fill
// the report's fault and health fields. On error (e.g.
// protocol.ErrNoProgress) the partially accumulated report is still
// returned.
func RunDynamicOnce(p protocol.SessionProtocol, cfg DynamicConfig, run int) (DynamicReport, error) {
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
		fch = env.InjectFaults(fault.New(cfg.Faults, cfg.Seed, run))
	}

	rep, err := driveWorkload(p, env, wl, cfg.Workload, cfg.CheckpointEvery, fch)
	rep.FaultsInjected = faults
	rep.Quarantined = quarantined
	rep.Stalls = health.Stalls()
	rep.HealthScore = health.Score()
	return rep, err
}

// dynamicEnv builds the environment of one dynamic run and the workload
// generator its schedule draws from, split off the run generator after the
// initial population.
func (c Config) dynamicEnv(run int) (*protocol.Env, *rng.Source) {
	r := runRNG(c.Seed, run)
	tags := tagid.Population(r, c.Tags)
	wl := r.Split()
	return &protocol.Env{
		RNG:      r,
		Tags:     tags,
		Channel:  c.newChannel(r),
		Timing:   c.Timing,
		TxModel:  c.TxModel,
		MaxSlots: c.MaxSlots,
		PAckLoss: c.PAckLoss,
		Tracer:   c.tracer(),
	}, wl
}

// rollbackMark is one crash-recovery checkpoint: the session checkpoint
// plus a copy of the driver's own progress (script cursors, counters and
// per-tag lifecycle), so a restore rewinds driver and session to the same
// instant.
type rollbackMark struct {
	cp         protocol.Checkpoint
	seq        int // checkpoint sequence number
	at         time.Duration
	arrCur     int
	depCur     int
	present    int
	identified int
	tags       []workload.TagRecord
}

// driveWorkload is the one dynamic driver, behind RunDynamicOnce. It opens
// a session of p over env's initial population and delivers the
// workload.Schedule drawn from wl and cfg between steps until the air clock
// passes cfg.Duration. Identifications are stamped with the post-step
// clock, so latency is measured at slot granularity; IDs that were never
// admitted (or not yet) count as phantoms and repeats within one
// crash-free stretch as duplicates.
//
// When env.Faults can crash the reader, a crash-recovery mark is taken
// every markEvery executed slots, the first before the first step; one
// that fails ends the run. A crash rewinds session and driver to the last
// mark. Without crashes no mark is taken, since none could be restored.
// fch, when non-nil, is the fault channel that follows admissions and
// departures. On error the partial report is returned.
func driveWorkload(p protocol.SessionProtocol, env *protocol.Env, wl *rng.Source, cfg workload.Config,
	markEvery int, fch *fault.Channel) (DynamicReport, error) {
	if env.MaxSlots == 0 {
		// The batch default (200N + 10k) does not scale with the horizon;
		// budget four slot-times per unit of simulated time plus headroom.
		env.MaxSlots = int(4*cfg.Duration/env.Timing.Slot()) + 10000
	}
	sc := workload.Schedule(env.Tags, wl, cfg)
	index := make(map[tagid.ID]int, len(sc.Arrivals)) // ID -> seq
	for seq, a := range sc.Arrivals {
		index[a.ID] = seq
	}

	var pendingIdent []tagid.ID
	env.OnIdentified = func(id tagid.ID, _ bool) { pendingIdent = append(pendingIdent, id) }

	rep := DynamicReport{Protocol: p.Name()}
	// The initial population enters through env.Tags (Begin reads it), so
	// only its lifecycle records are kept here.
	arrCur := len(env.Tags)
	for _, a := range sc.Arrivals[:arrCur] {
		rep.Tags = append(rep.Tags, workload.TagRecord{ID: a.ID})
	}
	present := arrCur // admitted and not departed

	s := p.Begin(env)

	var (
		depCur int
		wall   uint64
		mark   rollbackMark
		runErr error
	)
	if env.Faults == nil || env.Faults.Config().CrashEvery <= 0 {
		markEvery = 0 // nothing can crash, so no mark would ever be restored
	}

	// wallCap bounds total executed slots, rolled-back work included. The
	// crash cycle guarantees net progress (CrashEvery >= 2*markEvery,
	// rollback <= markEvery), so 4x the session budget only trips on
	// genuine livelock; the run then reports ErrNoProgress with the partial
	// accounting intact.
	wallCap := uint64(env.MaxSlots) * 4

	for {
		now := s.Elapsed()

		// Stamp identifications from the last step. An ID outside the
		// admitted set is a phantom (a poisoned record that slipped past
		// the CRC defenses, or a tag read before it entered the field); a
		// repeat is a duplicate (crash replays are rolled back below before
		// they re-stamp).
		for _, id := range pendingIdent {
			seq, ok := index[id]
			switch {
			case !ok || seq >= arrCur:
				rep.Phantoms++
			case rep.Tags[seq].Identified:
				rep.DupIdents++
			default:
				rep.Tags[seq].Identified = true
				rep.Tags[seq].IdentifiedAt = now
				rep.Identified++
			}
		}
		pendingIdent = pendingIdent[:0]

		// Deliver script events due at or before the air clock, in time
		// order. A departure waits for its own tag's arrival (a zero dwell
		// schedules both at one instant, departure first by sort order).
		for {
			depDue := depCur < len(sc.Departures) && sc.Departures[depCur].At <= now &&
				sc.Departures[depCur].Seq < arrCur
			arrDue := arrCur < len(sc.Arrivals) && sc.Arrivals[arrCur].At <= now
			if depDue && arrDue {
				// A departure wins a tie with an arrival, except one from
				// the departing tag's own burst, which arrives whole first.
				d, a := sc.Departures[depCur], sc.Arrivals[arrCur]
				depDue = d.At <= a.At && sc.Arrivals[d.Seq].At < a.At
			}
			if depDue {
				d := sc.Departures[depCur]
				depCur++
				rec := &rep.Tags[d.Seq]
				rec.Departed = true
				rec.DepartedAt = d.At
				present--
				s.Revoke([]tagid.ID{rec.ID})
				if fch != nil {
					fch.Revoke(rec.ID)
				}
				env.Emit(obs.Event{Kind: obs.TagDeparture, ID: rec.ID, At: d.At, Flag: rec.Identified})
			} else if arrDue {
				a := sc.Arrivals[arrCur]
				arrCur++
				present++
				rep.Tags = append(rep.Tags, workload.TagRecord{ID: a.ID, ArrivedAt: a.At})
				if fch != nil {
					fch.Admit(a.ID)
				}
				s.Admit([]tagid.ID{a.ID})
				env.Emit(obs.Event{Kind: obs.TagArrival, ID: a.ID, At: a.At, N1: present})
			} else {
				break
			}
		}

		if now >= cfg.Duration {
			break
		}
		if markEvery > 0 && wall%uint64(markEvery) == 0 {
			cp, err := s.Snapshot()
			if err != nil {
				runErr = err
				break
			}
			env.Emit(obs.Event{Kind: obs.SessionCheckpoint, Seq: rep.Checkpoints, At: now,
				N1: s.Outstanding(), N2: s.Metrics().Identified()})
			mark = rollbackMark{cp: cp, seq: rep.Checkpoints, at: now, arrCur: arrCur, depCur: depCur,
				present: present, identified: rep.Identified, tags: append(mark.tags[:0], rep.Tags...)}
			rep.Checkpoints++
		}

		if _, err := s.Step(); err != nil {
			runErr = err
			break
		}
		wall++
		if wall > wallCap {
			runErr = protocol.ErrNoProgress
			break
		}

		// Reader crash: rewind session AND driver to the last mark. The
		// wall counter is deliberately not rewound — it schedules the next
		// crash and bounds total work.
		if env.Faults.ShouldCrash(wall) && mark.cp != nil {
			if err := s.Restore(mark.cp); err != nil {
				runErr = err
				break
			}
			arrCur, depCur, present = mark.arrCur, mark.depCur, mark.present
			rep.Identified = mark.identified
			rep.Tags = append(rep.Tags[:0], mark.tags...)
			pendingIdent = pendingIdent[:0]
			rep.Crashes++
			env.Emit(obs.Event{Kind: obs.FaultInjected, Seq: int(wall), Sub: uint8(obs.FaultCrash)})
			env.Emit(obs.Event{Kind: obs.ReaderRestart, Seq: int(wall), At: mark.at, N1: mark.seq})
		}
	}

	rep.Metrics = s.Metrics()
	rep.Duration = s.Elapsed()
	rep.WallSteps = wall
	rep.Admitted = len(rep.Tags)
	for i := range rep.Tags {
		t := &rep.Tags[i]
		if t.Departed && !t.Identified {
			rep.DepartedUnread++
		}
		if !t.Departed && !t.Identified {
			rep.ActiveUnread++
		}
	}
	env.TraceRunEnd(p.Name(), rep.Metrics, runErr)
	return rep, runErr
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
		lat := rep.Latencies()
		if len(lat) > 0 {
			p50 = append(p50, workload.Percentile(lat, 50).Seconds())
			p90 = append(p90, workload.Percentile(lat, 90).Seconds())
			p99 = append(p99, workload.Percentile(lat, 99).Seconds())
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
	r.LatencyP50 = stats.Summarize(p50)
	r.LatencyP90 = stats.Summarize(p90)
	r.LatencyP99 = stats.Summarize(p99)
	r.Crashes = stats.Summarize(cr)
	r.FaultsInjected = stats.Summarize(fl)
	r.Quarantined = stats.Summarize(qr)
	r.Stalls = stats.Summarize(st)
	r.HealthScore = stats.Summarize(hs)
}

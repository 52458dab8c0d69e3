// Chaos campaigns: the Monte-Carlo harness over a fault-injected dynamic
// run with reader crash-restart. The chaos driver is a hardened variant of
// the workload driver whose entire schedule — arrivals, departures AND
// faults — is precomputed as a pure function of (seed, run), so a reader
// crash can rewind the session to its last checkpoint and the replayed
// slots face the identical world.
//
// The driver also audits the invariants the robustness work promises
// (docs/robustness.md): no tag identified twice, no phantom IDs, and exact
// population accounting at the horizon. Violations are tallied in the
// ChaosReport rather than panicking, so the chaos suite can assert them and
// a CLI user can see them.
package sim

import (
	"container/heap"
	"math"
	"time"

	"github.com/ancrfid/ancrfid/internal/fault"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/stats"
	"github.com/ancrfid/ancrfid/internal/tagid"
	"github.com/ancrfid/ancrfid/internal/workload"
)

// DefaultChaosCheckpointEvery is the default checkpoint cadence of the
// chaos driver, in executed slots.
const DefaultChaosCheckpointEvery = 32

// ChaosConfig describes a chaos campaign: campaign knobs (including the
// fault configuration in Config.Faults), a dynamic workload, and the
// crash-recovery checkpoint cadence.
type ChaosConfig struct {
	// Config carries the campaign knobs. Config.Faults selects the fault
	// shapes; Config.Tags is the initial population.
	Config
	// Workload is the arrival/departure schedule. Its CheckpointEvery field
	// is ignored here — the chaos driver checkpoints by executed slots (see
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

// chaosArrival is one scheduled admission of the precomputed script.
type chaosArrival struct {
	at time.Duration
	id tagid.ID
}

// chaosScript is the run's precomputed world: every arrival and departure,
// drawn up front from the workload generator so the schedule is a pure
// function of (seed, run) and survives any number of crash rollbacks.
type chaosScript struct {
	arrivals   []chaosArrival
	departures []workloadDeparture // sorted by (at, seq)
}

type workloadDeparture struct {
	at  time.Duration
	seq int
}

type workloadDepartureHeap []workloadDeparture

func (h workloadDepartureHeap) Len() int { return len(h) }
func (h workloadDepartureHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h workloadDepartureHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *workloadDepartureHeap) Push(x any)   { *h = append(*h, x.(workloadDeparture)) }
func (h *workloadDepartureHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// chaosMark is one crash-recovery checkpoint: the session checkpoint plus a
// deep copy of the harness's own progress (script cursors and per-tag
// lifecycle), so a restore rewinds driver and session to the same instant.
type chaosMark struct {
	cp     protocol.Checkpoint
	seq    int // checkpoint sequence number
	at     time.Duration
	arrCur int
	depCur int
	tags   []workload.TagRecord
}

// RunChaosOnce executes a single chaos run with the deterministic
// generators derived from (cfg.Seed, run).
func RunChaosOnce(p protocol.SessionProtocol, cfg ChaosConfig, run int) (ChaosReport, error) {
	cfg = cfg.withDefaults()
	wlCfg := cfg.Workload
	if wlCfg.Burst <= 0 {
		wlCfg.Burst = 1
	}

	r := runRNG(cfg.Seed, run)
	tags := tagid.Population(r, cfg.Tags)
	wl := r.Split()
	ch := cfg.newChannel(r)

	rep := ChaosReport{Protocol: p.Name()}

	env := &protocol.Env{
		RNG:      r,
		Tags:     tags,
		Channel:  ch,
		Timing:   cfg.Timing,
		TxModel:  cfg.TxModel,
		MaxSlots: cfg.MaxSlots,
		PAckLoss: cfg.PAckLoss,
	}
	if env.MaxSlots == 0 {
		env.MaxSlots = int(4*wlCfg.Duration/env.Timing.Slot()) + 10000
	}

	// The run-local audit tracer tallies fault activity into the report; it
	// sees events in emission order regardless of worker count because it
	// lives inside the run.
	audit := obs.Func(func(ev obs.Event) {
		switch ev.Kind {
		case obs.FaultInjected:
			rep.FaultsInjected++
		case obs.RecordQuarantined:
			rep.Quarantined++
		}
	})
	// The health monitor rides the same in-run event stream as the audit;
	// its final score and stall count land in the report.
	health := obs.NewHealthMonitor(obs.HealthConfig{})
	env.Tracer = obs.Multi(audit, health, cfg.tracer())

	var (
		inj *fault.Injector
		fch *fault.Channel
	)
	if cfg.Faults.Enabled() {
		inj = fault.New(cfg.Faults, cfg.Seed, run)
		fch = fault.WrapChannel(ch, inj)
		fch.Tracer = env.Tracer
		fch.AdmitAll(tags)
		env.Channel = fch
		env.Faults = inj
	}

	// Precompute the whole workload script. The draw order matches the
	// workload driver (admission draws its departure immediately), so the
	// same (seed, run, workload) pair faces statistically identical worlds
	// in both harnesses.
	script := buildChaosScript(tags, wl, wlCfg)
	index := make(map[tagid.ID]int, len(script.arrivals))
	for seq, a := range script.arrivals {
		index[a.id] = seq
	}

	var pendingIdent []tagid.ID
	env.OnIdentified = func(id tagid.ID, viaResolution bool) {
		pendingIdent = append(pendingIdent, id)
	}

	s := p.Begin(env)

	var (
		arrCur, depCur int
		wall           uint64
		mark           chaosMark
		haveMark       bool
		runErr         error
	)
	// Admit the initial population's lifecycle records (the session read
	// them from env.Tags).
	for arrCur < len(script.arrivals) && script.arrivals[arrCur].at == 0 {
		a := script.arrivals[arrCur]
		rep.Tags = append(rep.Tags, workload.TagRecord{ID: a.id})
		arrCur++
	}

	takeMark := func(now time.Duration) bool {
		cp, err := s.Snapshot()
		if err != nil {
			runErr = err
			return false
		}
		mark = chaosMark{
			cp:     cp,
			seq:    rep.Checkpoints,
			at:     now,
			arrCur: arrCur,
			depCur: depCur,
			tags:   append(mark.tags[:0:0], rep.Tags...),
		}
		haveMark = true
		env.Emit(obs.Event{Kind: obs.SessionCheckpoint, Seq: mark.seq, At: now, N1: s.Outstanding(),
			N2: s.Metrics().Identified()})
		rep.Checkpoints++
		return true
	}

	// wallCap bounds total executed slots, rolled-back work included. The
	// crash cycle guarantees net progress (CrashEvery >= 2*CheckpointEvery,
	// rollback <= CheckpointEvery), so 4x the session budget only trips on
	// genuine livelock; the run then reports ErrNoProgress with the partial
	// accounting intact.
	wallCap := uint64(env.MaxSlots) * 4

	for runErr == nil {
		now := s.Elapsed()

		// Stamp identifications from the last step and audit the hard
		// invariants: an ID outside the admitted set is a phantom (a
		// poisoned record that slipped past the CRC defenses); a repeated
		// identification within one crash-free stretch is a duplicate
		// (crash replays are rolled back below before they re-stamp).
		for _, id := range pendingIdent {
			seq, ok := index[id]
			if !ok {
				rep.Phantoms++
				continue
			}
			if seq >= arrCur {
				// Arrival not yet delivered — also phantom territory: the
				// reader identified a tag before it entered the field.
				rep.Phantoms++
				continue
			}
			rec := &rep.Tags[seq]
			if rec.Identified {
				rep.DupIdents++
				continue
			}
			rec.Identified = true
			rec.IdentifiedAt = now
			rep.Identified++
		}
		pendingIdent = pendingIdent[:0]

		// Deliver script events due at or before the air clock, departures
		// winning ties (as in the workload driver).
		for {
			depDue := depCur < len(script.departures) && script.departures[depCur].at <= now
			arrDue := arrCur < len(script.arrivals) && script.arrivals[arrCur].at <= now
			switch {
			case depDue && (!arrDue || script.departures[depCur].at <= script.arrivals[arrCur].at):
				d := script.departures[depCur]
				depCur++
				rec := &rep.Tags[d.seq]
				rec.Departed = true
				rec.DepartedAt = d.at
				s.Revoke([]tagid.ID{rec.ID})
				if fch != nil {
					fch.Revoke(rec.ID)
				}
				env.Emit(obs.Event{Kind: obs.TagDeparture, ID: rec.ID, At: d.at, Flag: rec.Identified})
			case arrDue:
				a := script.arrivals[arrCur]
				arrCur++
				rep.Tags = append(rep.Tags, workload.TagRecord{ID: a.id, ArrivedAt: a.at})
				if fch != nil {
					fch.Admit(a.id)
				}
				s.Admit([]tagid.ID{a.id})
				env.Emit(obs.Event{Kind: obs.TagArrival, ID: a.id, At: a.at, N1: activeCount(rep.Tags)})
			default:
			}
			if !depDue && !arrDue {
				break
			}
		}

		if now >= wlCfg.Duration {
			break
		}

		// Checkpoint by executed slots so crash rollback is bounded in
		// reader work. The initial mark (wall 0) exists before the first
		// step, so the first crash always has somewhere to land.
		if !haveMark || (cfg.CheckpointEvery > 0 && wall%uint64(cfg.CheckpointEvery) == 0) {
			if !takeMark(now) {
				break
			}
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

		// Reader crash: rewind session AND harness to the last mark. The
		// wall counter is deliberately not rewound — it schedules the next
		// crash and bounds total work.
		if inj.ShouldCrash(wall) && haveMark {
			if err := s.Restore(mark.cp); err != nil {
				runErr = err
				break
			}
			// Roll the harness back in lockstep: identifications and
			// deliveries after the mark un-happen (copy-on-restore keeps
			// the mark reusable).
			arrCur = mark.arrCur
			depCur = mark.depCur
			rep.Tags = append(rep.Tags[:0], mark.tags...)
			rep.Identified = 0
			for i := range rep.Tags {
				if rep.Tags[i].Identified {
					rep.Identified++
				}
			}
			pendingIdent = pendingIdent[:0]
			rep.Crashes++
			if env.Tracer != nil {
				env.Tracer.Emit(obs.Event{Kind: obs.FaultInjected, Seq: int(wall),
					Sub: uint8(obs.FaultCrash)})
				env.Tracer.Emit(obs.Event{Kind: obs.ReaderRestart, Seq: int(wall), At: mark.at, N1: mark.seq})
			}
		}
	}

	rep.Metrics = s.Metrics()
	rep.Duration = s.Elapsed()
	rep.WallSteps = wall
	for i := range rep.Tags {
		t := &rep.Tags[i]
		if t.Departed && !t.Identified {
			rep.DepartedUnread++
		}
		if !t.Departed && !t.Identified {
			rep.ActiveUnread++
		}
	}
	rep.Admitted = len(rep.Tags)
	env.TraceRunEnd(p.Name(), rep.Metrics, runErr)
	rep.Stalls = health.Stalls()
	rep.HealthScore = health.Score()
	return rep, runErr
}

// activeCount counts admitted-and-present tags (trace annotation only).
func activeCount(tags []workload.TagRecord) int {
	n := 0
	for i := range tags {
		if !tags[i].Departed {
			n++
		}
	}
	return n
}

// buildChaosScript draws the complete arrival/departure schedule from wl.
// Draw order mirrors the workload driver: each admission draws its
// departure immediately, then the next arrival epoch is drawn.
func buildChaosScript(initial []tagid.ID, wl *rng.Source, cfg workload.Config) chaosScript {
	var sc chaosScript
	var deps workloadDepartureHeap

	admit := func(id tagid.ID, at time.Duration) {
		seq := len(sc.arrivals)
		sc.arrivals = append(sc.arrivals, chaosArrival{at: at, id: id})
		due := time.Duration(1<<63 - 1)
		if cfg.Dwell > 0 {
			due = at + cfg.Dwell
		}
		if cfg.DepartureRate > 0 {
			if d := at + expDraw(wl, cfg.DepartureRate); d < due {
				due = d
			}
		}
		if due <= cfg.Duration {
			heap.Push(&deps, workloadDeparture{at: due, seq: seq})
		}
	}

	for _, id := range initial {
		admit(id, 0)
	}
	if cfg.ArrivalRate > 0 {
		seen := make(map[tagid.ID]struct{}, len(initial))
		for _, id := range initial {
			seen[id] = struct{}{}
		}
		for at := expDraw(wl, cfg.ArrivalRate); at <= cfg.Duration; at += expDraw(wl, cfg.ArrivalRate) {
			for i := 0; i < cfg.Burst; i++ {
				id := tagid.Random(wl)
				if _, dup := seen[id]; dup {
					continue // 96-bit collision; vanishingly rare
				}
				seen[id] = struct{}{}
				admit(id, at)
			}
		}
	}

	sc.departures = make([]workloadDeparture, 0, len(deps))
	for len(deps) > 0 {
		sc.departures = append(sc.departures, heap.Pop(&deps).(workloadDeparture))
	}
	return sc
}

// expDraw draws an exponential deviate with the given rate (events per
// second), matching the workload driver's generator.
func expDraw(wl *rng.Source, rate float64) time.Duration {
	u := wl.Float64()
	return time.Duration(-math.Log(1-u) / rate * float64(time.Second))
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

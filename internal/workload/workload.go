// Package workload drives a protocol session over a dynamic tag
// population: tags arrive while the reader runs (conveyor belts, dock
// doors) and depart again after a dwell time, identified or not. It is the
// continuous-inventory layer the paper's motivating deployments imply —
// the collision-recovery literature (Ricciato & Castiglione; Fyhn et al.)
// evaluates exactly such continuous reading regimes.
//
// The driver owns a dedicated RNG for the arrival and dwell draws, kept
// separate from the protocol's generator so the workload schedule of a
// given seed is one fixed script: the protocol consumes its own stream
// exactly as a batch run would, and the schedule does not shift when the
// protocol's draw count changes.
package workload

import (
	"container/heap"
	"math"
	"sort"
	"time"

	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Config describes one dynamic-population run.
type Config struct {
	// Duration is the simulated time horizon; the session steps until its
	// air clock passes it. Required (> 0).
	Duration time.Duration
	// ArrivalRate is the mean arrival-epoch rate in epochs per second
	// (Poisson process; exponential inter-arrival times). 0 disables
	// arrivals.
	ArrivalRate float64
	// Burst is the number of tags admitted per arrival epoch — 1 models a
	// conveyor of single items, larger values model pallets through a dock
	// portal. Defaults to 1.
	Burst int
	// Dwell is a fixed in-field residence time per tag (conveyor past a
	// fixed antenna). 0 means no fixed dwell.
	Dwell time.Duration
	// DepartureRate is a per-tag exponential departure hazard in 1/s,
	// applied on top of (or instead of) Dwell; whichever departure comes
	// first wins. 0 disables it.
	DepartureRate float64
	// CheckpointEvery, when positive, snapshots the session at that
	// simulated-time cadence and emits a SessionCheckpoint event per
	// snapshot — the long-running reader-service pattern.
	CheckpointEvery time.Duration
}

// withDefaults normalises the zero values.
func (c Config) withDefaults() Config {
	if c.Burst <= 0 {
		c.Burst = 1
	}
	return c
}

// Conveyor is a single-item belt: tags arrive one at a time at rate
// tags/s and stay in the field for dwell before moving out of range.
func Conveyor(rate float64, dwell, duration time.Duration) Config {
	return Config{Duration: duration, ArrivalRate: rate, Burst: 1, Dwell: dwell}
}

// Portal is a dock-door scenario: pallets of burst tags arrive at
// epochRate pallets/s and each tag leaves after an exponential dwell with
// the given mean.
func Portal(burst int, epochRate float64, meanDwell, duration time.Duration) Config {
	var hazard float64
	if meanDwell > 0 {
		hazard = 1 / meanDwell.Seconds()
	}
	return Config{Duration: duration, ArrivalRate: epochRate, Burst: burst, DepartureRate: hazard}
}

// TagRecord is the lifecycle of one tag through a dynamic run.
type TagRecord struct {
	ID tagid.ID
	// ArrivedAt is the simulated time the tag entered the field (0 for the
	// initial population).
	ArrivedAt time.Duration
	// IdentifiedAt is the simulated time the reader collected the ID;
	// meaningful only when Identified.
	IdentifiedAt time.Duration
	// DepartedAt is the simulated time the tag left the field; meaningful
	// only when Departed.
	DepartedAt time.Duration
	Identified bool
	Departed   bool
}

// Latency returns the arrival-to-identification latency; 0 when the tag
// was never identified.
func (t TagRecord) Latency() time.Duration {
	if !t.Identified {
		return 0
	}
	return t.IdentifiedAt - t.ArrivedAt
}

// Report aggregates one dynamic run. The population accounting is total:
// Admitted == Identified + DepartedUnread + ActiveUnread, so every
// admitted tag is either identified or explicitly still in the field at
// cutoff (or provably missed).
type Report struct {
	Protocol string
	// Metrics are the session's protocol metrics at cutoff (Tags counts
	// every tag ever admitted).
	Metrics protocol.Metrics
	// Tags holds one record per admitted tag, in admission order.
	Tags []TagRecord

	// Admitted counts every tag that entered the field (initial population
	// included).
	Admitted int
	// Identified counts tags the reader collected before cutoff.
	Identified int
	// DepartedUnread counts missed reads: tags that left the field without
	// being identified.
	DepartedUnread int
	// ActiveUnread counts tags still in the field and not yet identified
	// at cutoff.
	ActiveUnread int
	// Checkpoints counts the session snapshots taken.
	Checkpoints int
	// Duration is the simulated air time actually consumed (>= the
	// configured horizon unless the run errored).
	Duration time.Duration
}

// Latencies returns the identification latencies of all identified tags,
// in admission order.
func (r *Report) Latencies() []time.Duration {
	out := make([]time.Duration, 0, r.Identified)
	for _, t := range r.Tags {
		if t.Identified {
			out = append(out, t.Latency())
		}
	}
	return out
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the given latencies; 0 for an empty set.
func Percentile(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// departure is one scheduled departure, ordered by time then by admission
// sequence so equal times resolve deterministically.
type departure struct {
	at  time.Duration
	seq int // index into Report.Tags
}

type departureHeap []departure

func (h departureHeap) Len() int { return len(h) }
func (h departureHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h departureHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *departureHeap) Push(x any)   { *h = append(*h, x.(departure)) }
func (h *departureHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// exp draws an exponential deviate with the given rate (events per
// second) from wl.
func exp(wl *rng.Source, rate float64) time.Duration {
	u := wl.Float64()
	return time.Duration(-math.Log(1-u) / rate * float64(time.Second))
}

// Exp draws an exponential deviate with the given rate (events per second)
// from wl — the same draw the arrival and dwell schedules use. Exported for
// the fleet scheduler (internal/fleet), whose inter-zone migration dwell
// times must match the single-reader workload's distribution exactly.
func Exp(wl *rng.Source, rate float64) time.Duration {
	return exp(wl, rate)
}

// Run drives a session of p over env's initial population with the
// dynamic schedule cfg, drawing arrival times, burst IDs and dwell times
// from wl (a stream independent of env.RNG — see the package comment).
// The session steps until its air clock passes cfg.Duration; arrivals,
// departures and checkpoints due at or before the current air time are
// delivered between steps. On error (e.g. protocol.ErrNoProgress) the
// partially accumulated Report is still returned.
func Run(p protocol.SessionProtocol, env *protocol.Env, wl *rng.Source, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if env.MaxSlots == 0 {
		// The batch default (200N + 10k) does not scale with the horizon;
		// budget four slot-times per unit of simulated time plus headroom.
		env.MaxSlots = int(4*cfg.Duration/env.Timing.Slot()) + 10000
	}

	rep := Report{Protocol: p.Name()}
	index := make(map[tagid.ID]int, len(env.Tags)) // ID -> seq in rep.Tags
	present := 0                                   // admitted and not departed

	// Identifications are reported through the env callback; the driver
	// stamps them with the post-step clock so latency is measured at slot
	// granularity.
	var pendingIdent []tagid.ID
	prevIdent := env.OnIdentified
	env.OnIdentified = func(id tagid.ID, viaResolution bool) {
		if prevIdent != nil {
			prevIdent(id, viaResolution)
		}
		pendingIdent = append(pendingIdent, id)
	}

	var departures departureHeap
	admit := func(id tagid.ID, at time.Duration) {
		seq := len(rep.Tags)
		rep.Tags = append(rep.Tags, TagRecord{ID: id, ArrivedAt: at})
		index[id] = seq
		rep.Admitted++
		present++
		due := time.Duration(math.MaxInt64)
		if cfg.Dwell > 0 {
			due = at + cfg.Dwell
		}
		if cfg.DepartureRate > 0 {
			if d := at + exp(wl, cfg.DepartureRate); d < due {
				due = d
			}
		}
		if due <= cfg.Duration {
			heap.Push(&departures, departure{at: due, seq: seq})
		}
	}

	// The initial population is admitted at t=0 through env.Tags (Begin
	// reads it), so only its lifecycle bookkeeping happens here.
	for _, id := range env.Tags {
		admit(id, 0)
	}

	s := p.Begin(env)

	var nextArrival time.Duration = -1
	if cfg.ArrivalRate > 0 {
		nextArrival = exp(wl, cfg.ArrivalRate)
	}
	nextCheckpoint := cfg.CheckpointEvery

	var runErr error
	for {
		now := s.Elapsed()

		// Stamp identifications from the last step.
		for _, id := range pendingIdent {
			seq, ok := index[id]
			if !ok || rep.Tags[seq].Identified {
				continue
			}
			rep.Tags[seq].Identified = true
			rep.Tags[seq].IdentifiedAt = now
			rep.Identified++
		}
		pendingIdent = pendingIdent[:0]

		// Deliver every scheduled event due at or before the air clock, in
		// time order (departures and arrivals interleaved).
		for {
			depDue := len(departures) > 0 && departures[0].at <= now
			arrDue := nextArrival >= 0 && nextArrival <= now && nextArrival <= cfg.Duration
			switch {
			case depDue && (!arrDue || departures[0].at <= nextArrival):
				d := heap.Pop(&departures).(departure)
				rec := &rep.Tags[d.seq]
				rec.Departed = true
				rec.DepartedAt = d.at
				present--
				s.Revoke([]tagid.ID{rec.ID})
				env.Emit(obs.Event{Kind: obs.TagDeparture, ID: rec.ID, At: d.at, Flag: rec.Identified})
			case arrDue:
				at := nextArrival
				for i := 0; i < cfg.Burst; i++ {
					id := tagid.Random(wl)
					if _, dup := index[id]; dup {
						continue // 96-bit collision; vanishingly rare
					}
					admit(id, at)
					s.Admit([]tagid.ID{id})
					env.Emit(obs.Event{Kind: obs.TagArrival, ID: id, At: at, N1: present})
				}
				nextArrival = at + exp(wl, cfg.ArrivalRate)
			default:
			}
			if !depDue && !arrDue {
				break
			}
		}

		if now >= cfg.Duration {
			break
		}
		if cfg.CheckpointEvery > 0 && now >= nextCheckpoint {
			if _, err := s.Snapshot(); err == nil {
				env.Emit(obs.Event{Kind: obs.SessionCheckpoint, Seq: rep.Checkpoints, At: now,
					N1: s.Outstanding(), N2: s.Metrics().Identified()})
				rep.Checkpoints++
			}
			for nextCheckpoint <= now {
				nextCheckpoint += cfg.CheckpointEvery
			}
		}

		if _, err := s.Step(); err != nil {
			runErr = err
			break
		}
	}

	rep.Metrics = s.Metrics()
	rep.Duration = s.Elapsed()
	for i := range rep.Tags {
		t := &rep.Tags[i]
		if t.Departed && !t.Identified {
			rep.DepartedUnread++
		}
		if !t.Departed && !t.Identified {
			rep.ActiveUnread++
		}
	}
	return rep, runErr
}

// Package workload describes a dynamic tag population: tags arrive while
// the reader runs (conveyor belts, dock doors) and depart again after a
// dwell time, identified or not. It is the continuous-inventory layer the
// paper's motivating deployments imply — the collision-recovery literature
// (Ricciato & Castiglione; Fyhn et al.) evaluates exactly such continuous
// reading regimes.
//
// Schedule draws a run's whole arrival and departure Script from a
// dedicated RNG, kept separate from the protocol's generator so the
// schedule of a given seed is one fixed script: the protocol consumes its
// own stream exactly as a batch run would, and the schedule does not shift
// when the protocol's draw count changes. The one driver that delivers a
// Script to a session lives in internal/sim (RunDynamic).
package workload

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"

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

// Arrival is one scheduled admission: tag ID enters the field at At.
type Arrival struct {
	At time.Duration
	ID tagid.ID
}

// Departure is one scheduled departure: the Seq-th admitted tag (its index
// in Script.Arrivals and in a run report's Tags) leaves the field at At.
type Departure struct {
	At  time.Duration
	Seq int
}

// Script is one run's precomputed world: every arrival and departure up to
// the horizon, a pure function of the initial population, the workload
// generator and the Config, so a driver can rewind its cursors and replay
// the identical schedule.
type Script struct {
	// Arrivals holds the initial population first (At 0), then each
	// arrival epoch's burst, in time order.
	Arrivals []Arrival
	// Departures is sorted by (At, Seq).
	Departures []Departure
}

// Exp draws an exponential deviate with the given rate (events per second)
// from wl — the draw the arrival and dwell schedules use, and the fleet
// scheduler's migration dwell times (internal/fleet), which must match the
// single-reader workload's distribution exactly.
func Exp(wl *rng.Source, rate float64) time.Duration {
	u := wl.Float64()
	return time.Duration(-math.Log(1-u) / rate * float64(time.Second))
}

// Schedule draws the complete arrival and departure script of one run
// from wl. Each admission draws its departure immediately, then the next
// arrival epoch is drawn; a departure past cfg.Duration is not scheduled.
func Schedule(initial []tagid.ID, wl *rng.Source, cfg Config) Script {
	cfg = cfg.withDefaults()
	var sc Script
	admit := func(id tagid.ID, at time.Duration) {
		due := time.Duration(math.MaxInt64)
		if cfg.Dwell > 0 {
			due = at + cfg.Dwell
		}
		if cfg.DepartureRate > 0 {
			due = min(due, at+Exp(wl, cfg.DepartureRate))
		}
		if due <= cfg.Duration {
			sc.Departures = append(sc.Departures, Departure{At: due, Seq: len(sc.Arrivals)})
		}
		sc.Arrivals = append(sc.Arrivals, Arrival{At: at, ID: id})
	}

	seen := make(map[tagid.ID]struct{}, len(initial))
	for _, id := range initial {
		seen[id] = struct{}{}
		admit(id, 0)
	}
	if cfg.ArrivalRate > 0 {
		for at := Exp(wl, cfg.ArrivalRate); at <= cfg.Duration; at += Exp(wl, cfg.ArrivalRate) {
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
	slices.SortFunc(sc.Departures, func(a, b Departure) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Seq, b.Seq))
	})
	return sc
}

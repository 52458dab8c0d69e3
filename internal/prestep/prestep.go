// Package prestep implements the population pre-estimation phase that SCAT
// assumes (paper, Section IV-C: "Its value can be estimated to an arbitrary
// accuracy [24] in a pre-step of SCAT"), following the framed probabilistic
// scheme of Kodialam & Nandagopal, "Fast and Reliable Estimation Schemes in
// RFID Systems" (MobiCom 2006) — the paper's reference [24].
//
// The reader issues probe frames of f slots with a persistence probability
// p: each tag picks one uniformly random slot of the frame with probability
// p, so a slot's occupancy is Binomial(N, p/f). From the observed counts of
// empty and collision slots the reader inverts
//
//	E(n0) = f * (1 - p/f)^N               (zero estimator, ZE)
//	E(nc) = f * (1 - (1-rho)^N - N*rho*(1-rho)^(N-1)),  rho = p/f
//	                                      (collision estimator, CE)
//
// and averages the per-frame estimates. The persistence starts at 1 and is
// halved while frames saturate (all slots colliding), which locates the
// scale of N in a handful of frames.
//
// Unlike FCAT's embedded estimator (package estimate), the pre-step spends
// dedicated air time before identification begins; the paper's motivation
// for FCAT is precisely to remove this cost. Package scat can invoke it to
// run without an externally supplied population size.
package prestep

import (
	"errors"
	"math"
	"time"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/channel"
	obsev "github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// ErrInconclusive is returned when the probe budget ends before any
// informative frame was observed.
var ErrInconclusive = errors.New("prestep: probe frames carried no usable information")

// Method selects the inversion applied to each probe frame.
type Method int

const (
	// MethodZero inverts the empty-slot count (Kodialam & Nandagopal's ZE).
	MethodZero Method = iota
	// MethodCollision inverts the collision-slot count (their CE).
	MethodCollision
)

// String returns the method name.
func (m Method) String() string {
	if m == MethodCollision {
		return "collision"
	}
	return "zero"
}

// Config parameterises the pre-estimation phase.
type Config struct {
	// FrameSize is the probe frame length (default 64).
	FrameSize int
	// Frames is the number of measurement frames averaged after the
	// persistence has locked on (default 8; accuracy improves with the
	// square root).
	Frames int
	// Method selects the estimator (default MethodZero).
	Method Method
}

func (c Config) withDefaults() Config {
	if c.FrameSize <= 0 {
		c.FrameSize = 64
	}
	if c.Frames <= 0 {
		c.Frames = 8
	}
	return c
}

// Result is the outcome of a pre-estimation phase.
type Result struct {
	// Estimate is the estimated population size.
	Estimate float64
	// Slots is the number of probe slots spent.
	Slots int
	// EmptySlots, SingletonSlots and CollisionSlots break the probe slots
	// down by outcome (probe responses are not decodable ID transmissions;
	// the reader only senses occupancy).
	EmptySlots     int
	SingletonSlots int
	CollisionSlots int
	// Frames is the number of probe frames issued (including the
	// persistence search).
	Frames int
	// OnAir is the air time consumed by the probe phase.
	OnAir time.Duration
}

// Estimate runs the pre-estimation phase against the environment's tag
// population and channel. It does not identify any tag: probe responses
// are short unmodulated bursts in the real scheme, but the slot timing is
// accounted at full ID-slot cost to keep the comparison with embedded
// estimation conservative.
func Estimate(env *protocol.Env, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	var (
		res     Result
		clock   air.Clock
		f       = cfg.FrameSize
		p       = 1.0
		frames  int
		sum     float64
		samples int
	)
	budget := env.SlotBudget()

	for samples < cfg.Frames {
		if res.Slots >= budget {
			res.OnAir = clock.Elapsed()
			if samples > 0 {
				res.Estimate = sum / float64(samples)
				return res, nil
			}
			return res, ErrInconclusive
		}
		if env.Tracer != nil {
			env.Tracer.Emit(obsev.Event{Kind: obsev.FrameStart, Seq: res.Slots, N1: frames + 1, N2: f, F1: p})
		}
		n0, nc := probeFrame(env, f, p, res.Slots)
		res.Slots += f
		res.EmptySlots += n0
		res.CollisionSlots += nc
		res.SingletonSlots += f - n0 - nc
		frames++
		clock.Add(env.Timing.FrameAnnouncement())
		clock.AddSlots(env.Timing, f)

		if nc == f {
			// Saturated: halve the persistence and retry (the scale
			// search). Below a floor the population is beyond what this
			// probe can size; the caller's budget will stop us first.
			p /= 2
			if p < 1e-9 {
				res.OnAir = clock.Elapsed()
				return res, ErrInconclusive
			}
			continue
		}
		est, ok := invert(cfg.Method, n0, nc, f, p)
		if !ok {
			// Uninformative frame at this persistence (e.g. everything
			// empty because N is tiny): for MethodZero n0 == f inverts to
			// 0 cleanly, so this is mostly the CE with nc == 0.
			continue
		}
		sum += est
		samples++
	}
	res.Frames = frames
	res.Estimate = sum / float64(samples)
	res.OnAir = clock.Elapsed()
	return res, nil
}

// probeFrame simulates one probe frame: every tag picks a slot of the
// frame with probability p; the reader only needs each slot's
// empty/occupied/collided state. seq is the sequence number of the frame's
// first slot: each probe slot emits its own SlotDone, so a slot observer
// sees the probe slots numbered ahead of the identification slots that
// follow.
func probeFrame(env *protocol.Env, f int, p float64, seq int) (n0, nc int) {
	occupants := make([][]tagid.ID, f)
	for _, id := range env.Tags {
		if !env.RNG.Bool(p) {
			continue
		}
		s := env.RNG.Intn(f)
		occupants[s] = append(occupants[s], id)
	}
	for i, tx := range occupants {
		obs := env.Channel.Observe(tx)
		switch obs.Kind {
		case channel.Empty:
			n0++
		case channel.Collision, channel.Captured:
			// A captured slot held multiple responders; the pre-estimator
			// counts multiplicity, not decode success.
			nc++
		}
		if env.Tracer != nil {
			env.Tracer.Emit(obsev.Event{
				Kind: obsev.SlotDone,
				Seq:  seq + i,
				Sub:  uint8(obs.Kind),
				N1:   len(tx),
			})
		}
	}
	return n0, nc
}

// invert maps one frame's counts to a population estimate.
func invert(m Method, n0, nc, f int, p float64) (float64, bool) {
	rho := p / float64(f)
	switch m {
	case MethodCollision:
		return invertCollision(nc, f, rho)
	default:
		return invertZero(n0, f, rho)
	}
}

// invertZero solves E(n0) = f*(1-rho)^N for N. A fully empty frame
// (n0 == f) inverts cleanly to zero responders.
func invertZero(n0, f int, rho float64) (float64, bool) {
	if rho <= 0 || rho >= 1 || n0 <= 0 || n0 > f {
		return 0, false
	}
	if n0 == f {
		return 0, true
	}
	return math.Log(float64(n0)/float64(f)) / math.Log(1-rho), true
}

// invertCollision solves E(nc) = f*(1-(1-rho)^N - N*rho*(1-rho)^(N-1)) for
// N by bisection (the expectation is increasing in N).
func invertCollision(nc, f int, rho float64) (float64, bool) {
	if nc <= 0 || nc >= f || rho <= 0 || rho >= 1 {
		return 0, false
	}
	target := float64(nc)
	g := func(n float64) float64 {
		return float64(f)*(1-math.Pow(1-rho, n)-n*rho*math.Pow(1-rho, n-1)) - target
	}
	lo, hi := 0.0, 2.0
	for g(hi) < 0 {
		hi *= 2
		if hi > 1e12 {
			return 0, false
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-9*(1+hi); i++ {
		mid := (lo + hi) / 2
		if g(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, true
}

// Sharded, supervised session execution. Sessions are partitioned over a
// fixed set of shards by ID hash; each shard is one worker goroutine that
// owns its sessions outright — no per-session locks, no cross-shard
// coordination. Requests reach a shard through a bounded queue: a full
// queue is backpressure (HTTP 429 + Retry-After), not unbounded memory
// growth. The worker survives anything a request does: a panic inside a
// protocol step poisons that one session (500, quarantined in place, its
// last durable checkpoint intact for the next restart) and the worker
// keeps serving every other session.
package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime/debug"
	"time"

	"github.com/ancrfid/ancrfid/internal/obs"
)

// Sentinel errors of the serving ladder; the HTTP layer maps each to its
// status code.
var (
	// ErrBusy reports a full shard queue — back off and retry.
	ErrBusy = errors.New("server: shard queue full")
	// ErrDraining reports a server past the start of its graceful drain.
	ErrDraining = errors.New("server: draining")
	// ErrNotFound reports an unknown session.
	ErrNotFound = errors.New("server: unknown session")
	// ErrExists reports a create colliding with a live session.
	ErrExists = errors.New("server: session already exists")
	// ErrPoisoned reports a session quarantined after a panic; its state
	// on disk is the last durable checkpoint, recovered on next restart.
	ErrPoisoned = errors.New("server: session poisoned")
)

type shardResult struct {
	v   any
	err error
}

// shardCall is one unit of work for a shard worker. session names the
// session the call touches, so a panic can be pinned on it.
type shardCall struct {
	session string
	fn      func() (any, error)
	done    chan shardResult
}

// entry is a shard's view of one session. h == nil with poisoned set is a
// quarantined session; absence from the map entirely means passivated (on
// disk only) or never created.
type entry struct {
	h        *hosted
	lastUsed time.Time
	poisoned bool
	reason   string
}

type shard struct {
	srv      *Server
	index    int
	queue    chan *shardCall
	quit     chan struct{} // closed by Drain/Kill
	stopped  chan struct{} // closed when the worker exited
	sessions map[string]*entry
	// tracer folds this shard's protocol events into the shared registry
	// and health monitor. It is shard-local because MetricsTracer keeps a
	// per-run scratch map; registry counters themselves are atomic and
	// commute across shards.
	tracer obs.Tracer
}

func newShard(srv *Server, index int) *shard {
	return &shard{
		srv:      srv,
		index:    index,
		queue:    make(chan *shardCall, srv.cfg.QueueDepth),
		quit:     make(chan struct{}),
		stopped:  make(chan struct{}),
		sessions: make(map[string]*entry),
		tracer:   obs.Multi(obs.NewMetricsTracer(srv.reg), srv.health),
	}
}

// shardFor maps a session ID to its owning shard.
func (s *Server) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// do submits fn to the shard and waits for its result. A full queue fails
// fast with ErrBusy; a shard that stopped while the call waited fails
// with ErrDraining.
func (sh *shard) do(session string, fn func() (any, error)) (any, error) {
	c := &shardCall{session: session, fn: fn, done: make(chan shardResult, 1)}
	select {
	case sh.queue <- c:
	default:
		return nil, ErrBusy
	}
	select {
	case r := <-c.done:
		return r.v, r.err
	case <-sh.stopped:
		// The worker exited; its shutdown pass may still have answered us.
		select {
		case r := <-c.done:
			return r.v, r.err
		default:
			return nil, ErrDraining
		}
	}
}

// run is the shard worker loop.
func (sh *shard) run() {
	defer close(sh.stopped)
	var tick <-chan time.Time
	if sh.srv.cfg.IdleAfter > 0 {
		t := time.NewTicker(sh.srv.cfg.EvictInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case c := <-sh.queue:
			sh.serve(c)
		case <-tick:
			sh.evictIdle(time.Now())
		case <-sh.quit:
			sh.shutdown()
			return
		}
	}
}

// serve runs one call under the panic supervisor.
func (sh *shard) serve(c *shardCall) {
	defer func() {
		if r := recover(); r != nil {
			sh.poison(c.session, r)
			c.done <- shardResult{err: fmt.Errorf("%w: %v", ErrPoisoned, r)}
		}
	}()
	v, err := c.fn()
	c.done <- shardResult{v: v, err: err}
}

// poison quarantines a session after a panic: the in-memory state is
// dropped (it is unknowable mid-panic), the entry stays as a tombstone so
// the API reports 500 rather than 404, and the durable checkpoint is left
// untouched — the next restart recovers the last consistent state.
func (sh *shard) poison(id string, cause any) {
	reason := fmt.Sprintf("%v", cause)
	sh.srv.logf("server: shard %d: session %q poisoned: %s\n%s", sh.index, id, reason, debug.Stack())
	sh.srv.reg.Counter(obs.MetricServerSessionsPoisoned).Inc()
	sh.srv.health.Emit(obs.Event{Kind: obs.RunEnd, Label: "server", Err: "poisoned: " + reason})
	e, ok := sh.sessions[id]
	if !ok {
		e = &entry{}
		sh.sessions[id] = e
	}
	if e.h != nil {
		sh.srv.live.Add(-1)
	}
	e.h = nil
	e.poisoned = true
	e.reason = reason
}

// shutdown answers everything still queued with ErrDraining, then — on a
// graceful drain, not a kill — checkpoints every live dirty session so
// nothing accepted is lost.
func (sh *shard) shutdown() {
	for {
		select {
		case c := <-sh.queue:
			c.done <- shardResult{err: ErrDraining}
		default:
			if !sh.srv.killed.Load() {
				for _, e := range sh.sessions {
					if e.h != nil {
						sh.checkpoint(e.h)
					}
				}
			}
			return
		}
	}
}

// checkpoint durably persists h if it has unpersisted state. Write
// failures degrade gracefully: the session stays live and dirty (its
// state is not lost, only not yet durable), the error is counted and
// returned for the caller to surface.
func (sh *shard) checkpoint(h *hosted) error {
	if !h.dirty {
		return nil
	}
	rec := h.record()
	n, err := sh.srv.store.Write(rec)
	if err != nil {
		sh.srv.reg.Counter(obs.MetricServerCheckpointErrors).Inc()
		sh.srv.logf("server: checkpoint %q seq %d: %v", h.id, rec.Seq, err)
		return err
	}
	h.ckptSeq = rec.Seq
	h.dirty = false
	h.stepsSinceCkpt = 0
	sh.srv.reg.Counter(obs.MetricServerCheckpointWrites).Inc()
	sh.srv.reg.Counter(obs.MetricServerCheckpointBytes).Add(int64(n))
	return nil
}

// evictIdle passivates sessions untouched for IdleAfter: checkpoint, then
// drop from memory. The session is not gone — the next request for it
// reactivates it from disk by replay. A session whose checkpoint cannot
// be written is kept in memory: bounded staleness never trumps losing
// accepted state.
func (sh *shard) evictIdle(now time.Time) {
	for id, e := range sh.sessions {
		if e.h == nil || now.Sub(e.lastUsed) < sh.srv.cfg.IdleAfter {
			continue
		}
		if sh.checkpoint(e.h) != nil {
			continue
		}
		sh.srv.reg.Counter(obs.MetricServerEvictIdle).Inc()
		sh.srv.live.Add(-1)
		delete(sh.sessions, id)
	}
}

// lookup returns the live entry for id, reactivating a passivated session
// from its durable checkpoint on demand.
func (sh *shard) lookup(id string) (*entry, error) {
	if e, ok := sh.sessions[id]; ok {
		if e.poisoned {
			return nil, fmt.Errorf("%w: %s", ErrPoisoned, e.reason)
		}
		return e, nil
	}
	rec, err := sh.srv.store.Load(id)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	h, err := replayHosted(rec, sh.tracer)
	if err != nil {
		return nil, err
	}
	e := &entry{h: h, lastUsed: time.Now()}
	sh.sessions[id] = e
	sh.srv.live.Add(1)
	sh.srv.reg.Counter(obs.MetricServerSessionsReactivated).Inc()
	return e, nil
}

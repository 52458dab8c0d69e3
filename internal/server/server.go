// Package server hosts concurrent inventory sessions behind an HTTP API
// with the robustness properties ROADMAP.md item 2 demands: durable
// checkpoints with crash recovery, bounded queues with real backpressure,
// per-client rate limits, supervised workers that quarantine a panicking
// session instead of dying, idle passivation, and a graceful drain that
// checkpoints everything before the process exits.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ancrfid/ancrfid/internal/fault"
	"github.com/ancrfid/ancrfid/internal/obs"
)

// Config tunes a Server. Zero values take the documented defaults.
type Config struct {
	// Dir is the durable checkpoint directory (required).
	Dir string
	// Shards is the worker-pool width; sessions hash onto shards and each
	// shard is one goroutine. Default 8.
	Shards int
	// QueueDepth bounds each shard's request queue; a full queue is HTTP
	// 429. Default 128.
	QueueDepth int
	// CheckpointEvery is the step-driven checkpoint cadence: a session is
	// persisted after this many steps since its last checkpoint. Ops
	// (admit/revoke) always checkpoint eagerly. Default 4096; negative
	// disables step-driven checkpoints.
	CheckpointEvery int
	// IdleAfter passivates sessions untouched this long (checkpoint, then
	// release memory; the next request reactivates by replay). 0 disables.
	IdleAfter time.Duration
	// EvictInterval is the idle-scan period. Default IdleAfter/4, min 1s.
	EvictInterval time.Duration
	// StepDeadline bounds the wall time one step request may hold its
	// shard. Default 2s; negative disables.
	StepDeadline time.Duration
	// MaxStepsPerRequest caps the step batch a single request may ask
	// for. Default 65536.
	MaxStepsPerRequest int
	// RateLimit is the per-client request rate (tokens/second, keyed by
	// X-Client-ID else remote host). 0 disables. RateBurst defaults to
	// 2×RateLimit, min 1.
	RateLimit float64
	RateBurst int
	// MaxSessions caps concurrently live (in-memory) sessions; at the cap
	// creates are rejected with 429. 0 is unlimited.
	MaxSessions int
	// DiskFaults injects deterministic checkpoint-write faults (tests and
	// chaos drills only), derived from FaultSeed.
	DiskFaults fault.DiskConfig
	FaultSeed  uint64
	// NoSync skips fsync on checkpoint writes — benchmarks only.
	NoSync bool
	// Logf receives operational log lines; nil discards them.
	Logf func(string, ...any)
	// newSession overrides hosted-session construction — tests use it to
	// inject panicking sessions into the supervision path.
	newSession func(id string, spec Spec, tracer obs.Tracer) (*hosted, error)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 4096
	}
	if c.EvictInterval <= 0 {
		c.EvictInterval = c.IdleAfter / 4
		if c.EvictInterval < time.Second {
			c.EvictInterval = time.Second
		}
	}
	if c.StepDeadline == 0 {
		c.StepDeadline = 2 * time.Second
	}
	if c.MaxStepsPerRequest <= 0 {
		c.MaxStepsPerRequest = 65536
	}
	if c.RateBurst <= 0 {
		c.RateBurst = int(2 * c.RateLimit)
	}
	return c
}

// Server is the inventory session host. Create one with New, mount
// Handler on an http.Server, and stop with Drain (graceful) or Kill
// (simulated crash — tests only).
type Server struct {
	cfg    Config
	store  *Store
	reg    *obs.Registry
	health *obs.HealthMonitor
	// requests and requestErrors count every API request and those served
	// a 5xx; resolved once because guard bumps them on every request.
	requests, requestErrors *obs.Counter
	shards                  []*shard
	limiter                 *rateLimiter

	live     atomic.Int64 // sessions resident in memory
	draining atomic.Bool
	killed   atomic.Bool
	stopOnce sync.Once
	stopped  chan struct{}

	// newSession builds a hosted session; tests override it to inject
	// panicking sessions into the supervision path.
	newSession func(id string, spec Spec, tracer obs.Tracer) (*hosted, error)
}

// New opens the checkpoint store, runs the recovery scan — every valid
// checkpoint is replayed back to a live session, every damaged or
// divergent one is quarantined — and starts the shard workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("server: Config.Dir is required")
	}
	var disk *fault.Disk
	if cfg.DiskFaults.Enabled() {
		disk = fault.NewDisk(cfg.DiskFaults, cfg.FaultSeed)
	}
	store, err := OpenStore(cfg.Dir, disk, cfg.NoSync)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:        cfg,
		store:      store,
		reg:        reg,
		health:     obs.NewHealthMonitor(obs.HealthConfig{}),
		limiter:    newRateLimiter(cfg.RateLimit, cfg.RateBurst),
		stopped:    make(chan struct{}),
		newSession: cfg.newSession,
	}
	if s.newSession == nil {
		s.newSession = newHosted
	}
	// Touch every server-plane counter so /metrics serves the full zeroed
	// families from the first scrape — a recovery pass that quarantined
	// nothing still reports rfid_server_recovery_quarantined_total 0.
	s.requests = reg.Counter(obs.MetricServerRequests)
	s.requestErrors = reg.Counter(obs.MetricServerRequestErrors)
	for _, name := range []string{
		obs.MetricServerRecoveryScanned, obs.MetricServerRecoveryRecovered,
		obs.MetricServerRecoveryQuarantined, obs.MetricServerRecoveryReplayedSteps,
		obs.MetricServerEvictIdle, obs.MetricServerRejectBackpressure, obs.MetricServerRejectRatelimit,
		obs.MetricServerRejectDraining, obs.MetricServerSessionsCreated,
		obs.MetricServerSessionsDeleted, obs.MetricServerSessionsPoisoned,
		obs.MetricServerSessionsReactivated, obs.MetricServerSteps,
		obs.MetricServerCheckpointWrites, obs.MetricServerCheckpointErrors,
		obs.MetricServerCheckpointBytes, obs.MetricServerDupIdents,
		obs.MetricServerPhantoms,
	} {
		reg.Counter(name)
	}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = newShard(s, i)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	for _, sh := range s.shards {
		go sh.run()
	}
	return s, nil
}

// recover replays every surviving checkpoint into its shard. Shards
// replay in parallel, each on its own goroutine; replay is untraced and
// a session takes its shard's tracer once verified (see replayHosted). A
// record that passes the CRC but fails replay is quarantined like a
// corrupt file — the server starts with what it can prove, not what it
// hopes.
func (s *Server) recover() error {
	scan, err := s.store.Recover()
	if err != nil {
		return err
	}
	for _, q := range scan.Quarantined {
		s.logf("server: recovery: quarantined %s: %v", q.Path, q.Err)
		s.recovered(false, 0)
	}
	perShard := make([][]*Record, len(s.shards))
	for _, rec := range scan.Records {
		i := s.shardFor(rec.ID).index
		perShard[i] = append(perShard[i], rec)
	}
	var wg sync.WaitGroup
	for i, recs := range perShard {
		if len(recs) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *shard, recs []*Record) {
			defer wg.Done()
			for _, rec := range recs {
				h, err := replayHosted(rec, sh.tracer)
				if err != nil {
					qpath := s.store.Quarantine(rec.ID)
					s.logf("server: recovery: session %q replay failed, quarantined to %s: %v", rec.ID, qpath, err)
					s.recovered(false, 0)
					continue
				}
				sh.sessions[rec.ID] = &entry{h: h, lastUsed: time.Now()}
				s.live.Add(1)
				s.recovered(true, rec.Steps)
			}
		}(s.shards[i], recs)
	}
	wg.Wait()
	return nil
}

// recovered counts one checkpoint scanned at startup: recovered with its
// replayed step count, or quarantined.
func (s *Server) recovered(ok bool, steps uint64) {
	s.reg.Counter(obs.MetricServerRecoveryScanned).Inc()
	if !ok {
		s.reg.Counter(obs.MetricServerRecoveryQuarantined).Inc()
		return
	}
	s.reg.Counter(obs.MetricServerRecoveryRecovered).Inc()
	s.reg.Counter(obs.MetricServerRecoveryReplayedSteps).Add(int64(steps))
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Registry exposes the server's metric registry (tests and embedding).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Live reports the number of sessions resident in memory.
func (s *Server) Live() int64 { return s.live.Load() }

// Drain gracefully stops the server: new work is rejected with 503,
// queued requests are answered, and every live session is checkpointed
// before the workers exit. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.stop()
	select {
	case <-s.stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Kill hard-stops the workers WITHOUT checkpointing — the in-process
// stand-in for kill -9, used by the soak test to exercise recovery. State
// since the last checkpoint is deliberately lost.
func (s *Server) Kill() {
	s.killed.Store(true)
	s.draining.Store(true)
	s.stop()
	<-s.stopped
}

func (s *Server) stop() {
	s.stopOnce.Do(func() {
		go func() {
			for _, sh := range s.shards {
				close(sh.quit)
			}
			for _, sh := range s.shards {
				<-sh.stopped
			}
			close(s.stopped)
		}()
	})
}

// ---- HTTP layer ----

// Handler returns the server's HTTP API:
//
//	POST   /v1/sessions              create (body: {"id": ..., "spec": {...}})
//	GET    /v1/sessions              list session statuses
//	GET    /v1/sessions/{id}         one session's status
//	DELETE /v1/sessions/{id}         delete session and its checkpoint
//	POST   /v1/sessions/{id}/step    run steps (body: {"steps": n})
//	POST   /v1/sessions/{id}/admit   admit tags (body: {"ids": [hex...]})
//	POST   /v1/sessions/{id}/revoke  revoke tags (body: {"ids": [hex...]})
//	POST   /v1/sessions/{id}/snapshot  force a durable checkpoint
//	GET    /v1/sessions/{id}/idents  identified tag IDs, in order
//	GET    /metrics                  Prometheus exposition
//	GET    /healthz                  health score + drain state
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.guard("create", s.handleCreate))
	mux.HandleFunc("GET /v1/sessions", s.guard("list", s.handleList))
	mux.HandleFunc("GET /v1/sessions/{id}", s.guard("status", s.handleStatus))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.guard("delete", s.handleDelete))
	mux.HandleFunc("POST /v1/sessions/{id}/step", s.guard("step", s.handleStep))
	mux.HandleFunc("POST /v1/sessions/{id}/admit", s.guard("admit", s.handleAdmit))
	mux.HandleFunc("POST /v1/sessions/{id}/revoke", s.guard("revoke", s.handleRevoke))
	mux.HandleFunc("POST /v1/sessions/{id}/snapshot", s.guard("snapshot", s.handleSnapshot))
	mux.HandleFunc("GET /v1/sessions/{id}/idents", s.guard("idents", s.handleIdents))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// statusWriter captures the served status for request accounting.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// guard wraps an API handler with the admission ladder — drain check,
// rate limit — and request accounting.
func (s *Server) guard(op string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			s.requests.Inc()
			if sw.code >= 500 {
				s.requestErrors.Inc()
			}
		}()
		if s.draining.Load() {
			s.reg.Counter(obs.MetricServerRejectDraining).Inc()
			s.fail(sw, r, op, http.StatusServiceUnavailable, ErrDraining)
			return
		}
		key := clientKey(r.Header.Get("X-Client-ID"), r.RemoteAddr)
		if ok, wait := s.limiter.allow(key, time.Now()); !ok {
			s.reg.Counter(obs.MetricServerRejectRatelimit).Inc()
			sw.Header().Set("Retry-After", strconv.Itoa(int(wait/time.Second)+1))
			s.fail(sw, r, op, http.StatusTooManyRequests, errors.New("server: rate limit exceeded"))
			return
		}
		h(sw, r)
	}
}

// fail serves a JSON error body.
func (s *Server) fail(w http.ResponseWriter, _ *http.Request, _ string, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// failMapped serves err with the status its sentinel demands.
func (s *Server) failMapped(w http.ResponseWriter, r *http.Request, op string, err error) {
	switch {
	case errors.Is(err, ErrBusy):
		s.reg.Counter(obs.MetricServerRejectBackpressure).Inc()
		w.Header().Set("Retry-After", "1")
		s.fail(w, r, op, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		s.reg.Counter(obs.MetricServerRejectDraining).Inc()
		s.fail(w, r, op, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrNotFound):
		s.fail(w, r, op, http.StatusNotFound, err)
	case errors.Is(err, ErrExists):
		s.fail(w, r, op, http.StatusConflict, err)
	case errors.Is(err, ErrPoisoned), errors.Is(err, ErrReplayDiverged):
		s.fail(w, r, op, http.StatusInternalServerError, err)
	default:
		s.fail(w, r, op, http.StatusBadRequest, err)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decodeBody strictly decodes a JSON request body into v.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	return nil
}

type createRequest struct {
	// ID names the session; empty lets the server assign one.
	ID   string `json:"id,omitempty"`
	Spec Spec   `json:"spec"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := decodeBody(r, &req); err != nil {
		s.failMapped(w, r, "create", err)
		return
	}
	if req.ID == "" {
		var b [8]byte
		rand.Read(b[:])
		req.ID = "s-" + hex.EncodeToString(b[:])
	}
	if !validSessionID(req.ID) {
		s.failMapped(w, r, "create", fmt.Errorf("server: invalid session id %q", req.ID))
		return
	}
	if s.cfg.MaxSessions > 0 && s.live.Load() >= int64(s.cfg.MaxSessions) {
		s.failMapped(w, r, "create", fmt.Errorf("%w: %d sessions live", ErrBusy, s.live.Load()))
		return
	}
	sh := s.shardFor(req.ID)
	v, err := sh.do(req.ID, func() (any, error) {
		if _, ok := sh.sessions[req.ID]; ok {
			return nil, ErrExists
		}
		if s.store.Exists(req.ID) {
			return nil, ErrExists
		}
		h, err := s.newSession(req.ID, req.Spec, sh.tracer)
		if err != nil {
			return nil, err
		}
		h.dirty = true
		if err := sh.checkpoint(h); err != nil {
			// Not durable — refuse the create rather than hand out a
			// session recovery would not know about.
			return nil, fmt.Errorf("server: create checkpoint: %w", err)
		}
		sh.sessions[req.ID] = &entry{h: h, lastUsed: time.Now()}
		s.live.Add(1)
		s.reg.Counter(obs.MetricServerSessionsCreated).Inc()
		return h.Status(), nil
	})
	if err != nil {
		s.failMapped(w, r, "create", err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var all []status
	for _, sh := range s.shards {
		v, err := sh.do("", func() (any, error) {
			out := make([]status, 0, len(sh.sessions))
			for id, e := range sh.sessions {
				if e.h == nil {
					out = append(out, status{ID: id, Poisoned: e.poisoned})
					continue
				}
				out = append(out, e.h.Status())
			}
			return out, nil
		})
		if err != nil {
			s.failMapped(w, r, "list", err)
			return
		}
		all = append(all, v.([]status)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	writeJSON(w, map[string]any{"sessions": all, "live": len(all)})
}

// withSession runs fn on the session's shard after resolving it (with
// reactivation from disk if passivated).
func (s *Server) withSession(id string, fn func(*hosted, *shard) (any, error)) (any, error) {
	sh := s.shardFor(id)
	return sh.do(id, func() (any, error) {
		e, err := sh.lookup(id)
		if err != nil {
			return nil, err
		}
		e.lastUsed = time.Now()
		return fn(e.h, sh)
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, err := s.withSession(id, func(h *hosted, _ *shard) (any, error) {
		return h.Status(), nil
	})
	if err != nil {
		s.failMapped(w, r, "status", err)
		return
	}
	writeJSON(w, v)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sh := s.shardFor(id)
	_, err := sh.do(id, func() (any, error) {
		e, ok := sh.sessions[id]
		if !ok && !s.store.Exists(id) {
			return nil, ErrNotFound
		}
		if ok {
			if e.h != nil {
				s.live.Add(-1)
			}
			delete(sh.sessions, id)
		}
		if err := s.store.Delete(id); err != nil {
			return nil, err
		}
		s.reg.Counter(obs.MetricServerSessionsDeleted).Inc()
		return nil, nil
	})
	if err != nil {
		s.failMapped(w, r, "delete", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

type stepRequest struct {
	Steps int `json:"steps"`
}

type stepResponse struct {
	Executed int    `json:"executed"`
	Done     bool   `json:"done"`
	Failed   string `json:"failed,omitempty"`
	Steps    uint64 `json:"steps"`
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	var req stepRequest
	if err := decodeBody(r, &req); err != nil {
		s.failMapped(w, r, "step", err)
		return
	}
	if req.Steps <= 0 {
		req.Steps = 1
	}
	if req.Steps > s.cfg.MaxStepsPerRequest {
		req.Steps = s.cfg.MaxStepsPerRequest
	}
	v, err := s.withSession(r.PathValue("id"), func(h *hosted, sh *shard) (any, error) {
		var deadline time.Time
		if s.cfg.StepDeadline > 0 {
			deadline = time.Now().Add(s.cfg.StepDeadline)
		}
		executed, done, stepErr := h.step(req.Steps, deadline)
		s.reg.Counter(obs.MetricServerSteps).Add(int64(executed))
		s.reg.Histogram(obs.HistServerStepBatch).Observe(int64(executed))
		s.auditInvariants(h)
		if s.cfg.CheckpointEvery > 0 && h.stepsSinceCkpt >= uint64(s.cfg.CheckpointEvery) {
			// Cadence checkpoint; failure degrades durability, not service.
			sh.checkpoint(h)
		}
		resp := stepResponse{Executed: executed, Done: done, Steps: h.steps}
		if stepErr != nil {
			resp.Failed = stepErr.Error()
		}
		return resp, nil
	})
	if err != nil {
		s.failMapped(w, r, "step", err)
		return
	}
	writeJSON(w, v)
}

// auditInvariants folds a session's invariant violations into the global
// counters. Counters are monotone, session fields are totals, so fold the
// delta by re-deriving from the registry is impossible — instead the
// session tracks what it already reported.
func (s *Server) auditInvariants(h *hosted) {
	if d := h.dupIdents - h.dupReported; d > 0 {
		s.reg.Counter(obs.MetricServerDupIdents).Add(int64(d))
		h.dupReported = h.dupIdents
	}
	if d := h.phantoms - h.phantomReported; d > 0 {
		s.reg.Counter(obs.MetricServerPhantoms).Add(int64(d))
		h.phantomReported = h.phantoms
	}
}

type opRequest struct {
	IDs []string `json:"ids"`
}

type opResponse struct {
	Applied int    `json:"applied"`
	Steps   uint64 `json:"steps"`
}

// handleMutate implements admit and revoke: apply the op, then
// checkpoint eagerly — the op is durable before the response commits to
// it, so a crash cannot forget an acknowledged admission.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request, op string) {
	var req opRequest
	if err := decodeBody(r, &req); err != nil {
		s.failMapped(w, r, op, err)
		return
	}
	if len(req.IDs) == 0 {
		s.failMapped(w, r, op, errors.New("server: empty ids"))
		return
	}
	v, err := s.withSession(r.PathValue("id"), func(h *hosted, sh *shard) (any, error) {
		j := Op{}
		if op == "admit" {
			j.Admit = req.IDs
		} else {
			j.Revoke = req.IDs
		}
		admitted, revoked, err := h.apply(j)
		if err != nil {
			return nil, err
		}
		if err := sh.checkpoint(h); err != nil {
			return nil, fmt.Errorf("server: %s not durable: %w", op, err)
		}
		return opResponse{Applied: admitted + revoked, Steps: h.steps}, nil
	})
	if err != nil {
		s.failMapped(w, r, op, err)
		return
	}
	writeJSON(w, v)
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	s.handleMutate(w, r, "admit")
}

func (s *Server) handleRevoke(w http.ResponseWriter, r *http.Request) {
	s.handleMutate(w, r, "revoke")
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	v, err := s.withSession(r.PathValue("id"), func(h *hosted, sh *shard) (any, error) {
		if err := sh.checkpoint(h); err != nil {
			return nil, err
		}
		return map[string]any{"seq": h.ckptSeq, "steps": h.steps}, nil
	})
	if err != nil {
		s.failMapped(w, r, "snapshot", err)
		return
	}
	writeJSON(w, v)
}

func (s *Server) handleIdents(w http.ResponseWriter, r *http.Request) {
	v, err := s.withSession(r.PathValue("id"), func(h *hosted, _ *shard) (any, error) {
		out := make([]string, len(h.identified))
		for i, id := range h.identified {
			out[i] = formatID(id)
		}
		return map[string]any{"idents": out}, nil
	})
	if err != nil {
		s.failMapped(w, r, "idents", err)
		return
	}
	writeJSON(w, v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	obs.WritePrometheus(w, s.reg)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := s.health.Snapshot()
	body := map[string]any{
		"health":   snap,
		"live":     s.live.Load(),
		"draining": s.draining.Load(),
	}
	if s.draining.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(body)
		return
	}
	writeJSON(w, body)
}

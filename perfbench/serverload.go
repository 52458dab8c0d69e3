package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/server"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// The server-mixed workload: an in-process internal/server on a loopback
// listener over a fresh data directory. Set-up recovers serverSlots
// journaled FCAT-2 sessions; the load is a closed loop of one keep-alive
// client per CPU, each owning a fixed share of the session slots.
const (
	serverSlots     = 32   // concurrent session slots
	serverTags      = 4000 // initial population of every session
	serverPrepSteps = 4096 // steps each recovered session journals before set-up
	stepBatch       = 256  // steps per step request
	admitEvery      = 8    // every admitEvery-th request of a live session admits
	admitTags       = 8    // tags per admit request
	// requestsPerSecond sizes the fixed work: each client issues
	// ceil(seconds × requestsPerSecond) requests.
	requestsPerSecond = 1300
)

// sessionStatus mirrors the fields of the server's session status the
// workload reads.
type sessionStatus struct {
	ID           string           `json:"id"`
	Failed       string           `json:"failed"`
	Admitted     int              `json:"admitted"`
	Identified   int              `json:"identified"`
	Departed     int              `json:"departed_unread"`
	Active       int              `json:"still_active"`
	Outstanding  int              `json:"outstanding"`
	DupIdents    int              `json:"dup_idents"`
	Phantoms     int              `json:"phantoms"`
	ElapsedAirUS int64            `json:"elapsed_air_us"`
	Metrics      protocol.Metrics `json:"metrics"`
	Poisoned     bool             `json:"poisoned"`
}

// problems audits one session's invariants — exact accounting, no
// duplicate identification, no phantom, no failure — and describes every
// violation.
func (st *sessionStatus) problems() []string {
	var out []string
	if st.Admitted != st.Identified+st.Departed+st.Active {
		out = append(out, fmt.Sprintf("session %s: admitted %d != identified %d + departed %d + active %d",
			st.ID, st.Admitted, st.Identified, st.Departed, st.Active))
	}
	if st.DupIdents != 0 || st.Phantoms != 0 {
		out = append(out, fmt.Sprintf("session %s: %d duplicate idents, %d phantoms", st.ID, st.DupIdents, st.Phantoms))
	}
	if st.Failed != "" || st.Poisoned {
		out = append(out, fmt.Sprintf("session %s: failed %q, poisoned %v", st.ID, st.Failed, st.Poisoned))
	}
	return out
}

// tally sums the sessions' identification, air time and slot counts.
type tally struct {
	identified int
	airUS      int64
	c          counts
}

func (t *tally) add(st *sessionStatus) {
	t.identified += st.Identified
	t.airUS += st.ElapsedAirUS
	t.c.addRun(st.Metrics)
}

func (t *tally) merge(o tally) {
	t.identified += o.identified
	t.airUS += o.airUS
	t.c.add(o.c)
}

// sessionID names generation gen of a slot.
func sessionID(slot, gen int) string { return fmt.Sprintf("b-%02d-%04d", slot, gen) }

// sessionSpec is the creation recipe of generation gen of a slot.
func sessionSpec(seed uint64, slot, gen int) server.Spec {
	return server.Spec{Protocol: "FCAT-2", Seed: mix(mix(seed, uint64(100+slot)), uint64(gen)), Tags: serverTags}
}

// admitIDs draws the batch-th admission of generation gen of a slot.
func admitIDs(seed uint64, slot, gen, batch int) []string {
	r := rng.New(mix(mix(mix(seed, uint64(5000+slot)), uint64(gen)), uint64(batch)))
	out := make([]string, admitTags)
	for i, id := range tagid.Population(r, admitTags) {
		out[i] = hex.EncodeToString(id[:])
	}
	return out
}

func runServerMixed(o options) (*result, error) {
	dir, err := os.MkdirTemp(o.workdir, "perfbench-server-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	data := filepath.Join(dir, "data")
	if err := prepareSessions(data, o.seed); err != nil {
		return nil, fmt.Errorf("preparing sessions: %w", err)
	}

	r := newResult()
	var mw *handlerTimer
	if o.trace {
		mw = &handlerTimer{}
	}
	var (
		setups, scans []float64
		inst          *instance
	)
	for i := 0; i < setupRepeats; i++ {
		if o.trace {
			t0 := time.Now()
			st, err := server.OpenStore(data, nil, false)
			if err != nil {
				return nil, err
			}
			scan, err := st.Recover()
			if err != nil {
				return nil, err
			}
			scans = append(scans, time.Since(t0).Seconds())
			r.check(len(scan.Records) == serverSlots && len(scan.Quarantined) == 0,
				"recovery scan found %d records, %d quarantined; want %d, 0", len(scan.Records), len(scan.Quarantined), serverSlots)
		}
		t0 := time.Now()
		inst, err = startInstance(data, mw)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.check(inst.srv.Live() == serverSlots, "set-up recovered %d sessions, want %d", inst.srv.Live(), serverSlots)
		if i < setupRepeats-1 {
			inst.kill()
			runtime.GC() // every set-up starts from a settled heap
		}
	}
	defer inst.kill()

	// Untimed: the starting point of every recovered session.
	admin := newClient(inst.base)
	defer admin.close()
	before, err := admin.list()
	if err != nil {
		return nil, err
	}
	var start tally
	for i := range before {
		start.add(&before[i])
	}
	prom0, err := admin.metrics()
	if err != nil {
		return nil, err
	}
	// Drop the admin connection so the load runs on the clients' alone.
	admin.close()
	if mw != nil {
		mw.reset()
	}

	clients := runtime.NumCPU()
	perClient := int(math.Ceil(o.seconds * requestsPerSecond))
	loads := make([]*loadClient, clients)
	for c := range loads {
		loads[c] = &loadClient{client: newClient(inst.base), seed: o.seed}
		for s := c; s < serverSlots; s += clients {
			loads[c].slots = append(loads[c].slots, &slotState{slot: s})
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	gc0, tot0 := readCPU()
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, lc := range loads {
		wg.Add(1)
		go func(lc *loadClient) {
			defer wg.Done()
			lc.drive(perClient)
		}(lc)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	gc1, tot1 := readCPU()
	runtime.ReadMemStats(&ms)
	mallocs = ms.Mallocs - mallocs

	var (
		ops               opCounter
		retired           tally
		steps             int
		stepLat, admitLat latencies
	)
	for _, lc := range loads {
		lc.client.close()
		ops.merge(lc.ops)
		retired.merge(lc.retired)
		steps += lc.steps
		stepLat.ms = append(stepLat.ms, lc.stepLat.ms...)
		admitLat.ms = append(admitLat.ms, lc.admitLat.ms...)
		for _, v := range lc.violations {
			r.check(false, "%s", v)
		}
	}
	r.Attempted, r.Failed = ops.attempted, ops.failed

	live, prom1, err := audit(r, admin, loads)
	if err != nil {
		return nil, err
	}
	end := retired
	end.merge(live)
	r.check(steps > 0 && end.identified > start.identified, "the load identified no tag")

	step := stepLat.summarize()
	admit := admitLat.summarize()
	fmt.Printf("# %d clients, %d requests (%d failed, %d refused) in %.3fs; step n=%d p50=%.3fms p%g=%.3fms; admit n=%d p50=%.3fms\n",
		clients, ops.attempted, ops.failed, ops.refused, wall, step.n, step.p50, step.tailLevel, step.tail, admit.n, admit.p50)
	if !o.trace {
		r.set("setup_s", median(setups), "s")
		r.set("tags_per_s", float64(end.identified-start.identified)/wall, "1/s")
		r.set("air_tags_per_s", float64(end.identified)/(float64(end.airUS)/1e6), "1/s")
		r.set("steps_per_s", float64(steps)/wall, "1/s")
		r.set("op_p50_ms", step.p50, "ms")
		r.set("op_tail_ms", step.tail, "ms")
		return r, nil
	}

	r.setCounts(end.c)
	r.set("runtime.allocs_per_slot", float64(mallocs)/float64(steps), "allocs/slot")
	r.set("runtime.gc_cpu_frac", (gc1-gc0)/(tot1-tot0), "ratio")
	r.set("client.admit_p50_ms", admit.p50, "ms")
	hStep, hAdmit := mw.summaries()
	r.set("server.handler_step_ms", hStep.p50, "ms")
	r.set("server.handler_admit_ms", hAdmit.p50, "ms")
	r.set("http.overhead_ms", step.p50-hStep.p50, "ms")
	r.set("server.checkpoint_writes", prom1["rfid_server_checkpoint_writes_total"]-prom0["rfid_server_checkpoint_writes_total"], "count")
	r.set("server.checkpoint_bytes", prom1["rfid_server_checkpoint_bytes_total"]-prom0["rfid_server_checkpoint_bytes_total"], "bytes")
	r.set("store.recover_s", median(scans), "s")
	r.set("server.replay_s", median(setups)-median(scans), "s")

	// Checkpoint encode and durable write, timed on the post-run records.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := inst.drain(ctx); err != nil {
		return nil, err
	}
	encode, write, err := timeCheckpoints(data, filepath.Join(dir, "rewrite"))
	if err != nil {
		return nil, err
	}
	r.set("checkpoint.encode_ms", encode, "ms")
	r.set("store.write_ms", write, "ms")
	return r, nil
}

// audit checks, after the load and untimed, every live session and the
// server's own invariant counters. It returns the live sessions' tally and
// the final /metrics scrape.
func audit(r *result, admin *client, loads []*loadClient) (tally, map[string]float64, error) {
	var live tally
	after, err := admin.list()
	if err != nil {
		return live, nil, err
	}
	// A slot whose generation was deleted but not yet re-created has no
	// session; every other slot has exactly its current generation live.
	want := map[string]bool{}
	for _, lc := range loads {
		for _, s := range lc.slots {
			if s.phase != phaseCreate {
				want[sessionID(s.slot, s.gen)] = true
			}
		}
	}
	r.check(len(after) == len(want), "%d sessions live after the run, want %d", len(after), len(want))
	for i := range after {
		st := &after[i]
		r.check(want[st.ID], "unexpected live session %s", st.ID)
		for _, p := range st.problems() {
			r.check(false, "%s", p)
		}
		live.add(st)
		idents, err := admin.idents(st.ID)
		if err != nil {
			return live, nil, err
		}
		seen := make(map[string]bool, len(idents))
		for _, id := range idents {
			r.check(!seen[id], "session %s: ident %s listed twice", st.ID, id)
			seen[id] = true
		}
		r.check(len(idents) == st.Identified, "session %s: %d idents listed, status says %d", st.ID, len(idents), st.Identified)
	}
	prom, err := admin.metrics()
	if err != nil {
		return live, nil, err
	}
	r.check(prom["rfid_server_invariant_dup_idents_total"] == 0 && prom["rfid_server_invariant_phantoms_total"] == 0,
		"/metrics reports %g duplicate idents and %g phantoms",
		prom["rfid_server_invariant_dup_idents_total"], prom["rfid_server_invariant_phantoms_total"])
	return live, prom, nil
}

// prepareSessions journals one generation-0 session per slot through the
// server's public API: create, step serverPrepSteps, admit one batch, then
// drain so every session is checkpointed. Durability is off here — this is
// input preparation, not measured.
func prepareSessions(dir string, seed uint64) error {
	srv, err := server.New(server.Config{Dir: dir, NoSync: true})
	if err != nil {
		return err
	}
	h := srv.Handler()
	call := func(method, path string, body any) error {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
		if rec.Code/100 != 2 {
			return fmt.Errorf("%s %s: HTTP %d: %s", method, path, rec.Code, rec.Body.String())
		}
		return nil
	}
	for s := 0; s < serverSlots; s++ {
		id := sessionID(s, 0)
		if err := call("POST", "/v1/sessions", map[string]any{"id": id, "spec": sessionSpec(seed, s, 0)}); err != nil {
			return err
		}
		if err := call("POST", "/v1/sessions/"+id+"/step", map[string]any{"steps": serverPrepSteps}); err != nil {
			return err
		}
		if err := call("POST", "/v1/sessions/"+id+"/admit", map[string]any{"ids": admitIDs(seed, s, 0, 0)}); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Drain(ctx)
}

// instance is a running server on a loopback listener.
type instance struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startInstance recovers the server over dir and brings its listener up.
func startInstance(dir string, mw *handlerTimer) (*instance, error) {
	srv, err := server.New(server.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Kill()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if mw != nil {
		h = mw.wrap(h)
	}
	in := &instance{srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(in.done)
		in.hs.Serve(ln)
	}()
	return in, nil
}

// kill closes the listener and hard-stops the server, waiting for both.
// Safe to call more than once.
func (in *instance) kill() {
	in.hs.Close()
	<-in.done
	in.srv.Kill()
}

// drain closes the listener and checkpoints every session.
func (in *instance) drain(ctx context.Context) error {
	in.hs.Close()
	<-in.done
	return in.srv.Drain(ctx)
}

// timeCheckpoints loads the checkpoints in dir and reports the median time
// to encode one and to write one durably (fsync on) into a fresh store.
func timeCheckpoints(dir, scratch string) (encodeMS, writeMS float64, err error) {
	src, err := server.OpenStore(dir, nil, false)
	if err != nil {
		return 0, 0, err
	}
	scan, err := src.Recover()
	if err != nil {
		return 0, 0, err
	}
	if len(scan.Records) == 0 {
		return 0, 0, errors.New("no checkpoint to time")
	}
	dst, err := server.OpenStore(scratch, nil, false)
	if err != nil {
		return 0, 0, err
	}
	var enc, wr latencies
	for _, rec := range scan.Records {
		t0 := time.Now()
		if _, err := server.EncodeCheckpoint(rec); err != nil {
			return 0, 0, err
		}
		enc.add(time.Since(t0))
		t0 = time.Now()
		if _, err := dst.Write(rec); err != nil {
			return 0, 0, err
		}
		wr.add(time.Since(t0))
	}
	return enc.summarize().p50, wr.summarize().p50, nil
}

// handlerTimer is a timing middleware around the server's handler: it
// records the handler time of step and admit requests.
type handlerTimer struct {
	mu          sync.Mutex
	step, admit latencies
}

func (t *handlerTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(t0)
		var into *latencies
		switch {
		case req.Method != http.MethodPost:
		case strings.HasSuffix(req.URL.Path, "/step"):
			into = &t.step
		case strings.HasSuffix(req.URL.Path, "/admit"):
			into = &t.admit
		}
		if into != nil {
			t.mu.Lock()
			into.add(d)
			t.mu.Unlock()
		}
	})
}

func (t *handlerTimer) reset() {
	t.mu.Lock()
	t.step, t.admit = latencies{}, latencies{}
	t.mu.Unlock()
}

func (t *handlerTimer) summaries() (step, admit summary) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.step.summarize(), t.admit.summarize()
}

// slotState is the script position of one session slot. A slot's session
// is stepped in batches with an admission every admitEvery requests; once
// a step reports it done, the slot reads its final status, deletes it and
// creates the next generation, so every step request works on a live
// backlog and memory stays bounded.
type slotState struct {
	slot, gen int
	phase     int // one of phaseLive, phaseRetire, phaseDelete, phaseCreate
	reqs      int // requests to the live generation, for the admit cadence
	admits    int // admit batches issued to the live generation
}

const (
	phaseLive = iota
	phaseRetire
	phaseDelete
	phaseCreate
)

// loadClient is one closed-loop client: it issues a request, waits for the
// reply, and issues the next, visiting its slots round-robin.
type loadClient struct {
	client *client
	seed   uint64
	slots  []*slotState

	ops               opCounter
	steps             int
	retired           tally
	stepLat, admitLat latencies
	violations        []string
}

func (lc *loadClient) drive(requests int) {
	for i := 0; i < requests; i++ {
		lc.turn(lc.slots[i%len(lc.slots)])
	}
}

// turn issues the slot's next request and advances its script.
func (lc *loadClient) turn(s *slotState) {
	id := sessionID(s.slot, s.gen)
	switch s.phase {
	case phaseLive:
		s.reqs++
		if s.reqs%admitEvery == 0 {
			s.admits++
			code, _, d, err := lc.client.do("POST", "/v1/sessions/"+id+"/admit", map[string]any{"ids": admitIDs(lc.seed, s.slot, s.gen, s.admits)})
			if lc.ops.record(code, err) {
				lc.admitLat.add(d)
			}
			return
		}
		code, body, d, err := lc.client.do("POST", "/v1/sessions/"+id+"/step", map[string]any{"steps": stepBatch})
		if !lc.ops.record(code, err) {
			return
		}
		lc.stepLat.add(d)
		var resp struct {
			Executed int    `json:"executed"`
			Done     bool   `json:"done"`
			Failed   string `json:"failed"`
		}
		if err := json.Unmarshal(body, &resp); err != nil || resp.Failed != "" {
			lc.violations = append(lc.violations, fmt.Sprintf("session %s: step response %q (%v)", id, body, err))
			return
		}
		lc.steps += resp.Executed
		if resp.Done {
			s.phase = phaseRetire
		}
	case phaseRetire:
		code, body, _, err := lc.client.do("GET", "/v1/sessions/"+id, nil)
		if !lc.ops.record(code, err) {
			return
		}
		var st sessionStatus
		if err := json.Unmarshal(body, &st); err != nil {
			lc.violations = append(lc.violations, fmt.Sprintf("session %s: status: %v", id, err))
			return
		}
		lc.violations = append(lc.violations, st.problems()...)
		if st.Identified != st.Admitted || st.Outstanding != 0 {
			lc.violations = append(lc.violations, fmt.Sprintf("session %s: done with %d of %d admitted identified, %d outstanding",
				id, st.Identified, st.Admitted, st.Outstanding))
		}
		lc.retired.add(&st)
		s.phase = phaseDelete
	case phaseDelete:
		code, _, _, err := lc.client.do("DELETE", "/v1/sessions/"+id, nil)
		if lc.ops.record(code, err) {
			s.phase = phaseCreate
		}
	case phaseCreate:
		s.gen++
		next := sessionID(s.slot, s.gen)
		code, _, _, err := lc.client.do("POST", "/v1/sessions", map[string]any{"id": next, "spec": sessionSpec(lc.seed, s.slot, s.gen)})
		lc.ops.record(code, err)
		s.phase, s.reqs, s.admits = phaseLive, 0, 0
	}
}

// client is a keep-alive HTTP client with its own connection.
type client struct {
	base string
	tr   *http.Transport
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and returns its status, body and client-observed
// latency. It never retries: a refusal is the caller's failed operation.
func (c *client) do(method, path string, body any) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, time.Since(t0), err
}

func (c *client) get(path string) ([]byte, error) {
	code, body, _, err := c.do("GET", path, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, code, body)
	}
	return body, nil
}

func (c *client) list() ([]sessionStatus, error) {
	body, err := c.get("/v1/sessions")
	if err != nil {
		return nil, err
	}
	var out struct {
		Sessions []sessionStatus `json:"sessions"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("session list: %w", err)
	}
	return out.Sessions, nil
}

func (c *client) idents(id string) ([]string, error) {
	body, err := c.get("/v1/sessions/" + id + "/idents")
	if err != nil {
		return nil, err
	}
	var out struct {
		Idents []string `json:"idents"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("idents of %s: %w", id, err)
	}
	return out.Idents, nil
}

// metrics scrapes /metrics into a map of unlabelled sample values.
func (c *client) metrics() (map[string]float64, error) {
	body, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

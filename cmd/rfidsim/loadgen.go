// Load-generator mode: rfidsim -loadgen drives an rfidserver instance
// over its HTTP API — the client half of the fault-tolerance story. It
// creates sessions, steps them concurrently while honouring the server's
// backpressure (429 + Retry-After), admits extra tags mid-run to exercise
// the eager-durability path, and in -loadgen-verify mode audits what a
// restarted server recovered: every session present, the accounting
// identity (admitted == identified + departed-unread + still-active)
// intact, zero duplicate identifications.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

type loadgenConfig struct {
	base     string // server base URL, no trailing slash
	sessions int
	steps    int
	verify   bool
	protocol string
	tags     int
	seed     uint64
	workers  int
}

// loadgenChurn is how many extra tags each session admits mid-run.
const loadgenChurn = 4

// stepBatch is the step count per request — big enough to amortise HTTP,
// small enough that backpressure stays responsive.
const stepBatch = 64

func loadgenSessionID(i int) string { return fmt.Sprintf("lg-%04d", i) }

func runLoadgen(cfg loadgenConfig) error {
	if cfg.sessions <= 0 {
		return fmt.Errorf("loadgen: sessions must be positive")
	}
	client := &lgClient{base: cfg.base, http: &http.Client{Timeout: 30 * time.Second}}
	if cfg.verify {
		return lgVerify(client, cfg)
	}
	return lgDrive(client, cfg)
}

// lgDrive creates and steps the fleet of sessions.
func lgDrive(c *lgClient, cfg loadgenConfig) error {
	var (
		wg       sync.WaitGroup
		failures atomic.Int64
		stepsRun atomic.Int64
		done     atomic.Int64
	)
	workers := cfg.workers
	if workers <= 0 {
		workers = 8
	}
	ids := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ids {
				if err := lgDriveOne(c, cfg, i, &stepsRun, &done); err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "rfidsim: loadgen: session %s: %v\n", loadgenSessionID(i), err)
				}
			}
		}()
	}
	start := time.Now()
	for i := 0; i < cfg.sessions; i++ {
		ids <- i
	}
	close(ids)
	wg.Wait()
	fmt.Printf("loadgen: %d sessions, %d done, %d steps in %v (%d failures)\n",
		cfg.sessions, done.Load(), stepsRun.Load(), time.Since(start).Round(time.Millisecond), failures.Load())
	if n := failures.Load(); n > 0 {
		return fmt.Errorf("loadgen: %d sessions failed", n)
	}
	return nil
}

func lgDriveOne(c *lgClient, cfg loadgenConfig, i int, stepsRun, done *atomic.Int64) error {
	id := loadgenSessionID(i)
	create := map[string]any{
		"id": id,
		"spec": map[string]any{
			"protocol": cfg.protocol,
			"seed":     cfg.seed + uint64(i),
			"tags":     cfg.tags,
		},
	}
	status, body, err := c.post("/v1/sessions", create)
	if err != nil {
		return err
	}
	// 409 means the session survived an earlier loadgen run (e.g. after a
	// server restart); keep driving it.
	if status != http.StatusCreated && status != http.StatusConflict {
		return fmt.Errorf("create: HTTP %d: %s", status, body)
	}
	// Mid-run churn: admit a few extra tags, drawn deterministically from
	// a seed the initial population does not use, halfway through the step
	// budget or as soon as the session reports done, whichever comes first.
	// A done session stepped on would run out its slot budget and fail.
	churnAt := cfg.steps / 2
	admitted, finished := false, false
	for total := 0; total < cfg.steps; {
		if !admitted && (finished || total >= churnAt) {
			extra := tagid.Population(rng.New(cfg.seed^0xc0ffee+uint64(i)), loadgenChurn)
			hexIDs := make([]string, len(extra))
			for j, t := range extra {
				hexIDs[j] = fmt.Sprintf("%x", t[:])
			}
			st, body, err := c.post("/v1/sessions/"+id+"/admit", map[string]any{"ids": hexIDs})
			if err != nil {
				return err
			}
			if st != http.StatusOK {
				return fmt.Errorf("admit: HTTP %d: %s", st, body)
			}
			admitted = true
		}
		n := stepBatch
		if rem := cfg.steps - total; rem < n {
			n = rem
		}
		st, body, err := c.post("/v1/sessions/"+id+"/step", map[string]any{"steps": n})
		if err != nil {
			return err
		}
		if st != http.StatusOK {
			return fmt.Errorf("step: HTTP %d: %s", st, body)
		}
		var resp struct {
			Executed int    `json:"executed"`
			Done     bool   `json:"done"`
			Failed   string `json:"failed"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("step response: %w", err)
		}
		if resp.Failed != "" {
			return fmt.Errorf("step: session failed: %s", resp.Failed)
		}
		total += resp.Executed
		stepsRun.Add(int64(resp.Executed))
		if resp.Done && admitted {
			done.Add(1)
			return nil
		}
		finished = resp.Done
	}
	return nil
}

// lgVerify audits every loadgen session on a (possibly restarted) server.
func lgVerify(c *lgClient, cfg loadgenConfig) error {
	violations := 0
	for i := 0; i < cfg.sessions; i++ {
		id := loadgenSessionID(i)
		st, body, err := c.get("/v1/sessions/" + id)
		if err != nil {
			return err
		}
		if st != http.StatusOK {
			fmt.Fprintf(os.Stderr, "rfidsim: loadgen: verify %s: HTTP %d: %s\n", id, st, body)
			violations++
			continue
		}
		var s struct {
			Admitted   int `json:"admitted"`
			Identified int `json:"identified"`
			Departed   int `json:"departed_unread"`
			Active     int `json:"still_active"`
			DupIdents  int `json:"dup_idents"`
			Phantoms   int `json:"phantoms"`
		}
		if err := json.Unmarshal(body, &s); err != nil {
			return fmt.Errorf("verify %s: %w", id, err)
		}
		if s.Admitted != s.Identified+s.Departed+s.Active {
			fmt.Fprintf(os.Stderr, "rfidsim: loadgen: verify %s: accounting broken: %d admitted != %d identified + %d departed + %d active\n",
				id, s.Admitted, s.Identified, s.Departed, s.Active)
			violations++
		}
		if s.DupIdents != 0 || s.Phantoms != 0 {
			fmt.Fprintf(os.Stderr, "rfidsim: loadgen: verify %s: %d duplicate idents, %d phantoms\n", id, s.DupIdents, s.Phantoms)
			violations++
		}
		// Cross-check the ident list itself: unique, and as many as the
		// status claims.
		st, body, err = c.get("/v1/sessions/" + id + "/idents")
		if err != nil {
			return err
		}
		if st != http.StatusOK {
			fmt.Fprintf(os.Stderr, "rfidsim: loadgen: verify %s: idents: HTTP %d\n", id, st)
			violations++
			continue
		}
		var il struct {
			Idents []string `json:"idents"`
		}
		if err := json.Unmarshal(body, &il); err != nil {
			return fmt.Errorf("verify %s idents: %w", id, err)
		}
		seen := make(map[string]bool, len(il.Idents))
		for _, h := range il.Idents {
			if seen[h] {
				fmt.Fprintf(os.Stderr, "rfidsim: loadgen: verify %s: duplicate ident %s\n", id, h)
				violations++
			}
			seen[h] = true
		}
		if len(il.Idents) != s.Identified {
			fmt.Fprintf(os.Stderr, "rfidsim: loadgen: verify %s: %d idents listed, status says %d\n", id, len(il.Idents), s.Identified)
			violations++
		}
	}
	if violations > 0 {
		return fmt.Errorf("loadgen: verify: %d violations across %d sessions", violations, cfg.sessions)
	}
	fmt.Printf("loadgen: verify: %d sessions OK (accounting exact, zero duplicate idents)\n", cfg.sessions)
	return nil
}

// lgClient is a minimal API client that honours the server's
// backpressure: 429 responses are retried after the advertised
// Retry-After, 503 (draining) after a short pause, with a bounded retry
// budget so a wedged server fails the run instead of hanging it.
type lgClient struct {
	base string
	http *http.Client
}

const lgMaxRetries = 30

func (c *lgClient) post(path string, body any) (int, []byte, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	return c.do(func() (*http.Response, error) {
		req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-ID", "rfidsim-loadgen")
		return c.http.Do(req)
	})
}

func (c *lgClient) get(path string) (int, []byte, error) {
	return c.do(func() (*http.Response, error) {
		req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("X-Client-ID", "rfidsim-loadgen")
		return c.http.Do(req)
	})
}

func (c *lgClient) do(send func() (*http.Response, error)) (int, []byte, error) {
	var lastStatus int
	for attempt := 0; attempt <= lgMaxRetries; attempt++ {
		resp, err := send()
		if err != nil {
			return 0, nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return resp.StatusCode, nil, err
		}
		lastStatus = resp.StatusCode
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			wait := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			time.Sleep(wait)
		case http.StatusServiceUnavailable:
			time.Sleep(500 * time.Millisecond)
		default:
			return resp.StatusCode, body, nil
		}
	}
	return lastStatus, nil, fmt.Errorf("gave up after %d backpressure retries (last HTTP %d)", lgMaxRetries, lastStatus)
}

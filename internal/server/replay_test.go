package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/ancrfid/ancrfid/internal/obs"
)

// replayCounters are the protocol-plane counters a replay must leave
// alone: the process that stepped the session live already counted its
// history.
var replayCounters = []string{
	obs.MetricSlotsEmpty, obs.MetricSlotsSingleton, obs.MetricSlotsCollision,
	obs.MetricIDsDirect, obs.MetricIDsResolved, obs.MetricRunsStarted,
}

func counterValues(reg *obs.Registry) map[string]int64 {
	out := make(map[string]int64, len(replayCounters))
	for _, name := range replayCounters {
		out[name] = reg.Value(name)
	}
	return out
}

func slotTotal(reg *obs.Registry) int64 {
	return reg.Value(obs.MetricSlotsEmpty) + reg.Value(obs.MetricSlotsSingleton) + reg.Value(obs.MetricSlotsCollision)
}

// TestSilentReplayReactivation passivates a stepped session and
// reactivates it without stepping it: the reactivation replays 200 steps,
// and none of them may reach the protocol counters or the health monitor.
func TestSilentReplayReactivation(t *testing.T) {
	s, ts := testServer(t, Config{
		Shards:        1,
		IdleAfter:     30 * time.Millisecond,
		EvictInterval: 10 * time.Millisecond,
	})
	createSession(t, ts, "sr-1", Spec{Protocol: "FCAT-2", Seed: 3, Tags: 30})
	stepSession(t, ts, "sr-1", 200)
	before, health := counterValues(s.reg), s.health.Snapshot()
	if slotTotal(s.reg) != 200 || before[obs.MetricRunsStarted] != 1 {
		t.Fatalf("live session counted %d slots and %d runs, want 200 and 1", slotTotal(s.reg), before[obs.MetricRunsStarted])
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Live() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Live() != 0 {
		t.Fatal("session never evicted")
	}
	if code, st := getStatus(t, ts, "sr-1"); code != http.StatusOK || st.Steps != 200 {
		t.Fatalf("reactivation: HTTP %d at step %d", code, st.Steps)
	}
	if got := s.reg.Value(obs.MetricServerSessionsReactivated); got != 1 {
		t.Fatalf("%d reactivations counted, want 1", got)
	}
	for name, want := range before {
		if got := s.reg.Value(name); got != want {
			t.Errorf("%s: %d after reactivation, %d before", name, got, want)
		}
	}
	if after := s.health.Snapshot(); after.Slots != health.Slots || after.Identified != health.Identified {
		t.Errorf("health monitor moved from %d slots, %d identified to %d, %d",
			health.Slots, health.Identified, after.Slots, after.Identified)
	}
}

// TestSilentReplayRestart restarts a server over a journaled session: the
// protocol counters start at zero with the replay counted only in
// rfid_server_recovery_replayed_steps_total, and a live step batch after
// recovery is counted exactly — slots and the record store's events both,
// so the tracer reached every copy of it.
func TestSilentReplayRestart(t *testing.T) {
	const journaled, live = 150, 40
	dir := t.TempDir()
	s, ts := testServer(t, Config{Dir: dir})
	createSession(t, ts, "sr-2", Spec{Protocol: "FCAT-2", Seed: 4, Tags: 400})
	stepSession(t, ts, "sr-2", journaled)
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	for name, got := range counterValues(s2.reg) {
		if got != 0 {
			t.Errorf("%s: %d after recovery, want 0", name, got)
		}
	}
	if got := s2.health.Snapshot().Slots; got != 0 {
		t.Errorf("health monitor saw %d slots during recovery, want 0", got)
	}
	if got := s2.reg.Value(obs.MetricServerRecoveryReplayedSteps); got != journaled {
		t.Errorf("replayed steps %d, want %d", got, journaled)
	}

	if resp := stepSession(t, ts2, "sr-2", live); resp.Executed != live {
		t.Fatalf("executed %d of %d live steps", resp.Executed, live)
	}
	if got := slotTotal(s2.reg); got != live {
		t.Errorf("%d live steps counted as %d slots", live, got)
	}
	if got := s2.health.Snapshot().Slots; got != live {
		t.Errorf("health monitor saw %d slots, want %d", got, live)
	}
	if s2.reg.Value(obs.MetricRecordsCreated) == 0 {
		t.Error("no collision record counted after recovery: the record store was left untraced")
	}
}

// TestReplayAttachesTracer replays a short journal of every protocol and
// checks the tracer reaches the rebuilt session: silent during replay,
// live from the next step.
func TestReplayAttachesTracer(t *testing.T) {
	for _, name := range []string{"FCAT-2", "SCAT-2", "DFSA", "EDFSA", "ABS", "AQS", "CRDSA", "MDFSA-2", "PRALOHA-2"} {
		t.Run(name, func(t *testing.T) {
			h, err := newHosted("at-1", Spec{Protocol: name, Seed: 8, Tags: 60}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := h.step(30, time.Time{}); err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			r, err := replayHosted(h.record(), obs.NewMetricsTracer(reg))
			if err != nil {
				t.Fatal(err)
			}
			if got := slotTotal(reg) + reg.Value(obs.MetricRunsStarted); got != 0 {
				t.Fatalf("replay emitted %d slot and run events", got)
			}
			if _, _, err := r.step(5, time.Time{}); err != nil {
				t.Fatal(err)
			}
			if slotTotal(reg) == 0 {
				t.Fatal("live steps after replay were not traced")
			}
		})
	}
}

package ancrfid_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/ancrfid/ancrfid"
)

// sessionEnv builds one deterministic single-run environment.
func sessionEnv(chanKind string, seed uint64) *ancrfid.Env {
	r := ancrfid.NewRNG(seed)
	tags := 60
	if chanKind == "signal" {
		tags = 20
	}
	pop := ancrfid.Population(r, tags)
	var ch ancrfid.Channel
	if chanKind == "signal" {
		ch = ancrfid.NewSignalChannel(ancrfid.SignalChannelConfig{NoiseSigma: 0.03, MaxCancel: 2}, r)
	} else {
		ch = ancrfid.NewAbstractChannel(ancrfid.AbstractChannelConfig{Lambda: 2}, r)
	}
	return &ancrfid.Env{RNG: r, Tags: pop, Channel: ch, Timing: ancrfid.ICodeTiming()}
}

// driveToDone steps the session until it reports done, collecting nothing;
// the caller inspects Metrics and the Env tracer.
func driveToDone(t *testing.T, s ancrfid.Session) {
	t.Helper()
	for {
		done, err := s.Step()
		if err != nil {
			t.Fatalf("%s: %v", s.Protocol(), err)
		}
		if done {
			return
		}
	}
}

// TestSessionCheckpointResume proves the checkpoint contract for every
// protocol over both channels: snapshotting mid-run is side-effect free,
// and restoring rewinds the session (RNG and channel state included) so
// the replayed remainder is bit-identical — same metrics, same trace
// bytes — and a checkpoint can be restored more than once.
func TestSessionCheckpointResume(t *testing.T) {
	for _, proto := range allProtocols {
		for _, chanKind := range []string{"abstract", "signal"} {
			t.Run(fmt.Sprintf("%s/%s", proto, chanKind), func(t *testing.T) {
				p, err := ancrfid.ByName(proto)
				if err != nil {
					t.Fatal(err)
				}
				sp, ok := ancrfid.AsSession(p)
				if !ok {
					t.Fatalf("%s does not implement SessionProtocol", proto)
				}

				env := sessionEnv(chanKind, 17)
				s := sp.Begin(env)
				for i := 0; i < 12; i++ {
					if done, err := s.Step(); err != nil {
						t.Fatal(err)
					} else if done {
						break
					}
				}
				cp, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if cp.Protocol() != p.Name() {
					t.Fatalf("checkpoint names %q, want %q", cp.Protocol(), p.Name())
				}

				var traceA bytes.Buffer
				env.Tracer = ancrfid.NewJSONLTracer(&traceA)
				driveToDone(t, s)
				mA := s.Metrics()

				for replay := 0; replay < 2; replay++ {
					if err := s.Restore(cp); err != nil {
						t.Fatalf("restore %d: %v", replay, err)
					}
					var traceB bytes.Buffer
					env.Tracer = ancrfid.NewJSONLTracer(&traceB)
					driveToDone(t, s)
					if mB := s.Metrics(); mB != mA {
						t.Fatalf("replay %d diverged:\n got %+v\nwant %+v", replay, mB, mA)
					}
					if !bytes.Equal(traceA.Bytes(), traceB.Bytes()) {
						t.Fatalf("replay %d produced a different trace stream", replay)
					}
				}
			})
		}
	}
}

// TestSessionCheckpointMismatch checks every cross-protocol restore is
// rejected with ErrCheckpointMismatch, and that the rejection never
// half-applies: the victim session continues bit-identically to an
// undisturbed twin afterwards.
func TestSessionCheckpointMismatch(t *testing.T) {
	for _, from := range allProtocols {
		for _, to := range allProtocols {
			if from == to {
				continue
			}
			t.Run(from+"->"+to, func(t *testing.T) {
				fp, err := ancrfid.ByName(from)
				if err != nil {
					t.Fatal(err)
				}
				fsp, _ := ancrfid.AsSession(fp)
				donor := fsp.Begin(sessionEnv("abstract", 1))
				cp, err := donor.Snapshot()
				if err != nil {
					t.Fatal(err)
				}

				mk := func() ancrfid.Session {
					tp, err := ancrfid.ByName(to)
					if err != nil {
						t.Fatal(err)
					}
					tsp, _ := ancrfid.AsSession(tp)
					s := tsp.Begin(sessionEnv("abstract", 2))
					for i := 0; i < 5; i++ {
						if _, err := s.Step(); err != nil {
							t.Fatal(err)
						}
					}
					return s
				}
				victim, control := mk(), mk()
				if err := victim.Restore(cp); err != ancrfid.ErrCheckpointMismatch {
					t.Fatalf("restoring a %s checkpoint into %s: want ErrCheckpointMismatch, got %v",
						from, to, err)
				}
				driveToDone(t, victim)
				driveToDone(t, control)
				if victim.Metrics() != control.Metrics() {
					t.Fatalf("rejected restore perturbed the session:\nvictim  %+v\ncontrol %+v",
						victim.Metrics(), control.Metrics())
				}
			})
		}
	}
}

// TestSessionStepsPastDone steps a finished 10-tag session of every
// protocol 30 000 more times, well past its slot budget of 200·10+10 000
// slots. Those slots only monitor the field, so they must not spend the
// budget: no step fails, and a tag admitted afterwards is still read.
func TestSessionStepsPastDone(t *testing.T) {
	for _, name := range allProtocols {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := ancrfid.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			sp, _ := ancrfid.AsSession(p)
			r := ancrfid.NewRNG(3)
			env := &ancrfid.Env{
				RNG: r, Tags: ancrfid.Population(r, 10), Timing: ancrfid.ICodeTiming(),
				Channel: ancrfid.NewAbstractChannel(ancrfid.AbstractChannelConfig{Lambda: 2}, r),
			}
			s := sp.Begin(env)
			driveToDone(t, s)
			for i := 0; i < 30000; i++ {
				if _, err := s.Step(); err != nil {
					t.Fatalf("step %d past done: %v", i, err)
				}
			}
			s.Admit(ancrfid.Population(ancrfid.NewRNG(4), 1))
			for s.Outstanding() > 0 {
				if _, err := s.Step(); err != nil {
					t.Fatalf("reading a tag admitted after the idle steps: %v", err)
				}
			}
			if got := s.Metrics().Identified(); got != 11 {
				t.Errorf("%d tags identified, want 11", got)
			}
		})
	}
}

// TestDynamicFCATContinuousInventory is the acceptance scenario: FCAT
// under Poisson arrivals at >= 50 tags/s over >= 10 s of simulated time
// completes with every admitted tag identified or explicitly still-active
// at cutoff.
func TestDynamicFCATContinuousInventory(t *testing.T) {
	sp, ok := ancrfid.AsSession(ancrfid.NewFCAT(2))
	if !ok {
		t.Fatal("FCAT does not implement SessionProtocol")
	}
	res, err := ancrfid.RunDynamic(sp, ancrfid.DynamicSimConfig{
		Config: ancrfid.SimConfig{Tags: 20, Runs: 3, Seed: 9, Workers: 4},
		Workload: ancrfid.WorkloadConfig{
			Duration:    12 * time.Second,
			ArrivalRate: 55,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range res.Runs {
		if rep.Duration < 12*time.Second {
			t.Fatalf("run %d stopped at %v, before the horizon", i, rep.Duration)
		}
		// Expect roughly rate*duration arrivals; well below that means the
		// schedule stalled.
		if rep.Admitted < 400 {
			t.Fatalf("run %d admitted only %d tags at 55/s over 12s", i, rep.Admitted)
		}
		if rep.DepartedUnread != 0 {
			t.Fatalf("run %d reported %d missed reads with no departures configured", i, rep.DepartedUnread)
		}
		if rep.Identified+rep.ActiveUnread != rep.Admitted {
			t.Fatalf("run %d accounting leak: identified %d + still-active %d != admitted %d",
				i, rep.Identified, rep.ActiveUnread, rep.Admitted)
		}
		// The reader must keep up with the offered load: nearly everything
		// identified, only the most recent arrivals still in flight.
		if rep.ActiveUnread > 25 {
			t.Fatalf("run %d left %d of %d tags unidentified at cutoff", i, rep.ActiveUnread, rep.Admitted)
		}
	}
	if res.Throughput.Mean < 50 {
		t.Fatalf("mean identification throughput %.1f tags/s, want >= 50", res.Throughput.Mean)
	}
}

package ancrfid_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/ancrfid/ancrfid"
)

// chaosShapes are the fault compositions the chaos matrix sweeps. Each
// composes several shapes so their interactions are exercised, not just the
// shapes in isolation; "none" is the fault-free baseline.
var chaosShapes = []struct {
	name   string
	faults ancrfid.FaultConfig
}{
	{"none", ancrfid.FaultConfig{}},
	{"ackloss+burst", ancrfid.FaultConfig{
		AckLoss: 0.2,
		Burst:   ancrfid.FaultBurstConfig{Duty: 0.12, MeanBad: 4},
	}},
	{"mute+departures", ancrfid.FaultConfig{
		MuteProb: 0.15,
		AckLoss:  0.05,
	}},
	{"stuck+corrupt", ancrfid.FaultConfig{
		StuckProb:        0.1,
		CorruptSingleton: 0.1,
		CorruptDecode:    0.3,
	}},
	// Stuck responders key up whatever the report probability is, so with
	// bursts on top FCAT's bootstrap probe collides all the way down.
	{"stuck+burst", ancrfid.FaultConfig{
		StuckProb: 0.2,
		Burst:     ancrfid.FaultBurstConfig{Duty: 0.1, MeanBad: 4},
	}},
	{"crash-restart", ancrfid.FaultConfig{
		AckLoss:    0.1,
		Burst:      ancrfid.FaultBurstConfig{Duty: 0.08, MeanBad: 4},
		CrashEvery: 96,
	}},
}

// chaosConfig builds the campaign for one matrix cell.
func chaosConfig(chanKind string, faults ancrfid.FaultConfig, workers int) ancrfid.DynamicSimConfig {
	cfg := ancrfid.DynamicSimConfig{
		Config: ancrfid.SimConfig{Tags: 30, Runs: 2, Seed: 23, Workers: workers},
		Workload: ancrfid.WorkloadConfig{
			Duration:      1500 * time.Millisecond,
			ArrivalRate:   25,
			DepartureRate: 0.3,
		},
	}
	cfg.Faults = faults
	if chanKind == "signal" {
		cfg.Tags = 10
		cfg.Workload.ArrivalRate = 8
		cfg.Workload.Duration = time.Second
		cfg.NewChannel = func(r *ancrfid.RNG) ancrfid.Channel {
			return ancrfid.NewSignalChannel(ancrfid.SignalChannelConfig{
				NoiseSigma: 0.03, MaxCancel: 2,
			}, r)
		}
	}
	return cfg
}

// quarantinesWithoutFaults lists the protocols that quarantine records over
// the decode order with faults off. FCAT, SCAT and CRDSA quarantine only
// under faults.
var quarantinesWithoutFaults = map[string]bool{"MDFSA-2": true, "PRALOHA-2": true}

// auditChaos asserts the hard inventory invariants on every run of a
// dynamic campaign under the given faults. A fault-free campaign must
// report no fault activity, and no quarantine outside
// quarantinesWithoutFaults.
func auditChaos(t *testing.T, res ancrfid.DynamicSimResult, faultCfg ancrfid.FaultConfig) {
	t.Helper()
	crashes := 0
	faults := 0
	quarantined := 0
	for i := range res.Runs {
		rep := &res.Runs[i]
		if rep.Phantoms != 0 {
			t.Errorf("run %d: %d phantom IDs identified", i, rep.Phantoms)
		}
		if rep.DupIdents != 0 {
			t.Errorf("run %d: %d duplicate identifications", i, rep.DupIdents)
		}
		if !rep.Accounted() {
			t.Errorf("run %d: accounting broken: admitted %d != identified %d + departed-unread %d + still-active %d",
				i, rep.Admitted, rep.Identified, rep.DepartedUnread, rep.ActiveUnread)
		}
		if rep.Admitted == 0 || rep.Identified == 0 {
			t.Errorf("run %d: degenerate run (admitted %d, identified %d)", i, rep.Admitted, rep.Identified)
		}
		faults += rep.FaultsInjected
		crashes += rep.Crashes
		quarantined += rep.Quarantined
	}
	if !faultCfg.Enabled() {
		if faults != 0 || crashes != 0 {
			t.Errorf("fault-free campaign reported fault activity: %d faults, %d crashes", faults, crashes)
		}
		if quarantined != 0 && !quarantinesWithoutFaults[res.Protocol] {
			t.Errorf("fault-free campaign quarantined %d records", quarantined)
		}
		return
	}
	// Some protocol/shape pairs dodge individual runs (a protocol that
	// never acknowledges sees no ACK loss; bursts need a busy slot to
	// land on), so the exercised-at-all check is campaign-level.
	if faults == 0 {
		t.Error("campaign injected no faults; the shape is not exercising anything")
	}
	if faultCfg.CrashEvery > 0 && crashes == 0 {
		t.Error("crash shape produced no crash-restarts")
	}
}

// TestChaosMatrix is the acceptance sweep: every protocol x both channels x
// all fault shapes (the fault-free baseline included), each at workers 1
// and 8. Each cell must satisfy the inventory invariants, and the parallel
// campaign must be bit-identical to the sequential one.
func TestChaosMatrix(t *testing.T) {
	for _, proto := range allProtocols {
		for _, chanKind := range []string{"abstract", "signal"} {
			for _, shape := range chaosShapes {
				t.Run(fmt.Sprintf("%s/%s/%s", proto, chanKind, shape.name), func(t *testing.T) {
					t.Parallel()
					p, err := ancrfid.ByName(proto)
					if err != nil {
						t.Fatal(err)
					}
					sp, ok := ancrfid.AsSession(p)
					if !ok {
						t.Fatalf("%s does not implement SessionProtocol", proto)
					}

					seq, err := ancrfid.RunDynamic(sp, chaosConfig(chanKind, shape.faults, 1))
					if err != nil {
						t.Fatalf("sequential campaign: %v", err)
					}
					auditChaos(t, seq, shape.faults)

					par, err := ancrfid.RunDynamic(sp, chaosConfig(chanKind, shape.faults, 8))
					if err != nil {
						t.Fatalf("parallel campaign: %v", err)
					}
					if !reflect.DeepEqual(seq.Runs, par.Runs) {
						t.Fatal("workers=8 chaos campaign differs from workers=1")
					}
				})
			}
		}
	}
}

// TestChaosCrashRestartAccounting drives a crash-heavy inventory and checks
// that every restart resumes from a mid-inventory checkpoint with the exact
// accounting intact: identifications rolled past a crash are re-earned, not
// double-counted, and the final books balance.
func TestChaosCrashRestartAccounting(t *testing.T) {
	sp, _ := ancrfid.AsSession(ancrfid.NewFCAT(2))
	cfg := chaosConfig("abstract", ancrfid.FaultConfig{
		AckLoss:    0.15,
		CrashEvery: 64, // raised to >= 2x checkpoint cadence by the harness
	}, 1)
	cfg.Runs = 3
	cfg.Workload.Duration = 2 * time.Second

	res, err := ancrfid.RunDynamic(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	auditChaos(t, res, cfg.Faults)
	for i := range res.Runs {
		rep := &res.Runs[i]
		if rep.Crashes < 2 {
			t.Errorf("run %d: only %d crashes; the schedule should hit several", i, rep.Crashes)
		}
		if rep.Checkpoints <= rep.Crashes {
			t.Errorf("run %d: %d checkpoints for %d crashes; marks must outpace crashes for net progress",
				i, rep.Checkpoints, rep.Crashes)
		}
		// Crash replays re-execute slots, so wall work strictly exceeds the
		// surviving timeline's slot count.
		if rep.WallSteps == 0 {
			t.Errorf("run %d: no wall steps recorded", i)
		}
	}
}

// TestChaosSevereDegradation: cranking severity up must degrade throughput,
// never break invariants — the graceful-degradation promise.
func TestChaosSevereDegradation(t *testing.T) {
	sp, _ := ancrfid.AsSession(ancrfid.NewSCAT(2))
	mild := chaosConfig("abstract", ancrfid.FaultConfig{AckLoss: 0.05}, 1)
	harsh := chaosConfig("abstract", ancrfid.FaultConfig{
		AckLoss:          0.4,
		Burst:            ancrfid.FaultBurstConfig{Duty: 0.3, MeanBad: 6},
		MuteProb:         0.1,
		CorruptSingleton: 0.2,
		CorruptDecode:    0.4,
	}, 1)

	mres, err := ancrfid.RunDynamic(sp, mild)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := ancrfid.RunDynamic(sp, harsh)
	if err != nil {
		t.Fatal(err)
	}
	auditChaos(t, mres, mild.Faults)
	auditChaos(t, hres, harsh.Faults)
	if hres.Identified.Mean >= mres.Identified.Mean {
		t.Errorf("harsh faults identified %.1f tags on average, mild %.1f; severity must cost throughput",
			hres.Identified.Mean, mres.Identified.Mean)
	}
	if hres.Quarantined.Mean == 0 {
		t.Error("harsh corruption produced no quarantines; the CRC defenses never fired")
	}
}

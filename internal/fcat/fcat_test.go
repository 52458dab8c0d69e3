package fcat

import (
	"errors"
	"testing"
	"time"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

func env(seed uint64, tags int, cfg channel.AbstractConfig) *protocol.Env {
	r := rng.New(seed)
	return &protocol.Env{
		RNG:     r,
		Tags:    tagid.Population(r, tags),
		Channel: channel.NewAbstract(cfg, r),
		Timing:  air.ICode(),
		TxModel: protocol.TxBinomial,
	}
}

func mustRun(t *testing.T, cfg Config, e *protocol.Env) protocol.Metrics {
	t.Helper()
	m, err := New(cfg).Run(e)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestName(t *testing.T) {
	if got := New(Config{Lambda: 4}).Name(); got != "FCAT-4" {
		t.Errorf("Name = %q", got)
	}
}

func TestDefaults(t *testing.T) {
	p := New(Config{})
	if p.cfg.Lambda != 2 || p.cfg.FrameSize != 30 {
		t.Fatalf("defaults: %+v", p.cfg)
	}
	if p.cfg.Omega < 1.41 || p.cfg.Omega > 1.42 {
		t.Fatalf("default omega %v", p.cfg.Omega)
	}
}

func TestEstimatorString(t *testing.T) {
	if EstimatorExact.String() != "exact" ||
		EstimatorClosedForm.String() != "closed-form" ||
		EstimatorEmpty.String() != "empty" {
		t.Fatal("estimator names wrong")
	}
}

func TestIdentifiesEveryTag(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 100, 2000} {
		m := mustRun(t, Config{Lambda: 2}, env(uint64(n)+1, n, channel.AbstractConfig{Lambda: 2}))
		if m.Identified() != n {
			t.Fatalf("N=%d: identified %d", n, m.Identified())
		}
		if m.DirectIDs+m.ResolvedIDs != n {
			t.Fatalf("N=%d: direct+resolved mismatch", n)
		}
	}
}

func TestEmptyPopulation(t *testing.T) {
	m := mustRun(t, Config{Lambda: 2}, env(2, 0, channel.AbstractConfig{Lambda: 2}))
	if m.Identified() != 0 {
		t.Fatal("identified tags in an empty field")
	}
	if m.TotalSlots() > 4 {
		t.Fatalf("%d slots to discover an empty field", m.TotalSlots())
	}
}

func TestSlotEfficiencyNearTheory(t *testing.T) {
	// At lambda=2 each slot yields an ID with probability ~0.5869, so a
	// well-tuned run needs ~N/0.5869 slots; allow 10% overhead for
	// bootstrap, estimation noise and the tail.
	const n = 5000
	m := mustRun(t, Config{Lambda: 2}, env(3, n, channel.AbstractConfig{Lambda: 2}))
	ideal := float64(n) / 0.5869
	if got := float64(m.TotalSlots()); got > ideal*1.10 {
		t.Fatalf("used %v slots, ideal %v", got, ideal)
	}
}

func TestPaperSlotsUnderTwiceN(t *testing.T) {
	// Section V-A: "the number of slots required never exceeds 2N".
	const n = 3000
	m := mustRun(t, Config{Lambda: 2}, env(4, n, channel.AbstractConfig{Lambda: 2}))
	if m.TotalSlots() > 2*n {
		t.Fatalf("%d slots exceeds 2N = %d", m.TotalSlots(), 2*n)
	}
}

func TestAllEstimatorsComplete(t *testing.T) {
	for _, est := range []Estimator{EstimatorExact, EstimatorClosedForm, EstimatorEmpty} {
		m := mustRun(t, Config{Lambda: 2, Estimator: est},
			env(5, 1500, channel.AbstractConfig{Lambda: 2}))
		if m.Identified() != 1500 {
			t.Fatalf("estimator %v identified %d of 1500", est, m.Identified())
		}
	}
}

func TestLastFrameOnlyCompletes(t *testing.T) {
	m := mustRun(t, Config{Lambda: 2, LastFrameOnly: true},
		env(6, 1000, channel.AbstractConfig{Lambda: 2}))
	if m.Identified() != 1000 {
		t.Fatalf("identified %d", m.Identified())
	}
}

func TestOracleBeatsEstimator(t *testing.T) {
	const n = 2000
	est := mustRun(t, Config{Lambda: 2}, env(7, n, channel.AbstractConfig{Lambda: 2}))
	ora := mustRun(t, Config{Lambda: 2, OracleEstimate: true}, env(7, n, channel.AbstractConfig{Lambda: 2}))
	if ora.Identified() != n || est.Identified() != n {
		t.Fatal("incomplete run")
	}
	// Within per-run noise the estimator can edge ahead on a lucky seed;
	// the oracle must only not lose materially.
	if ora.Throughput() < est.Throughput()*0.98 {
		t.Fatalf("oracle (%v) should not lose to the estimator (%v)", ora.Throughput(), est.Throughput())
	}
}

func TestInitialEstimateSkipsBootstrap(t *testing.T) {
	// With a perfect initial estimate, the run should be as lean as the
	// bootstrap run or leaner.
	const n = 1000
	boot := mustRun(t, Config{Lambda: 2}, env(8, n, channel.AbstractConfig{Lambda: 2}))
	seeded := mustRun(t, Config{Lambda: 2, InitialEstimate: n}, env(8, n, channel.AbstractConfig{Lambda: 2}))
	if seeded.Identified() != n {
		t.Fatal("seeded run incomplete")
	}
	if seeded.TotalSlots() > boot.TotalSlots()+60 {
		t.Fatalf("seeded run used %d slots vs bootstrap %d", seeded.TotalSlots(), boot.TotalSlots())
	}
}

func TestInitialEstimateWayOff(t *testing.T) {
	// A wildly wrong seed estimate must still converge and complete.
	for _, initial := range []float64{1, 1e6} {
		m := mustRun(t, Config{Lambda: 2, InitialEstimate: initial},
			env(9, 800, channel.AbstractConfig{Lambda: 2}))
		if m.Identified() != 800 {
			t.Fatalf("initial=%v: identified %d of 800", initial, m.Identified())
		}
	}
}

func TestFramesCounted(t *testing.T) {
	m := mustRun(t, Config{Lambda: 2}, env(10, 1000, channel.AbstractConfig{Lambda: 2}))
	if m.Frames == 0 {
		t.Fatal("no frames recorded")
	}
	// Slots per frame is f=30 (plus bootstrap/probe slots).
	if m.TotalSlots() < m.Frames*30 {
		t.Fatalf("slots %d < frames*30 = %d", m.TotalSlots(), m.Frames*30)
	}
}

func TestLambda3And4ResolveMore(t *testing.T) {
	const n = 3000
	resolved := make(map[int]int)
	for _, lambda := range []int{2, 3, 4} {
		m := mustRun(t, Config{Lambda: lambda}, env(11, n, channel.AbstractConfig{Lambda: lambda}))
		if m.Identified() != n {
			t.Fatalf("lambda=%d incomplete", lambda)
		}
		resolved[lambda] = m.ResolvedIDs
	}
	if !(resolved[2] < resolved[3] && resolved[3] < resolved[4]) {
		t.Fatalf("resolution counts not increasing with lambda: %v", resolved)
	}
}

func TestResolvedFractionsMatchPaper(t *testing.T) {
	// Table III: about 40% / 57-60% / 68-71% of IDs come from collision
	// records for lambda = 2 / 3 / 4.
	const n = 5000
	want := map[int][2]float64{2: {0.35, 0.50}, 3: {0.52, 0.65}, 4: {0.62, 0.75}}
	for lambda, bounds := range want {
		m := mustRun(t, Config{Lambda: lambda}, env(12, n, channel.AbstractConfig{Lambda: lambda}))
		frac := float64(m.ResolvedIDs) / float64(n)
		if frac < bounds[0] || frac > bounds[1] {
			t.Errorf("lambda=%d resolved fraction %.3f outside [%v, %v]", lambda, frac, bounds[0], bounds[1])
		}
	}
}

func TestHashModel(t *testing.T) {
	e := env(13, 400, channel.AbstractConfig{Lambda: 2})
	e.TxModel = protocol.TxHash
	m := mustRun(t, Config{Lambda: 2}, e)
	if m.Identified() != 400 {
		t.Fatalf("hash model identified %d of 400", m.Identified())
	}
}

func TestUnresolvableChannelCompletes(t *testing.T) {
	m := mustRun(t, Config{Lambda: 2},
		env(14, 600, channel.AbstractConfig{Lambda: 2, PUnresolvable: 1}))
	if m.Identified() != 600 || m.ResolvedIDs != 0 {
		t.Fatalf("identified=%d resolved=%d", m.Identified(), m.ResolvedIDs)
	}
}

func TestCorruptionRetries(t *testing.T) {
	m := mustRun(t, Config{Lambda: 2},
		env(15, 400, channel.AbstractConfig{Lambda: 2, PCorruptSingleton: 0.2}))
	if m.Identified() != 400 {
		t.Fatalf("identified %d of 400", m.Identified())
	}
}

func TestHopelessChannelReturnsErrNoProgress(t *testing.T) {
	// Every singleton corrupted: no tag can ever be identified.
	e := env(16, 50, channel.AbstractConfig{Lambda: 2, PCorruptSingleton: 1})
	e.MaxSlots = 2000
	_, err := New(Config{Lambda: 2}).Run(e)
	if !errors.Is(err, protocol.ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() protocol.Metrics {
		m, err := New(Config{Lambda: 2}).Run(env(17, 700, channel.AbstractConfig{Lambda: 2}))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different metrics:\n%+v\n%+v", a, b)
	}
}

func TestCallbackSeesEveryID(t *testing.T) {
	e := env(18, 500, channel.AbstractConfig{Lambda: 2})
	seen := make(map[tagid.ID]bool)
	viaResolution := 0
	e.OnIdentified = func(id tagid.ID, via bool) {
		if seen[id] {
			t.Fatalf("ID %v reported twice", id)
		}
		seen[id] = true
		if via {
			viaResolution++
		}
	}
	m := mustRun(t, Config{Lambda: 2}, e)
	if len(seen) != 500 {
		t.Fatalf("callback saw %d IDs", len(seen))
	}
	if viaResolution != m.ResolvedIDs {
		t.Fatalf("callback resolution count %d != metrics %d", viaResolution, m.ResolvedIDs)
	}
}

func TestFrameAdvertisementsCostAir(t *testing.T) {
	m := mustRun(t, Config{Lambda: 2}, env(19, 800, channel.AbstractConfig{Lambda: 2}))
	tm := air.ICode()
	// Air time exceeds bare slots by at least one advertisement per frame
	// and one 23-bit index per resolved ID.
	floor := time.Duration(m.TotalSlots())*tm.Slot() +
		time.Duration(m.Frames)*tm.FrameAdvertisement() +
		time.Duration(m.ResolvedIDs)*tm.ResolvedIndexAck()
	if m.OnAir < floor {
		t.Fatalf("air time %v below accounting floor %v", m.OnAir, floor)
	}
	// ...but not by more than a sane margin (ads for probes/bootstrap).
	if m.OnAir > floor+time.Duration(80)*tm.Slot() {
		t.Fatalf("air time %v unreasonably above floor %v", m.OnAir, floor)
	}
}

func TestSmallFrameSizes(t *testing.T) {
	for _, f := range []int{1, 2, 5} {
		m := mustRun(t, Config{Lambda: 2, FrameSize: f},
			env(20, 300, channel.AbstractConfig{Lambda: 2}))
		if m.Identified() != 300 {
			t.Fatalf("f=%d: identified %d of 300", f, m.Identified())
		}
	}
}

func TestCustomOmegaCompletes(t *testing.T) {
	for _, w := range []float64{0.3, 1.0, 2.9} {
		m := mustRun(t, Config{Lambda: 2, Omega: w},
			env(21, 400, channel.AbstractConfig{Lambda: 2}))
		if m.Identified() != 400 {
			t.Fatalf("omega=%v: identified %d", w, m.Identified())
		}
	}
}

// jammedChannel reports a collision in every slot, whoever transmits.
type jammedChannel struct{}

func (jammedChannel) Observe(tx []tagid.ID) channel.Observation {
	return channel.Observation{Kind: channel.Collision, Mix: channel.Spoiled(tx)}
}

// TestBootstrapNeverClears: when every slot collides, the bootstrap stops
// halving its probe at one over the slot budget and FCAT reads in frames
// until the budget is spent, failing with ErrNoProgress.
func TestBootstrapNeverClears(t *testing.T) {
	e := env(18, 50, channel.AbstractConfig{Lambda: 2})
	e.Channel = jammedChannel{}
	e.MaxSlots = 3000
	m, err := New(Config{Lambda: 2}).Run(e)
	if !errors.Is(err, protocol.ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	if got := m.TotalSlots(); got != e.MaxSlots {
		t.Fatalf("failed after %d slots, want the whole budget of %d", got, e.MaxSlots)
	}
	if m.Frames == 0 {
		t.Fatal("never left the bootstrap for framed reading")
	}
}

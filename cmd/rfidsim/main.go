// Command rfidsim runs one tag-identification protocol over a simulated
// RFID field and prints the run metrics.
//
// Usage:
//
//	rfidsim -protocol FCAT-2 -tags 10000 -runs 100
//	rfidsim -protocol DFSA -tags 5000
//	rfidsim -protocol FCAT-2 -channel signal -tags 200 -noise 0.05
//	rfidsim -protocol FCAT-2 -tags 1000 -runs 3 -trace trace.jsonl -metrics -
//
// The abstract channel is the paper's slot-level model; the signal channel
// runs real MSK waveform mixing and interference cancellation (slower —
// use smaller populations).
//
// Observability (see docs/observability.md): -trace writes the campaign's
// full event stream as JSON Lines, -timeline renders a human-readable
// slot-by-slot account, -metrics dumps the aggregated counter/histogram
// registry as "key value" lines, -spans writes the hierarchical span
// timeline as Chrome trace-event JSON (load it at ui.perfetto.dev), -serve
// exposes the live campaign over HTTP (/metrics Prometheus exposition,
// /healthz health score, /debug/vars expvar), and -progress reports per-run
// completion with live identification-latency percentiles on stderr.
// Output paths accept "-" for stdout.
//
// Campaigns run on a worker pool sized by -workers (default: all CPUs);
// every output — metrics, traces, timelines — is bit-identical to a
// sequential run (see docs/parallelism.md).
//
// -stream enables the streaming campaign mode for very large populations:
// identified tags retire out of the reader's active set, bounding its
// memory while producing bit-identical results (resolved collision
// recordings are recycled in every campaign; see docs/performance.md).
//
// Profiling: -cpuprofile and -memprofile write pprof profiles of the
// campaign for `go tool pprof` (see docs/performance.md). -memprofile also
// writes an in-flight snapshot at the campaign midpoint to <path>.mid, so
// streaming-mode spill behaviour is visible instead of only the settled
// end state.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/ancrfid/ancrfid"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rfidsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rfidsim", flag.ContinueOnError)
	var (
		protoName = fs.String("protocol", "FCAT-2", "protocol: FCAT-k, SCAT-k, DFSA, EDFSA, MDFSA-k, PRALOHA-k, CRDSA, ABS, AQS")
		tags      = fs.Int("tags", 1000, "population size")
		runs      = fs.Int("runs", 10, "Monte-Carlo runs")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		lambda    = fs.Int("lambda", 0, "channel ANC capability (0 = derive from protocol name, else 2)")
		chanKind  = fs.String("channel", "abstract", "channel model: abstract or signal")
		noise     = fs.Float64("noise", 0.03, "signal channel: AWGN sigma")
		jitter    = fs.Float64("jitter", 0, "signal channel: per-transmission phase jitter (radians)")
		punres    = fs.Float64("punresolvable", 0, "abstract channel: probability a resolvable record is spoiled")
		pcorrupt  = fs.Float64("pcorrupt", 0, "abstract channel: probability a singleton is corrupted")
		capSINR   = fs.Float64("capture-sinr", 0, "capture-effect SINR threshold in dB (0 = capture off)")
		maxOrder  = fs.Int("max-order", 0, "decode capability: max resolvable collision order (0 = lambda)")
		plExp     = fs.Float64("pathloss-exp", 0, "link budget: path-loss exponent (0 = default 2.0)")
		ackloss   = fs.Float64("ackloss", 0, "probability a reader acknowledgement is lost (tags retransmit)")
		timing    = fs.String("timing", "icode", "air interface: icode (53 kbit/s) or gen2 (128 kbit/s)")
		workers   = fs.Int("workers", runtime.GOMAXPROCS(0), "Monte-Carlo worker goroutines (output is identical for any value)")
		maxSlots  = fs.Int("max-slots", 0, "slot budget per run; a run that exhausts it fails with a no-progress error (0 = automatic)")
		stream    = fs.Bool("stream", false, "streaming campaign mode: compact identified tags out of the reader's active set so mega-N populations run in bounded memory (results are bit-identical; resolved collision records are recycled with or without it)")
		tracePath = fs.String("trace", "", "write the campaign's JSONL event trace to this file (\"-\" = stdout)")
		timeline  = fs.String("timeline", "", "write a human-readable slot timeline to this file (\"-\" = stdout)")
		metrics   = fs.String("metrics", "", "write the aggregated metrics registry to this file (\"-\" = stdout)")
		spansPath = fs.String("spans", "", "write the hierarchical span timeline as Chrome trace-event JSON (Perfetto-loadable) to this file (\"-\" = stdout)")
		serveAddr = fs.String("serve", "", "serve live telemetry over HTTP at this address (/metrics Prometheus exposition, /healthz, /debug/vars)")
		drainTO   = fs.Duration("drain-timeout", 5*time.Second, "graceful drain window for -serve on SIGINT/SIGTERM")
		progress  = fs.Bool("progress", false, "report per-run completion with live latency percentiles on stderr")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memprof   = fs.String("memprofile", "", "write a heap profile (after the campaign) to this file")

		arrivalRate   = fs.Float64("arrival-rate", 0, "continuous inventory: Poisson tag arrivals per second (enables the dynamic workload)")
		departureRate = fs.Float64("departure-rate", 0, "continuous inventory: per-tag departure hazard in 1/s")
		duration      = fs.Duration("duration", 0, "continuous inventory: simulated horizon (default 10s when a dynamic rate is set)")

		readers     = fs.Int("readers", 1, "fleet: number of readers (>1 enables the multi-reader scheduler)")
		zones       = fs.Int("zones", 0, "fleet: interrogation zones on a ring (0 = one per reader)")
		policyName  = fs.String("policy", "none", "fleet: reader coordination policy: none, tdma, lbt")
		readerPower = fs.String("reader-power", "", "fleet: comma-separated per-reader transmit power in dBm (default 30)")
		migrate     = fs.Float64("migrate", 0, "fleet: per-tag zone-migration hazard in 1/s (uses -duration as horizon, default 10s)")

		loadgenURL      = fs.String("loadgen", "", "load-generator mode: drive an rfidserver at this base URL instead of simulating locally")
		loadgenSessions = fs.Int("loadgen-sessions", 32, "loadgen: concurrent sessions to create and drive")
		loadgenSteps    = fs.Int("loadgen-steps", 2000, "loadgen: step budget per session")
		loadgenVerify   = fs.Bool("loadgen-verify", false, "loadgen: verify existing sessions instead of driving load (accounting identity, zero duplicate idents)")

		faultAckLoss   = fs.Float64("fault-ack-loss", 0, "fault injection: probability an acknowledgement is dropped (deterministic, seed-split)")
		faultBurstDuty = fs.Float64("fault-burst-duty", 0, "fault injection: Gilbert-Elliott burst-noise duty cycle (fraction of slots spoiled)")
		faultBurstMean = fs.Float64("fault-burst-mean", 0, "fault injection: mean burst length in slots (default 8)")
		faultMute      = fs.Float64("fault-mute", 0, "fault injection: probability a tag is mute (never transmits)")
		faultStuck     = fs.Float64("fault-stuck", 0, "fault injection: probability a tag is a stuck responder (transmits out of protocol)")
		faultCorrupt   = fs.Float64("fault-corrupt", 0, "fault injection: probability a slot's read or decode is corrupted (caught by CRC quarantine)")
		faultCrash     = fs.Int("fault-crash-every", 0, "fault injection: crash and restart the reader every N slots (continuous inventory)")
		sweepSeverity  = fs.Int("sweep-severity", 0, "sweep fault severity (ack loss + burst duty) over N+1 points for SCAT and FCAT, print a degradation table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *loadgenURL != "" {
		return runLoadgen(loadgenConfig{
			base:     strings.TrimRight(*loadgenURL, "/"),
			sessions: *loadgenSessions,
			steps:    *loadgenSteps,
			verify:   *loadgenVerify,
			protocol: *protoName,
			tags:     *tags,
			seed:     *seed,
			workers:  *workers,
		})
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rfidsim: writing heap profile:", err)
			}
			f.Close()
		}()
	}

	p, err := ancrfid.ByName(*protoName)
	if err != nil {
		return err
	}
	var tm ancrfid.Timing
	switch *timing {
	case "icode":
		tm = ancrfid.ICodeTiming()
	case "gen2":
		tm = ancrfid.Gen2Timing()
	default:
		return fmt.Errorf("unknown timing %q", *timing)
	}
	lam := *lambda
	if lam <= 0 {
		lam = 2
		var k int
		if _, err := fmt.Sscanf(p.Name(), "FCAT-%d", &k); err == nil {
			lam = k
		} else if _, err := fmt.Sscanf(p.Name(), "SCAT-%d", &k); err == nil {
			lam = k
		} else if _, err := fmt.Sscanf(p.Name(), "MDFSA-%d", &k); err == nil {
			lam = k
		} else if _, err := fmt.Sscanf(p.Name(), "PRALOHA-%d", &k); err == nil {
			lam = k
		}
	}
	capability := ancrfid.ChannelCapability{
		MaxOrder:      *maxOrder,
		CaptureSINRdB: *capSINR,
		Budget:        ancrfid.LinkBudget{PathLossExp: *plExp},
	}

	cfg := ancrfid.SimConfig{Tags: *tags, Runs: *runs, Seed: *seed, Lambda: lam, Capability: capability, Timing: tm, PAckLoss: *ackloss, Workers: *workers, MaxSlots: *maxSlots, Stream: *stream}
	cfg.Faults = ancrfid.FaultConfig{
		AckLoss:          *faultAckLoss,
		Burst:            ancrfid.FaultBurstConfig{Duty: *faultBurstDuty, MeanBad: *faultBurstMean},
		MuteProb:         *faultMute,
		StuckProb:        *faultStuck,
		CorruptSingleton: *faultCorrupt,
		CorruptDecode:    *faultCorrupt,
		CrashEvery:       *faultCrash,
	}
	fleetMode := *readers > 1 || *zones > 1 || *migrate > 0 || *policyName != "none"
	if *sweepSeverity > 0 {
		// The sweep attaches its own per-point health monitors and no
		// campaign observers, so these outputs would silently stay empty.
		var ignored []string
		outputs := [][2]string{
			{"-trace", *tracePath}, {"-timeline", *timeline}, {"-spans", *spansPath}, {"-metrics", *metrics},
		}
		for _, o := range outputs {
			if o[1] != "" {
				ignored = append(ignored, o[0])
			}
		}
		if len(ignored) > 0 {
			return fmt.Errorf("-sweep-severity writes no observer outputs; drop %s", strings.Join(ignored, ", "))
		}
	}

	var (
		tracers     []ancrfid.Tracer
		closers     []io.Closer
		jsonl       *obs.JSONL
		spanBuilder *ancrfid.SpanBuilder
		spanTrace   *ancrfid.ChromeTrace
		health      *ancrfid.HealthMonitor
	)
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	openOut := func(path string) (io.Writer, error) {
		if path == "-" {
			return os.Stdout, nil
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		closers = append(closers, f)
		return f, nil
	}
	if *tracePath != "" {
		w, err := openOut(*tracePath)
		if err != nil {
			return err
		}
		jsonl = ancrfid.NewJSONLTracer(w)
		tracers = append(tracers, jsonl)
	}
	if *timeline != "" {
		w, err := openOut(*timeline)
		if err != nil {
			return err
		}
		tracers = append(tracers, ancrfid.NewTimelineTracer(w))
	}
	if *spansPath != "" {
		w, err := openOut(*spansPath)
		if err != nil {
			return err
		}
		spanTrace = ancrfid.NewChromeTrace(w)
		spanBuilder = ancrfid.NewSpanBuilder(spanTrace)
		tracers = append(tracers, spanBuilder)
	}
	if *serveAddr != "" {
		health = ancrfid.NewHealthMonitor(ancrfid.HealthConfig{})
		tracers = append(tracers, health)
	}
	cfg.Tracer = ancrfid.MultiTracer(tracers...)
	// The registry also backs -serve's /metrics and -progress's live latency
	// percentiles, so either flag brings it up even without -metrics.
	var reg *ancrfid.Registry
	if *metrics != "" || *serveAddr != "" || *progress {
		reg = ancrfid.NewRegistry()
		cfg.Metrics = reg
	}
	if *serveAddr != "" {
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		srv := &http.Server{Handler: newTelemetryServer(reg, health)}
		// The telemetry server shares the binary's signal handling: SIGINT
		// or SIGTERM drains in-flight scrapes through http.Server.Shutdown
		// instead of resetting them. On a signal the campaign itself cannot
		// be cancelled mid-run, so once the drain completes the process
		// exits with the conventional interrupted status; on normal
		// campaign completion the deferred close triggers the same drain.
		campaignDone := make(chan struct{})
		defer close(campaignDone)
		go func() {
			err := server.ServeUntilSignal(srv, ln, server.GracefulOptions{
				DrainTimeout: *drainTO,
				Trigger:      campaignDone,
				Logf: func(format string, a ...any) {
					fmt.Fprintf(os.Stderr, "rfidsim: telemetry: "+format+"\n", a...)
				},
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "rfidsim: telemetry server:", err)
			}
			select {
			case <-campaignDone:
			default:
				os.Exit(130)
			}
		}()
		fmt.Fprintf(os.Stderr, "rfidsim: telemetry on http://%s (/metrics, /healthz, /debug/vars)\n", ln.Addr())
	}
	if *progress {
		identLat := reg.Sketch(ancrfid.SketchIdentLatencyUS)
		cfg.Progress = func(run int, m ancrfid.Metrics, err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "run %d/%d: %v\n", run+1, *runs, err)
				return
			}
			// The sketch aggregates campaign-wide and streams mid-run, so the
			// percentiles are live estimates, sharpening as runs complete.
			p50 := time.Duration(identLat.Quantile(0.50)) * time.Microsecond
			p95 := time.Duration(identLat.Quantile(0.95)) * time.Microsecond
			fmt.Fprintf(os.Stderr, "run %d/%d: %d/%d tags in %d slots (%.1f tags/s, ident p50 %v p95 %v)\n",
				run+1, *runs, m.Identified(), m.Tags, m.TotalSlots(), m.Throughput(),
				p50.Round(100*time.Microsecond), p95.Round(100*time.Microsecond))
		}
	}
	if *memprof != "" {
		// Exit-time heap profiles only show the settled end state; snapshot
		// the live heap mid-campaign too (after half the runs, while the
		// runner's arenas and any streaming-mode spill state are hot) so
		// the in-flight footprint is visible in pprof.
		mid := (*runs - 1) / 2
		midPath := *memprof + ".mid"
		prev := cfg.Progress
		cfg.Progress = func(run int, m ancrfid.Metrics, err error) {
			if prev != nil {
				prev(run, m, err)
			}
			if run != mid {
				return
			}
			f, ferr := os.Create(midPath)
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "rfidsim: midpoint heap profile:", ferr)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if ferr := pprof.WriteHeapProfile(f); ferr != nil {
				fmt.Fprintln(os.Stderr, "rfidsim: writing midpoint heap profile:", ferr)
			}
		}
	}
	switch *chanKind {
	case "abstract":
		if *punres > 0 || *pcorrupt > 0 {
			lam := lam
			cfg.NewChannel = func(r *ancrfid.RNG) ancrfid.Channel {
				return ancrfid.NewAbstractChannel(ancrfid.AbstractChannelConfig{
					Lambda:            lam,
					Capability:        capability,
					PUnresolvable:     *punres,
					PCorruptSingleton: *pcorrupt,
				}, r)
			}
		}
	case "signal":
		cfg.NewChannel = func(r *ancrfid.RNG) ancrfid.Channel {
			scfg := ancrfid.SignalChannelConfig{
				NoiseSigma:  *noise,
				PhaseJitter: *jitter,
				MaxCancel:   lam,
				Capability:  capability,
			}
			return ancrfid.NewSignalChannel(scfg, r)
		}
	default:
		return fmt.Errorf("unknown channel %q", *chanKind)
	}

	flushOutputs := func() error {
		if jsonl != nil {
			if err := jsonl.Err(); err != nil {
				return fmt.Errorf("writing trace: %w", err)
			}
		}
		if spanBuilder != nil {
			spanBuilder.Close()
			if err := spanTrace.Close(); err != nil {
				return fmt.Errorf("writing spans: %w", err)
			}
		}
		if reg != nil && *metrics != "" {
			w, err := openOut(*metrics)
			if err != nil {
				return err
			}
			if _, err := reg.WriteTo(w); err != nil {
				return fmt.Errorf("writing metrics: %w", err)
			}
		}
		return nil
	}

	if *sweepSeverity > 0 {
		return runSeveritySweep(cfg, lam, *sweepSeverity)
	}

	if fleetMode {
		topo := ancrfid.FleetTopology{
			Readers:       *readers,
			Zones:         *zones,
			Workers:       *workers,
			Horizon:       *duration,
			MigrationRate: *migrate,
		}
		if *migrate > 0 && topo.Horizon <= 0 {
			topo.Horizon = 10 * time.Second
		}
		switch *policyName {
		case "none":
			topo.Policy = ancrfid.UncoordinatedPolicy()
		case "tdma":
			topo.Policy = ancrfid.TDMAPolicy(0)
		case "lbt":
			topo.Policy = ancrfid.LBTPolicy()
		default:
			return fmt.Errorf("unknown policy %q (want none, tdma or lbt)", *policyName)
		}
		if *readerPower != "" {
			for _, field := range strings.Split(*readerPower, ",") {
				dbm, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
				if err != nil {
					return fmt.Errorf("bad -reader-power entry %q: %w", field, err)
				}
				topo.ReaderPower = append(topo.ReaderPower, dbm)
			}
		}
		if err := runFleet(p, cfg, topo, *chanKind); err != nil {
			return err
		}
		return flushOutputs()
	}

	if *arrivalRate > 0 || *departureRate > 0 || *duration > 0 {
		horizon := *duration
		if horizon <= 0 {
			horizon = 10 * time.Second
		}
		wl := ancrfid.WorkloadConfig{
			Duration:      horizon,
			ArrivalRate:   *arrivalRate,
			DepartureRate: *departureRate,
		}
		if err := runDynamic(p, cfg, wl, *chanKind); err != nil {
			return err
		}
		return flushOutputs()
	}

	res, err := ancrfid.Run(p, cfg)
	if err != nil {
		return err
	}
	if err := flushOutputs(); err != nil {
		return err
	}

	m0 := res.Runs[0]
	fmt.Printf("protocol        %s\n", res.Protocol)
	fmt.Printf("population      %d tags, %d runs, seed %d, channel %s\n", *tags, *runs, *seed, *chanKind)
	fmt.Printf("throughput      %.1f tags/s (std %.1f, min %.1f, max %.1f)\n",
		res.Throughput.Mean, res.Throughput.Std, res.Throughput.Min, res.Throughput.Max)
	fmt.Printf("slots           %.0f total = %.0f empty + %.0f singleton + %.0f collision\n",
		res.TotalSlots.Mean, res.EmptySlots.Mean, res.SingletonSlots.Mean, res.CollisionSlots.Mean)
	fmt.Printf("identification  %.0f direct + %.0f resolved from collision records\n",
		res.DirectIDs.Mean, res.ResolvedIDs.Mean)
	fmt.Printf("read time       %v (run 0)\n", m0.OnAir.Round(1e6))
	fmt.Printf("reference       ALOHA bound %.1f tags/s, ANC bound (lambda=%d) %.1f tags/s\n",
		ancrfid.AlohaBound(tm), lam, ancrfid.ANCBound(tm, lam))
	return nil
}

// runSeveritySweep prints a throughput-versus-fault-severity table for SCAT
// and FCAT from a single invocation: severity s in [0,1] over points+1 steps
// scales acknowledgement loss and burst-noise duty linearly up to their
// configured (or default) maxima. Graceful degradation shows as a monotone,
// cliff-free column.
func runSeveritySweep(cfg ancrfid.SimConfig, lam, points int) error {
	maxAck := cfg.Faults.AckLoss
	if maxAck <= 0 {
		maxAck = 0.4
	}
	maxDuty := cfg.Faults.Burst.Duty
	if maxDuty <= 0 {
		maxDuty = 0.3
	}
	scatP := ancrfid.NewSCAT(lam)
	fcatP := ancrfid.NewFCAT(lam)

	fmt.Printf("severity sweep  %d points, ack-loss 0..%.2f, burst duty 0..%.2f (%d tags, %d runs/point, seed %d)\n",
		points+1, maxAck, maxDuty, cfg.Tags, cfg.Runs, cfg.Seed)
	fmt.Printf("%-9s %-9s %-11s %-14s %-14s %-12s %-12s\n", "severity", "ack-loss", "burst-duty",
		scatP.Name()+" tags/s", fcatP.Name()+" tags/s", "scat-health", "fcat-health")
	for i := 0; i <= points; i++ {
		s := float64(i) / float64(points)
		c := cfg
		c.Metrics = nil
		c.Progress = nil
		c.Faults.AckLoss = maxAck * s
		c.Faults.Burst.Duty = maxDuty * s
		// A per-point health monitor scores each protocol's degradation: a
		// campaign that merely slows down keeps a high score, one that stalls
		// (collision slots with no progress) or fails runs loses points.
		scatHealth := ancrfid.NewHealthMonitor(ancrfid.HealthConfig{})
		c.Tracer = scatHealth
		scatRes, err := ancrfid.Run(scatP, c)
		if err != nil {
			return fmt.Errorf("severity %.2f: %w", s, err)
		}
		fcatHealth := ancrfid.NewHealthMonitor(ancrfid.HealthConfig{})
		c.Tracer = fcatHealth
		fcatRes, err := ancrfid.Run(fcatP, c)
		if err != nil {
			return fmt.Errorf("severity %.2f: %w", s, err)
		}
		fmt.Printf("%-9.2f %-9.3f %-11.3f %-14.1f %-14.1f %-12.0f %-12.0f\n",
			s, c.Faults.AckLoss, c.Faults.Burst.Duty, scatRes.Throughput.Mean, fcatRes.Throughput.Mean,
			scatHealth.Score(), fcatHealth.Score())
	}
	return nil
}

// runFleet executes the multi-reader mode: each run schedules the fleet
// topology over the discrete-event core. Runs execute sequentially so a
// failing run can still print its partial report; the per-run zone shards
// run on topo.Workers goroutines with bit-identical output for any count.
func runFleet(p ancrfid.Protocol, cfg ancrfid.SimConfig, topo ancrfid.FleetTopology, chanKind string) error {
	sp, ok := ancrfid.AsSession(p)
	if !ok {
		return fmt.Errorf("protocol %s does not support fleet mode", p.Name())
	}
	fcfg := ancrfid.FleetSimConfig{Config: cfg, Fleet: topo}

	nReaders := topo.Readers
	if nReaders <= 0 {
		nReaders = 1
	}
	nZones := topo.Zones
	if nZones <= 0 {
		nZones = nReaders
	}
	shape := "ring"
	if topo.Linear {
		shape = "line"
	}
	link := ancrfid.DefaultFleetLinkBudget()
	fmt.Printf("protocol        %s (fleet mode)\n", p.Name())
	fmt.Printf("fleet           %d readers over %d zones (%s), policy %s, link %.0f dBm tx / %.0f dB adjacent loss\n",
		nReaders, nZones, shape, topo.Policy.Name(), link.TxPowerDBm, link.AdjacentLossDB)
	if topo.MigrationRate > 0 || topo.Horizon > 0 {
		fmt.Printf("workload        migration hazard %.2f/s, horizon %v\n", topo.MigrationRate, topo.Horizon)
	}
	fmt.Printf("population      %d tags per reader, %d runs, seed %d, channel %s\n",
		cfg.Tags, cfg.Runs, cfg.Seed, chanKind)

	var (
		reports  []ancrfid.FleetReport
		firstErr error
	)
	for i := 0; i < cfg.Runs; i++ {
		rep, err := ancrfid.RunFleetOnce(sp, fcfg, i)
		reports = append(reports, rep)
		if err != nil {
			fmt.Printf("run %d FAILED after %v: %v\n", i, rep.Duration.Round(time.Millisecond), err)
			firstErr = fmt.Errorf("%s fleet run %d: %w", p.Name(), i, err)
			break
		}
	}
	if len(reports) == 0 {
		return firstErr
	}

	n := float64(len(reports))
	fmt.Printf("%-7s %-5s %-10s %-11s %-8s %-8s %-11s %s\n",
		"reader", "zone", "power", "identified", "steps", "blocked", "interfered", "air (run means)")
	for r := 0; r < nReaders; r++ {
		var idf, steps, blocked, interf, air float64
		var zone int
		var power float64
		for i := range reports {
			if r >= len(reports[i].Readers) {
				continue
			}
			rr := &reports[i].Readers[r]
			zone, power = rr.Zone, rr.PowerDBm
			idf += float64(rr.Metrics.Identified())
			steps += float64(rr.Steps)
			blocked += float64(rr.Blocked)
			interf += float64(rr.Interfered)
			air += rr.OnAir.Seconds()
		}
		fmt.Printf("%-7d %-5d %-10s %-11.1f %-8.1f %-8.1f %-11.1f %v\n",
			r, zone, fmt.Sprintf("%.1f dBm", power), idf/n, steps/n, blocked/n, interf/n,
			time.Duration(air/n*float64(time.Second)).Round(time.Millisecond))
	}

	var adm, idf, missed, active, mig, col, blk, dur, tp float64
	dups, phantoms, unaccounted := 0, 0, 0
	for i := range reports {
		rep := &reports[i]
		adm += float64(rep.Admitted)
		idf += float64(rep.Identified)
		missed += float64(rep.DepartedUnread)
		active += float64(rep.ActiveUnread)
		mig += float64(rep.Migrations)
		col += float64(rep.ReaderCollisions)
		blk += float64(rep.BlockedSlots)
		dur += rep.Duration.Seconds()
		if rep.Duration > 0 {
			tp += float64(rep.Identified) / rep.Duration.Seconds()
		}
		dups += rep.DupIdents
		phantoms += rep.Phantoms
		if !rep.Accounted() {
			unaccounted++
		}
	}
	fmt.Printf("accounting      admitted %.1f = identified %.1f + missed %.1f + still-active %.1f (run means)\n",
		adm/n, idf/n, missed/n, active/n)
	fmt.Printf("coordination    %.1f migrations, %.1f reader-collision slots, %.1f policy-blocked slots (run means)\n",
		mig/n, col/n, blk/n)
	fmt.Printf("invariants      phantom IDs %d, duplicate identifications %d, accounting violations %d (totals over %d runs)\n",
		phantoms, dups, unaccounted, len(reports))
	fmt.Printf("throughput      %.1f tags/s fleet-wide over %v mean wall clock\n",
		tp/n, time.Duration(dur/n*float64(time.Second)).Round(time.Millisecond))
	if firstErr == nil && (phantoms > 0 || dups > 0 || unaccounted > 0) {
		firstErr = fmt.Errorf("%s fleet campaign violated inventory invariants", p.Name())
	}
	return firstErr
}

// runDynamic executes the continuous-inventory mode: each run drives a
// protocol session under the dynamic workload, injecting the -fault-*
// faults when any are set. Runs execute sequentially so a failing run
// (e.g. ErrNoProgress) can still print its partial report instead of
// discarding the metrics; every run's invariant audit is summarized.
func runDynamic(p ancrfid.Protocol, cfg ancrfid.SimConfig, wl ancrfid.WorkloadConfig, chanKind string) error {
	sp, ok := ancrfid.AsSession(p)
	if !ok {
		return fmt.Errorf("protocol %s does not support continuous inventory", p.Name())
	}
	dcfg := ancrfid.DynamicSimConfig{Config: cfg, Workload: wl}

	fmt.Printf("protocol        %s (continuous inventory)\n", p.Name())
	fmt.Printf("workload        arrivals %.1f/s, departure hazard %.2f/s, horizon %v\n",
		wl.ArrivalRate, wl.DepartureRate, wl.Duration)
	fmt.Printf("population      %d initial tags, %d runs, seed %d, channel %s\n",
		cfg.Tags, cfg.Runs, cfg.Seed, chanKind)
	if f := cfg.Faults; f.Enabled() {
		fmt.Printf("faults          ack-loss %.2f, burst duty %.2f, mute %.2f, stuck %.2f, corrupt %.2f, crash every %d slots\n",
			f.AckLoss, f.Burst.Duty, f.MuteProb, f.StuckProb, f.CorruptDecode, f.CrashEvery)
	}

	var (
		reports  []ancrfid.DynamicReport
		firstErr error
	)
	for i := 0; i < cfg.Runs; i++ {
		rep, err := ancrfid.RunDynamicOnce(sp, dcfg, i)
		if cfg.Progress != nil {
			cfg.Progress(i, rep.Metrics, err)
		}
		reports = append(reports, rep)
		if err != nil {
			// Print the partial report alongside the error rather than
			// discarding the run's accounting.
			fmt.Printf("run %d FAILED after %v: %v\n", i, rep.Duration.Round(time.Millisecond), err)
			firstErr = fmt.Errorf("%s dynamic run %d: %w", p.Name(), i, err)
			break
		}
	}

	if len(reports) == 0 {
		return firstErr
	}
	var adm, idf, missed, active, tp, crashes, cps, faults, quar, stalls, score float64
	phantoms, dups, unaccounted := 0, 0, 0
	var lat []time.Duration
	for i := range reports {
		rep := &reports[i]
		adm += float64(rep.Admitted)
		idf += float64(rep.Identified)
		missed += float64(rep.DepartedUnread)
		active += float64(rep.ActiveUnread)
		if rep.Duration > 0 {
			tp += float64(rep.Identified) / rep.Duration.Seconds()
		}
		crashes += float64(rep.Crashes)
		cps += float64(rep.Checkpoints)
		faults += float64(rep.FaultsInjected)
		quar += float64(rep.Quarantined)
		stalls += float64(rep.Stalls)
		score += rep.HealthScore
		phantoms += rep.Phantoms
		dups += rep.DupIdents
		if !rep.Accounted() {
			unaccounted++
		}
		lat = append(lat, rep.Latencies()...)
	}
	n := float64(len(reports))
	fmt.Printf("accounting      admitted %.1f = identified %.1f + missed %.1f + still-active %.1f (run means)\n",
		adm/n, idf/n, missed/n, active/n)
	fmt.Printf("recovery        crashes %.1f, checkpoints %.1f, faults injected %.1f, records quarantined %.1f (run means)\n",
		crashes/n, cps/n, faults/n, quar/n)
	fmt.Printf("health          score %.1f/100, stall episodes %.1f (run means)\n", score/n, stalls/n)
	fmt.Printf("invariants      phantom IDs %d, duplicate identifications %d, accounting violations %d (totals over %d runs)\n",
		phantoms, dups, unaccounted, len(reports))
	fmt.Printf("throughput      %.1f tags/s identified\n", tp/n)
	if len(lat) > 0 {
		fmt.Printf("latency         p50 %v, p90 %v, p99 %v (arrival to identification)\n",
			ancrfid.LatencyPercentile(lat, 50).Round(time.Millisecond),
			ancrfid.LatencyPercentile(lat, 90).Round(time.Millisecond),
			ancrfid.LatencyPercentile(lat, 99).Round(time.Millisecond))
	}
	if firstErr == nil && (phantoms > 0 || dups > 0 || unaccounted > 0) {
		firstErr = fmt.Errorf("%s dynamic campaign violated inventory invariants", p.Name())
	}
	return firstErr
}

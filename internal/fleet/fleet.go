// Package fleet is the multi-reader layer of the simulator: a
// deterministic discrete-event scheduler hosting N readers as event-driven
// entities wrapping the protocol.Session state machine, with overlapping
// interrogation zones, reader-to-reader interference, pluggable
// coordination policies (Colorwave-style TDMA, listen-before-talk) and tag
// populations migrating between zones.
//
// The paper evaluates one reader over one field; the deployments it
// motivates (warehouses, dock-door portals) run many. This package answers
// the question the single-reader tables cannot: how much of the ANC
// throughput gain survives when adjacent readers jam each other, and how
// much coordination buys back.
//
// # Determinism
//
// Execution advances in scheduling windows one slot-quantum long. Within a
// window every zone drains its own event queue independently — zone state
// is strictly zone-local, and cross-zone facts (interference horizons,
// migrations) are read from snapshots committed at the previous window
// barrier. Between windows a sequential barrier commits, in ascending zone
// order, each zone's transmission spill and staged migrations. The result:
// a fleet run is bit-identical — Report, trace stream, registry dump — for
// any Workers value, and a single-reader single-zone fleet is byte-for-byte
// the plain sim.RunOnce run. See docs/fleet.md for the full contract.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/fault"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
	"github.com/ancrfid/ancrfid/internal/workload"
)

// ErrMigrationNeedsHorizon is returned by Run when MigrationRate is set
// without a Horizon: a migrating population has no batch termination
// condition, so continuous-inventory mode is required.
var ErrMigrationNeedsHorizon = errors.New("fleet: MigrationRate requires a Horizon")

// Config describes one fleet run: the reader/zone topology, the
// coordination policy, the RF link budget, the migration workload, and the
// per-run environment knobs shared with the single-reader harness.
type Config struct {
	// Readers is the number of readers N (default 1). Reader i serves zone
	// i mod Zones; zones with several readers are assumed sectorised
	// (directional antennas), so only adjacent-zone interference is
	// modelled.
	Readers int
	// Zones is the number of interrogation zones M (default Readers).
	// Zones are arranged on a ring unless Linear is set.
	Zones int
	// Tags is the initial population size per reader, drawn from the
	// reader's own generator exactly as sim.RunOnce draws its population.
	Tags int
	// Policy coordinates the readers (default Uncoordinated).
	Policy Policy
	// Horizon, when positive, runs the fleet in continuous-inventory mode:
	// every reader keeps stepping (monitoring included) until its wall
	// clock passes the horizon. Zero runs each reader to its batch
	// termination (static populations only).
	Horizon time.Duration
	// MigrationRate is the per-tag exponential hazard (1/s) of hopping to
	// the next zone. An unidentified tag departing zone z is admitted into
	// zone (z+1) mod Zones (or exits the fleet from the last zone when
	// Linear); an identified tag exits the fleet at its hop. Requires
	// Horizon > 0.
	MigrationRate float64
	// Linear arranges the zones on a line instead of a ring: the first and
	// last zones are not adjacent, and tags migrating out of the last zone
	// leave the fleet.
	Linear bool
	// Workers bounds the number of zone shards executed concurrently
	// within a scheduling window. Any value produces bit-identical output;
	// 0 or 1 runs the zones sequentially on the calling goroutine.
	Workers int
	// Link is the reader-to-reader interference budget (zero value: see
	// DefaultLinkBudget).
	Link LinkBudget
	// ReaderPower optionally overrides the transmit power (dBm) per reader
	// index; missing or zero entries fall back to Link.TxPowerDBm.
	ReaderPower []float64

	// Seed, Lambda, Timing, TxModel, MaxSlots, PAckLoss, NewChannel and
	// Faults mirror sim.Config; each reader derives its generator, channel
	// and fault injector from (Seed, run, reader index), with reader 0's
	// derivation identical to the single-reader harness's.
	Seed       uint64
	Lambda     int
	Timing     air.Timing
	TxModel    protocol.TxModel
	MaxSlots   int
	PAckLoss   float64
	NewChannel func(r *rng.Source) channel.Channel
	// Faults is the fleet-wide fault shape; ReaderFaults overrides it for
	// individual readers (key: reader index), letting chaos experiments
	// degrade one portal of a fleet.
	Faults       fault.Config
	ReaderFaults map[int]fault.Config

	// Tracer receives the fleet's full event stream: each reader's
	// RunStart..RunEnd stream is buffered during execution and replayed in
	// reader-index order when the run finishes, so trace output is
	// bit-identical for any worker count.
	Tracer obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Readers <= 0 {
		c.Readers = 1
	}
	if c.Zones <= 0 {
		c.Zones = c.Readers
	}
	if c.Policy == nil {
		c.Policy = Uncoordinated{}
	}
	if c.Lambda <= 0 {
		c.Lambda = 2
	}
	if c.Timing == (air.Timing{}) {
		c.Timing = air.ICode()
	}
	if c.TxModel == 0 {
		c.TxModel = protocol.TxBinomial
	}
	c.Link = c.Link.withDefaults()
	return c
}

func (c Config) newChannel(r *rng.Source) channel.Channel {
	if c.NewChannel != nil {
		return c.NewChannel(r)
	}
	return channel.NewAbstract(channel.AbstractConfig{Lambda: c.Lambda}, r)
}

// readerFaults returns the fault shape of one reader.
func (c Config) readerFaults(i int) fault.Config {
	if fc, ok := c.ReaderFaults[i]; ok {
		return fc
	}
	return c.Faults
}

// TagLifecycle is one tag's journey through the fleet: the single-reader
// lifecycle record plus where the tag is and how many zones it crossed.
type TagLifecycle struct {
	workload.TagRecord
	// Zone is the tag's current (or final) zone.
	Zone int
	// Hops is the number of inter-zone migrations the tag made.
	Hops int
}

// ReaderReport summarises one reader of the fleet.
type ReaderReport struct {
	Reader int
	Zone   int
	// PowerDBm is the reader's transmit power.
	PowerDBm float64
	// Metrics are the reader's protocol metrics at cutoff.
	Metrics protocol.Metrics
	// Steps counts granted protocol steps; Blocked counts policy denials;
	// Interfered counts slots spoiled by adjacent-zone transmissions.
	Steps      int
	Blocked    int
	Interfered int
	// OnAir is the reader's accumulated air time; Wall is its fleet
	// wall-clock finish time (>= OnAir when the policy deferred slots).
	OnAir time.Duration
	Wall  time.Duration
}

// Report aggregates one fleet run. The population accounting is total and
// fleet-wide: Admitted == Identified + DepartedUnread + ActiveUnread, with
// every tag counted exactly once however many zones it crossed.
type Report struct {
	Protocol string
	Policy   string
	Readers  []ReaderReport
	// Tags holds one lifecycle per admitted tag, in admission order
	// (reader 0's initial population first).
	Tags []TagLifecycle

	Admitted       int
	Identified     int
	DepartedUnread int
	ActiveUnread   int
	// Migrations counts inter-zone hops; ReaderCollisions counts slots
	// spoiled by reader-to-reader interference; BlockedSlots counts policy
	// denials.
	Migrations       int
	ReaderCollisions int
	BlockedSlots     int
	// DupIdents counts tags reported identified by more than one reader
	// (zero unless zones overlap); Phantoms counts identifications of IDs
	// never admitted (possible only under decode-corrupting faults).
	DupIdents int
	Phantoms  int
	// Duration is the fleet wall-clock time consumed (max over readers).
	Duration time.Duration
}

// Accounted reports whether the fleet-wide population accounting is total.
func (r *Report) Accounted() bool {
	return r.Admitted == r.Identified+r.DepartedUnread+r.ActiveUnread
}

// reader is one event-driven reader entity.
type reader struct {
	index, zone int
	powerDBm    float64
	pop         []tagid.ID
	session     protocol.Session
	env         *protocol.Env
	gate        *rfGate
	fch         *fault.Channel
	buf         *obs.Buffer
	pending     []tagid.ID // identifications reported by the last step

	wall       time.Duration // fleet wall-clock time of the last step's end
	steps      int
	blocked    int
	interfered int
	finished   bool
	err        error
}

// migration is one staged inter-zone hop, committed at the window barrier.
type migration struct {
	tag int
	id  tagid.ID
	to  int
	at  time.Duration
}

// zoneState is the strictly zone-local scheduler state: during a window a
// zone touches nothing outside it except immutable snapshots.
type zoneState struct {
	idx     int
	q       eventQueue
	readers []*reader
	rr      int         // round-robin cursor for migrated-tag admission
	wl      *rng.Source // migration dwell draws
	// adjBusy is the interference horizon: the end of the latest
	// interfering adjacent-zone transmission committed before this window.
	// Written only at the barrier.
	adjBusy time.Duration
	// txEnd is the zone's own transmission high-water mark; read by
	// neighbours only at the barrier.
	txEnd time.Duration
	// interferes reports whether this zone's readers are strong enough to
	// spoil a neighbour's slots (precomputed from the link budget).
	interferes bool

	staged     []migration
	migrations int
	dups       int
	phantoms   int
	err        error
}

// fleetRun is the in-flight state of one fleet run.
type fleetRun struct {
	cfg     Config
	proto   protocol.SessionProtocol
	run     int
	quantum time.Duration
	colors  int

	readers []*reader
	zones   []*zoneState
	tags    []TagLifecycle
	index   map[tagid.ID]int
	owner   []*reader // owner[t] serves tag t's current zone; nil in a dead zone
}

const (
	// runGolden matches sim.runRNG's SplitMix increment, so reader 0's
	// generator is the single-reader harness's run generator.
	runGolden = 0x9e3779b97f4a7c15
	// readerSalt separates reader streams (reader 0's salt is zero).
	readerSalt = 0xbf58476d1ce4e5b9
	// zoneSalt separates the per-zone migration streams from every reader
	// stream, so enabling migration never shifts a reader's draws.
	zoneSalt = 0x94d049bb133111eb
)

// readerRNG derives reader i's generator for (seed, run). Reader 0's
// derivation is exactly sim.runRNG(seed, run).
func readerRNG(seed uint64, run, reader int) *rng.Source {
	return rng.New((seed ^ uint64(reader)*readerSalt) ^ (uint64(run)+1)*runGolden)
}

// zoneRNG derives zone z's migration-schedule generator for (seed, run).
func zoneRNG(seed uint64, run, zone int) *rng.Source {
	return rng.New((seed ^ zoneSalt ^ uint64(zone)*readerSalt) ^ (uint64(run)+1)*runGolden)
}

// Run executes one fleet run of p with the deterministic generators
// derived from (cfg.Seed, run). On error the partially accumulated Report
// is still returned, like workload.Run.
func Run(p protocol.SessionProtocol, cfg Config, run int) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.MigrationRate > 0 && cfg.Horizon <= 0 {
		return Report{}, ErrMigrationNeedsHorizon
	}

	f := &fleetRun{
		cfg:     cfg,
		proto:   p,
		run:     run,
		quantum: cfg.Timing.Slot(),
		colors:  defaultColors(cfg.Zones),
		index:   make(map[tagid.ID]int, cfg.Readers*cfg.Tags),
	}
	f.setup()
	f.seedSchedule()

	runErr := f.loop()
	rep := f.finalize(runErr)
	if cfg.Tracer != nil {
		for _, rd := range f.readers {
			rd.buf.Replay(cfg.Tracer)
		}
	}
	return rep, runErr
}

// setup builds the zones and readers. Reader construction order (ascending
// index) fixes every generator's draw sequence; reader 0's environment is
// constructed exactly as sim.RunOnce constructs its run environment.
func (f *fleetRun) setup() {
	cfg := f.cfg
	f.zones = make([]*zoneState, cfg.Zones)
	for z := range f.zones {
		f.zones[z] = &zoneState{idx: z}
		if cfg.MigrationRate > 0 {
			f.zones[z].wl = zoneRNG(cfg.Seed, f.run, z)
		}
	}

	f.readers = make([]*reader, cfg.Readers)
	for i := range f.readers {
		z := i % cfg.Zones
		rd := &reader{index: i, zone: z, powerDBm: cfg.Link.TxPowerDBm}
		if i < len(cfg.ReaderPower) && cfg.ReaderPower[i] != 0 {
			rd.powerDBm = cfg.ReaderPower[i]
		}

		r := readerRNG(cfg.Seed, f.run, i)
		rd.pop = tagid.Population(r, cfg.Tags)
		ch := cfg.newChannel(r)
		env := &protocol.Env{
			RNG:      r,
			Tags:     rd.pop,
			Channel:  ch,
			Timing:   cfg.Timing,
			TxModel:  cfg.TxModel,
			MaxSlots: cfg.MaxSlots,
			PAckLoss: cfg.PAckLoss,
		}
		if env.MaxSlots == 0 && cfg.Horizon > 0 {
			// The batch budget does not scale with the horizon; budget like
			// the workload driver does.
			env.MaxSlots = int(4*cfg.Horizon/cfg.Timing.Slot()) + 10000
		}
		if cfg.Tracer != nil {
			rd.buf = &obs.Buffer{}
			env.Tracer = rd.buf
		}
		if fc := cfg.readerFaults(i); fc.Enabled() {
			inj := fault.New(fc, cfg.Seed^uint64(i)*readerSalt, f.run)
			fch := fault.WrapChannel(ch, inj)
			fch.Tracer = env.Tracer
			fch.AdmitAll(rd.pop)
			env.Channel = fch
			env.Faults = inj
			rd.fch = fch
		}
		if cfg.Zones > 1 {
			rd.gate = &rfGate{inner: env.Channel}
			env.Channel = rd.gate
		}
		env.OnIdentified = func(id tagid.ID, viaResolution bool) {
			rd.pending = append(rd.pending, id)
		}
		rd.env = env
		rd.session = f.proto.Begin(env)
		f.readers[i] = rd
		f.zones[z].readers = append(f.zones[z].readers, rd)

		for _, id := range rd.pop {
			f.index[id] = len(f.tags)
			f.tags = append(f.tags, TagLifecycle{TagRecord: workload.TagRecord{ID: id}, Zone: z})
			f.owner = append(f.owner, rd)
		}
	}

	// Precompute which zones can spoil a neighbour's slots: a zone
	// interferes when its strongest reader clears the budget's threshold.
	for _, z := range f.zones {
		for _, rd := range z.readers {
			if f.cfg.Link.Interferes(rd.powerDBm) {
				z.interferes = true
				break
			}
		}
	}
}

// seedSchedule enqueues the initial events: one step per reader at t=0 and,
// when migration is on, every initial tag's first hop (drawn from the
// zone's schedule generator in (zone, reader, tag) order).
func (f *fleetRun) seedSchedule() {
	for _, rd := range f.readers {
		f.zones[rd.zone].q.push(event{at: 0, kind: evStep, reader: rd.index})
	}
	if f.cfg.MigrationRate <= 0 {
		return
	}
	for _, z := range f.zones {
		for _, rd := range z.readers {
			for _, id := range rd.pop {
				due := workload.Exp(z.wl, f.cfg.MigrationRate)
				if due <= f.cfg.Horizon {
					z.q.push(event{at: due, kind: evDepart, tag: f.index[id], id: id})
				}
			}
		}
	}
}

// loop runs scheduling windows until every queue drains or a reader fails.
func (f *fleetRun) loop() error {
	for {
		minAt := time.Duration(-1)
		for _, z := range f.zones {
			if ev, ok := z.q.peek(); ok && (minAt < 0 || ev.at < minAt) {
				minAt = ev.at
			}
		}
		if minAt < 0 {
			return nil
		}
		ws := (minAt / f.quantum) * f.quantum
		we := ws + f.quantum

		f.runWindow(ws, we)

		if err := f.commit(); err != nil {
			return err
		}
	}
}

// runWindow drains every zone's events due before we — in parallel across
// zone shards when Workers allows. Zones are mutually independent within a
// window (they read only barrier-committed snapshots), so the shard
// assignment cannot influence the outcome.
func (f *fleetRun) runWindow(ws, we time.Duration) {
	workers := f.cfg.Workers
	if workers > len(f.zones) {
		workers = len(f.zones)
	}
	if workers <= 1 || len(f.zones) <= 1 {
		for _, z := range f.zones {
			f.drainZone(z, we)
		}
		return
	}
	var (
		next int32
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt32(&next, 1)) - 1
				if i >= len(f.zones) {
					return
				}
				f.drainZone(f.zones[i], we)
			}
		}()
	}
	wg.Wait()
}

// drainZone processes one zone's events due before we, in (at, seq) order.
func (f *fleetRun) drainZone(z *zoneState, we time.Duration) {
	for z.err == nil {
		ev, ok := z.q.peek()
		if !ok || ev.at >= we {
			return
		}
		z.q.pop()
		switch ev.kind {
		case evStep:
			f.stepReader(z, f.readers[ev.reader], ev.at)
		case evDepart:
			f.depart(z, ev)
		case evArrive:
			f.arrive(z, ev)
		}
	}
}

// stepReader asks the policy for a grant and, if granted, executes one
// protocol step of rd starting at fleet wall time t. The slot is spoiled
// when an interfering adjacent-zone transmission committed at an earlier
// barrier covers t — the later-starting slot is always the victim.
func (f *fleetRun) stepReader(z *zoneState, rd *reader, t time.Duration) {
	ctx := GrantContext{
		Zone:              z.idx,
		Zones:             f.cfg.Zones,
		AdjacentBusyUntil: z.adjBusy,
		Quantum:           f.quantum,
		Colors:            f.colors,
	}
	ok, retry := f.cfg.Policy.Grant(ctx, t)
	if !ok {
		rd.blocked++
		f.traceFleet(rd, obs.FleetSlotBlocked, z.idx, -1, tagid.ID{}, t)
		if retry <= t {
			retry = t + f.quantum // defensive: a policy must move time forward
		}
		if f.cfg.Horizon > 0 && retry >= f.cfg.Horizon {
			f.finishReader(rd, nil)
			return
		}
		z.q.push(event{at: retry, kind: evStep, reader: rd.index})
		return
	}

	interfered := t < z.adjBusy
	if rd.gate != nil {
		rd.gate.interfered = interfered
	}
	if interfered {
		rd.interfered++
		f.traceFleet(rd, obs.FleetSlotInterfered, z.idx, -1, tagid.ID{}, t)
	}
	before := rd.session.Elapsed()
	done, err := rd.session.Step()
	if rd.gate != nil {
		rd.gate.interfered = false
	}
	dur := rd.session.Elapsed() - before
	if dur <= 0 {
		dur = time.Nanosecond // defensive: every step consumes air time
	}
	end := t + dur
	rd.wall = end
	rd.steps++
	if end > z.txEnd {
		z.txEnd = end
	}
	f.stampIdents(z, rd)

	if err != nil {
		z.err = fmt.Errorf("fleet reader %d (zone %d, wall %v): %w", rd.index, z.idx, end, err)
		f.finishReader(rd, err)
		return
	}
	if f.cfg.Horizon > 0 {
		if end >= f.cfg.Horizon {
			f.finishReader(rd, nil)
			return
		}
	} else if done {
		f.finishReader(rd, nil)
		return
	}
	z.q.push(event{at: end, kind: evStep, reader: rd.index})
}

// stampIdents folds the identifications the last step reported into the
// fleet's tag table. Only the owning zone's reader can identify a tag, so
// these writes never race across zone shards.
func (f *fleetRun) stampIdents(z *zoneState, rd *reader) {
	for _, id := range rd.pending {
		seq, ok := f.index[id]
		if !ok {
			z.phantoms++ // a decode-corrupting fault invented this ID
			continue
		}
		rec := &f.tags[seq]
		if rec.Identified {
			z.dups++
			continue
		}
		rec.Identified = true
		rec.IdentifiedAt = rd.wall
	}
	rd.pending = rd.pending[:0]
}

// depart handles a tag's scheduled hop out of its current zone: identified
// tags and tags leaving the end of a line exit the fleet; unidentified
// tags stage a migration, committed into the next zone at the barrier.
func (f *fleetRun) depart(z *zoneState, ev event) {
	rec := &f.tags[ev.tag]
	rd := f.owner[ev.tag]
	if rd != nil {
		rd.session.Revoke([]tagid.ID{ev.id})
		if rd.fch != nil {
			rd.fch.Revoke(ev.id)
		}
	}
	exits := rec.Identified || (f.cfg.Linear && z.idx == f.cfg.Zones-1)
	if exits {
		rec.Departed = true
		rec.DepartedAt = ev.at
		if rd != nil && rd.env.Tracer != nil {
			rd.env.Emit(obs.Event{Kind: obs.TagDeparture, ID: ev.id, At: rd.env.Now(), Flag: rec.Identified})
		}
		return
	}
	dest := (z.idx + 1) % f.cfg.Zones
	f.traceFleet(rd, obs.FleetMigration, dest, z.idx, ev.id, ev.at)
	z.staged = append(z.staged, migration{tag: ev.tag, id: ev.id, to: dest, at: ev.at})
	z.migrations++
}

// arrive admits a migrated tag into its destination zone, assigns it a
// serving reader round-robin, and draws its next hop from the zone's
// schedule generator.
func (f *fleetRun) arrive(z *zoneState, ev event) {
	rec := &f.tags[ev.tag]
	rec.Zone = z.idx
	rec.Hops++
	var rd *reader
	if len(z.readers) > 0 {
		rd = z.readers[z.rr%len(z.readers)]
		z.rr++
	}
	f.owner[ev.tag] = rd
	if rd != nil {
		rd.session.Admit([]tagid.ID{ev.id})
		if rd.fch != nil {
			rd.fch.Admit(ev.id)
		}
		if rd.env.Tracer != nil {
			rd.env.Emit(obs.Event{Kind: obs.TagArrival, ID: ev.id, At: rd.env.Now(),
				N1: rd.session.Outstanding()})
		}
	}
	due := ev.at + workload.Exp(z.wl, f.cfg.MigrationRate)
	if due <= f.cfg.Horizon {
		z.q.push(event{at: due, kind: evDepart, tag: ev.tag, id: ev.id})
	}
}

// commit is the window barrier: sequentially, in ascending zone order, it
// recomputes every zone's interference horizon from the committed
// transmission high-water marks and delivers staged migrations into their
// destination queues. It returns the lowest-zone error of the window.
func (f *fleetRun) commit() error {
	for _, z := range f.zones {
		z.adjBusy = 0
		for _, n := range f.neighbors(z.idx) {
			nz := f.zones[n]
			if nz.interferes && nz.txEnd > z.adjBusy {
				z.adjBusy = nz.txEnd
			}
		}
	}
	for _, z := range f.zones {
		for _, m := range z.staged {
			f.zones[m.to].q.push(event{at: m.at, kind: evArrive, tag: m.tag, id: m.id, from: z.idx})
		}
		z.staged = z.staged[:0]
	}
	for _, z := range f.zones {
		if z.err != nil {
			return z.err
		}
	}
	return nil
}

// neighbors returns the zones adjacent to z (ring or line).
func (f *fleetRun) neighbors(z int) []int {
	m := f.cfg.Zones
	if m <= 1 {
		return nil
	}
	if f.cfg.Linear {
		switch z {
		case 0:
			return []int{1}
		case m - 1:
			return []int{m - 2}
		default:
			return []int{z - 1, z + 1}
		}
	}
	if m == 2 {
		return []int{1 - z}
	}
	return []int{(z + m - 1) % m, (z + 1) % m}
}

// finishReader closes a reader's stream exactly once, emitting the run-end
// trace event the single-reader driver would.
func (f *fleetRun) finishReader(rd *reader, err error) {
	if rd.finished {
		return
	}
	rd.finished = true
	rd.err = err
	rd.env.TraceRunEnd(f.proto.Name(), rd.session.Metrics(), err)
}

// traceFleet emits a fleet-scheduler event into rd's stream.
func (f *fleetRun) traceFleet(rd *reader, kind obs.FleetKind, zone, from int, id tagid.ID, at time.Duration) {
	if rd == nil || rd.env.Tracer == nil {
		return
	}
	rd.env.Tracer.Emit(obs.Event{
		Kind: obs.FleetActivity, N1: rd.index, N2: zone, N3: from, Sub: uint8(kind), ID: id, At: at,
	})
}

// finalize assembles the Report.
func (f *fleetRun) finalize(runErr error) Report {
	rep := Report{
		Protocol: f.proto.Name(),
		Policy:   f.cfg.Policy.Name(),
		Readers:  make([]ReaderReport, 0, len(f.readers)),
		Tags:     f.tags,
	}
	for _, rd := range f.readers {
		if !rd.finished && runErr == nil {
			// Defensive: a drained schedule should have finished everyone.
			f.finishReader(rd, nil)
		}
		rep.Readers = append(rep.Readers, ReaderReport{
			Reader:     rd.index,
			Zone:       rd.zone,
			PowerDBm:   rd.powerDBm,
			Metrics:    rd.session.Metrics(),
			Steps:      rd.steps,
			Blocked:    rd.blocked,
			Interfered: rd.interfered,
			OnAir:      rd.session.Elapsed(),
			Wall:       rd.wall,
		})
		rep.BlockedSlots += rd.blocked
		rep.ReaderCollisions += rd.interfered
		if rd.wall > rep.Duration {
			rep.Duration = rd.wall
		}
	}
	for _, z := range f.zones {
		rep.Migrations += z.migrations
		rep.DupIdents += z.dups
		rep.Phantoms += z.phantoms
	}
	rep.Admitted = len(f.tags)
	for i := range f.tags {
		t := &f.tags[i]
		switch {
		case t.Identified:
			rep.Identified++
		case t.Departed:
			rep.DepartedUnread++
		default:
			rep.ActiveUnread++
		}
	}
	return rep
}

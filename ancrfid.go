// Package ancrfid is a library for collision-aware RFID tag identification
// with analog network coding (ANC), reproducing "Using Analog Network
// Coding to Improve the RFID Reading Throughput" (Zhang, Li, Chen, Li —
// ICDCS 2010).
//
// The package exposes:
//
//   - The paper's protocols: FCAT (framed collision-aware identification,
//     the main contribution) and SCAT (its per-slot precursor).
//   - The baselines the paper evaluates against: DFSA, EDFSA (ALOHA
//     family) and ABS, AQS (tree family), plus CRDSA — the satellite-network
//     collision-resolution scheme the paper discusses in Section III-C.
//   - A Monte-Carlo simulation harness with the paper's Philips I-Code
//     timing model, and both of the paper's channel models: the slot-level
//     abstract model (collisions of multiplicity <= lambda are resolvable)
//     and a full physical-layer model in which collision records are
//     resolved by actually cancelling MSK waveforms and checking CRCs.
//   - The paper's closed-form analysis: optimal report-probability
//     constants, expected slot counts, estimator bias and variance, and
//     throughput bounds.
//
// Quick start:
//
//	result, err := ancrfid.Run(ancrfid.NewFCAT(2), ancrfid.SimConfig{
//		Tags: 1000,
//		Runs: 20,
//		Seed: 1,
//	})
//	fmt.Printf("%.1f tags/s\n", result.Throughput.Mean)
//
// The experiments that regenerate every table and figure of the paper live
// behind the cmd/tables binary and the benchmarks in bench_test.go; see
// EXPERIMENTS.md for the measured-versus-paper comparison.
package ancrfid

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/analysis"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/crdsa"
	"github.com/ancrfid/ancrfid/internal/dfsa"
	"github.com/ancrfid/ancrfid/internal/edfsa"
	"github.com/ancrfid/ancrfid/internal/fault"
	"github.com/ancrfid/ancrfid/internal/fcat"
	"github.com/ancrfid/ancrfid/internal/fleet"
	"github.com/ancrfid/ancrfid/internal/mdfsa"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/praloha"
	"github.com/ancrfid/ancrfid/internal/prestep"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/registry"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/scat"
	"github.com/ancrfid/ancrfid/internal/server"
	"github.com/ancrfid/ancrfid/internal/sim"
	"github.com/ancrfid/ancrfid/internal/tagid"
	"github.com/ancrfid/ancrfid/internal/treeproto"
	"github.com/ancrfid/ancrfid/internal/workload"
)

// Core protocol and simulation types, re-exported for public use.
type (
	// Protocol is a complete tag-identification protocol.
	Protocol = protocol.Protocol
	// Metrics are the observable outcomes of one protocol run.
	Metrics = protocol.Metrics
	// Env is the environment a single protocol run executes in.
	Env = protocol.Env
	// SimConfig describes a Monte-Carlo campaign. Setting Workers > 1 runs
	// the campaign's repetitions on a worker pool; results, traces and
	// metrics are bit-identical to sequential (see docs/parallelism.md).
	SimConfig = sim.Config
	// SimResult aggregates a campaign.
	SimResult = sim.Result
	// Timing is the air-interface timing model.
	Timing = air.Timing
	// TagID is a 96-bit tag identifier with embedded CRC-16.
	TagID = tagid.ID
	// RNG is the deterministic random source used throughout.
	RNG = rng.Source
	// Channel models the report segment of a slot.
	Channel = channel.Channel
	// AbstractChannelConfig parameterises the paper's slot-level channel.
	AbstractChannelConfig = channel.AbstractConfig
	// SignalChannelConfig parameterises the physical-layer channel.
	SignalChannelConfig = channel.SignalConfig
	// ChannelCapability is the unified decode-capability model shared by
	// both channels: maximum resolvable collision order, capture-effect
	// SINR threshold and the per-tag link budget behind it. The zero value
	// is the degenerate capability (legacy Lambda semantics, no capture).
	ChannelCapability = channel.Capability
	// LinkBudget derives per-tag receive power from a deterministic
	// hash-placed distance draw (see docs/decoding.md).
	LinkBudget = tagid.LinkBudget
	// FCATConfig parameterises FCAT beyond its lambda.
	FCATConfig = fcat.Config
	// SCATConfig parameterises SCAT beyond its lambda.
	SCATConfig = scat.Config
	// PreEstimateConfig tunes SCAT's pre-estimation phase (the paper's
	// reference [24] scheme implemented in this module).
	PreEstimateConfig = prestep.Config
)

// Observability types, re-exported from the obs subsystem. A Tracer set on
// Env.Tracer (single run) or SimConfig.Tracer (whole campaign) receives the
// run's typed event stream; a Registry set on SimConfig.Metrics aggregates
// campaign-wide counters and histograms. See docs/observability.md.
type (
	// Tracer receives the typed event stream of a protocol run.
	Tracer = obs.Tracer
	// TracerFunc adapts a plain func(TraceEvent) into a Tracer.
	TracerFunc = obs.Func
	// TraceEvent is one entry of the event stream: a kind, a simulated-time
	// stamp and a small fixed payload (see obs.EventKind for the fields
	// each kind sets).
	TraceEvent = obs.Event
	// Registry is a concurrency-safe metrics registry of counters and
	// histograms.
	Registry = obs.Registry

	// AckKind distinguishes direct, resolved-index and resolved-ID acks.
	AckKind = obs.AckKind
)

// Event kinds of the trace stream (the Kind of a TraceEvent).
const (
	TraceRunStart          = obs.RunStart
	TraceRunEnd            = obs.RunEnd
	TraceFrameStart        = obs.FrameStart
	TraceAdvertisement     = obs.Advertisement
	TraceSlotDone          = obs.SlotDone
	TraceTagIdentified     = obs.TagIdentified
	TraceAckSent           = obs.AckSent
	TraceRecordCreated     = obs.RecordCreated
	TraceCascadeStep       = obs.CascadeStep
	TraceRecordResolved    = obs.RecordResolved
	TraceEstimatorUpdate   = obs.EstimatorUpdate
	TraceTagArrival        = obs.TagArrival
	TraceTagDeparture      = obs.TagDeparture
	TraceSessionCheckpoint = obs.SessionCheckpoint
	TraceFaultInjected     = obs.FaultInjected
	TraceRecordQuarantined = obs.RecordQuarantined
	TraceReaderRestart     = obs.ReaderRestart
	TraceFleetActivity     = obs.FleetActivity
)

// Acknowledgement kinds carried in the Sub field of a TraceAckSent event.
const (
	// AckDirect acknowledges a singleton-slot read.
	AckDirect = obs.AckDirect
	// AckResolvedIndex acknowledges an ANC-resolved ID by slot index
	// (FCAT's 23-bit ack).
	AckResolvedIndex = obs.AckResolvedIndex
	// AckResolvedID acknowledges an ANC-resolved ID in full (SCAT).
	AckResolvedID = obs.AckResolvedID
)

// TraceSchemaVersion is the version stamped on every JSONL trace line.
const TraceSchemaVersion = obs.SchemaVersion

// MultiTracer fans events out to several tracers in order (nils skipped).
func MultiTracer(tracers ...Tracer) Tracer { return obs.Multi(tracers...) }

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewMetricsTracer returns a Tracer that folds events into reg.
func NewMetricsTracer(reg *Registry) Tracer { return obs.NewMetricsTracer(reg) }

// NewJSONLTracer returns a Tracer that writes one JSON object per event to
// w (the trace format behind rfidsim -trace); check Err when done.
func NewJSONLTracer(w io.Writer) *obs.JSONL { return obs.NewJSONL(w) }

// NewTimelineTracer returns a Tracer that renders a human-readable slot
// timeline to w (the format behind rfidsim -timeline).
func NewTimelineTracer(w io.Writer) *obs.Timeline { return obs.NewTimeline(w) }

// Telemetry-plane types, re-exported from the obs subsystem: hierarchical
// spans over simulated time, streaming quantile sketches, health scoring and
// the Prometheus exposition (see docs/observability.md).
type (
	// Span is one node of the hierarchical trace (campaign > run > frame >
	// slot > decode activity).
	Span = obs.Span
	// SpanKind classifies a span.
	SpanKind = obs.SpanKind
	// SpanSink consumes a span stream.
	SpanSink = obs.SpanSink
	// SpanSinkFunc adapts a function to a SpanSink.
	SpanSinkFunc = obs.SpanSinkFunc
	// SpanBuilder is a Tracer folding the event stream into spans.
	SpanBuilder = obs.SpanBuilder
	// ChromeTrace is a SpanSink writing Chrome trace-event JSON (Perfetto).
	ChromeTrace = obs.ChromeTrace
	// Sketch is a streaming log-bucket quantile sketch.
	Sketch = obs.Sketch
	// HealthMonitor is a Tracer scoring system health from the event stream.
	HealthMonitor = obs.HealthMonitor
	// HealthConfig tunes the health monitor's detectors.
	HealthConfig = obs.HealthConfig
	// HealthEvent is one typed health-state transition.
	HealthEvent = obs.HealthEvent
	// HealthKind classifies a health transition.
	HealthKind = obs.HealthKind
	// HealthSnapshot is a point-in-time health view (the /healthz payload).
	HealthSnapshot = obs.HealthSnapshot
)

// Span kinds emitted by SpanBuilder.
const (
	SpanCampaign   = obs.SpanCampaign
	SpanRun        = obs.SpanRun
	SpanFrame      = obs.SpanFrame
	SpanSlot       = obs.SpanSlot
	SpanResolution = obs.SpanResolution
	SpanAdvert     = obs.SpanAdvert
	SpanIdentify   = obs.SpanIdentify
	SpanAck        = obs.SpanAck
	SpanRecord     = obs.SpanRecord
	SpanCascade    = obs.SpanCascade
	SpanResolve    = obs.SpanResolve
	SpanEstimate   = obs.SpanEstimate
	SpanArrival    = obs.SpanArrival
	SpanDeparture  = obs.SpanDeparture
	SpanCheckpoint = obs.SpanCheckpoint
	SpanFault      = obs.SpanFault
	SpanQuarantine = obs.SpanQuarantine
	SpanRestart    = obs.SpanRestart
)

// Health transition kinds carried by HealthEvent.
const (
	HealthStall           = obs.HealthStall
	HealthRecovered       = obs.HealthRecovered
	HealthQuarantineSurge = obs.HealthQuarantineSurge
	HealthRunFailed       = obs.HealthRunFailed
)

// Sketch names registered by the metrics tracer (see docs/observability.md).
const (
	// SketchIdentLatencyUS holds identification latency in microseconds of
	// simulated time.
	SketchIdentLatencyUS = obs.SketchIdentLatencyUS
	// SketchCascadeDepth holds the cascade depth of record resolutions.
	SketchCascadeDepth = obs.SketchCascadeDepth
)

// NewSpanBuilder returns a Tracer that folds the event stream into
// hierarchical spans emitted to sink; call Close after the campaign.
func NewSpanBuilder(sink SpanSink) *SpanBuilder { return obs.NewSpanBuilder(sink) }

// NewChromeTrace returns a SpanSink writing the Chrome trace-event JSON
// format to w (loadable in Perfetto); call Close when done. The format
// behind rfidsim -spans.
func NewChromeTrace(w io.Writer) *ChromeTrace { return obs.NewChromeTrace(w) }

// NewHealthMonitor returns a Tracer that scores health from the event
// stream (zero config fields take defaults).
func NewHealthMonitor(cfg HealthConfig) *HealthMonitor { return obs.NewHealthMonitor(cfg) }

// WritePrometheus writes reg in the Prometheus text exposition format (the
// payload behind rfidsim -serve's /metrics endpoint).
func WritePrometheus(w io.Writer, reg *Registry) (int64, error) {
	return obs.WritePrometheus(w, reg)
}

// ErrNoProgress is returned when a run exhausts its slot budget before
// identifying every tag — a livelocked read (e.g. a channel too noisy for
// any decode to succeed).
var ErrNoProgress = protocol.ErrNoProgress

// Transmission models for the probabilistic protocols.
const (
	// TxHash evaluates the real per-tag report hash each slot.
	TxHash = protocol.TxHash
	// TxBinomial draws transmitter counts binomially (fast, equivalent).
	TxBinomial = protocol.TxBinomial
)

// FCAT population estimators (see FCATConfig.Estimator).
const (
	// EstimatorExact solves the paper's Eq. 12 self-consistently (default).
	EstimatorExact = fcat.EstimatorExact
	// EstimatorClosedForm is the paper's one-shot approximation of Eq. 12.
	EstimatorClosedForm = fcat.EstimatorClosedForm
	// EstimatorEmpty estimates from empty slots (rejected by the paper for
	// its higher variance; kept for ablations).
	EstimatorEmpty = fcat.EstimatorEmpty
)

// NewFCAT returns the framed collision-aware tag identification protocol
// tuned for an ANC decoder that resolves collisions of multiplicity up to
// lambda (paper, Section V). Use NewFCATWith for non-default knobs.
func NewFCAT(lambda int) Protocol { return fcat.New(fcat.Config{Lambda: lambda}) }

// NewFCATWith returns an FCAT instance with explicit configuration.
func NewFCATWith(cfg FCATConfig) Protocol { return fcat.New(cfg) }

// NewSCAT returns the slotted collision-aware tag identification protocol
// (paper, Section IV).
func NewSCAT(lambda int) Protocol { return scat.New(scat.Config{Lambda: lambda}) }

// NewSCATWith returns a SCAT instance with explicit configuration.
func NewSCATWith(cfg SCATConfig) Protocol { return scat.New(cfg) }

// NewDFSA returns the dynamic framed slotted ALOHA baseline.
func NewDFSA() Protocol { return dfsa.New(dfsa.Config{}) }

// NewEDFSA returns the enhanced dynamic framed slotted ALOHA baseline.
func NewEDFSA() Protocol { return edfsa.New(edfsa.Config{}) }

// NewABS returns the adaptive binary splitting (tree) baseline.
func NewABS() Protocol { return treeproto.NewABS() }

// NewCRDSA returns Contention Resolution Diversity Slotted ALOHA, the
// satellite-network collision-resolution scheme the paper discusses in
// Section III-C: two replicas per tag per frame, resolved by iterative
// interference cancellation. The channel's ANC capability (lambda) bounds
// the cancellation depth; use a large lambda to emulate the classic
// full-packet scheme.
func NewCRDSA() Protocol { return crdsa.New(crdsa.Config{}) }

// CRDSAConfig parameterises CRDSA.
type CRDSAConfig = crdsa.Config

// NewCRDSAWith returns a CRDSA instance with explicit configuration.
func NewCRDSAWith(cfg CRDSAConfig) Protocol { return crdsa.New(cfg) }

// MDFSAConfig parameterises MDFSA.
type MDFSAConfig = mdfsa.Config

// NewMDFSA returns multi-packet-reception DFSA: the framed-ALOHA baseline
// upgraded with the ANC record store and the MPR-optimal frame-size rule
// L = backlog/mu*_M for a decode stack that resolves collisions up to
// order m. Pair it with a channel whose Lambda (or Capability.MaxOrder)
// equals m.
func NewMDFSA(m int) Protocol { return mdfsa.New(mdfsa.Config{M: m}) }

// NewMDFSAWith returns an MDFSA instance with explicit configuration.
func NewMDFSAWith(cfg MDFSAConfig) Protocol { return mdfsa.New(cfg) }

// PRALOHAConfig parameterises pseudo-random ALOHA.
type PRALOHAConfig = praloha.Config

// NewPRALOHA returns pseudo-random framed ALOHA (Ricciato & Castiglione):
// tags derive slot choices by hashing identity with the frame counter, so
// the reader can replay the schedule of every tag it knows; frames are
// sized by the MPR rule from the exactly-known outstanding count.
func NewPRALOHA(m int) Protocol { return praloha.New(praloha.Config{M: m}) }

// NewPRALOHAWith returns a PRALOHA instance with explicit configuration.
func NewPRALOHAWith(cfg PRALOHAConfig) Protocol { return praloha.New(cfg) }

// NewAQS returns the adaptive query splitting (tree) baseline as a plain
// protocol (each Run is an independent round).
func NewAQS() Protocol { return treeproto.NewAQS() }

// AQSReader is the stateful AQS reader: RunRound retains the query tree
// between rounds, so periodic re-reads of an unchanged population skip the
// collision-resolution work — AQS's adaptive feature.
type AQSReader = treeproto.AQS

// NewAQSReader returns a stateful AQS reader for periodic inventory
// rounds.
func NewAQSReader() *AQSReader { return treeproto.NewAQS() }

// ByName builds a protocol from its table name: "FCAT-2", "SCAT-3",
// "DFSA", "EDFSA", "MDFSA-3", "PRALOHA-2", "ABS", "AQS", "CRDSA"
// (case-insensitive; the numeric suffix is the decode capability and
// defaults to 2).
func ByName(name string) (Protocol, error) {
	p, err := registry.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("ancrfid: %w", err)
	}
	return p, nil
}

// Run executes a Monte-Carlo campaign of the protocol.
func Run(p Protocol, cfg SimConfig) (SimResult, error) { return sim.Run(p, cfg) }

// RunOnce executes a single deterministic run of the campaign.
func RunOnce(p Protocol, cfg SimConfig, run int) (Metrics, error) {
	return sim.RunOnce(p, cfg, run)
}

// Resumable sessions and continuous-inventory workloads. Every protocol in
// the module implements SessionProtocol: Begin opens a stepwise execution
// whose population can change between steps (Admit/Revoke) and which can
// be checkpointed and resumed (Snapshot/Restore). Driving a fresh session
// to completion is bit-identical to Run — the differential suite proves
// it. See docs/architecture.md.
type (
	// Session is a resumable protocol execution.
	Session = protocol.Session
	// SessionProtocol is a Protocol that can open sessions.
	SessionProtocol = protocol.SessionProtocol
	// SessionCheckpoint is an opaque deep copy of a session's state.
	SessionCheckpoint = protocol.Checkpoint
	// WorkloadConfig is a dynamic-population schedule: Poisson or burst
	// arrivals, fixed or exponential dwell.
	WorkloadConfig = workload.Config
	// TagRecord is the lifecycle of one tag through a dynamic run.
	TagRecord = workload.TagRecord
	// DynamicSimConfig describes a dynamic-population Monte-Carlo campaign,
	// optionally fault-injected through its embedded SimConfig.Faults.
	DynamicSimConfig = sim.DynamicConfig
	// DynamicReport is the audited outcome of one dynamic run, with per-tag
	// lifecycle records, total population accounting and fault tallies.
	DynamicReport = sim.DynamicReport
	// DynamicSimResult aggregates a dynamic campaign.
	DynamicSimResult = sim.DynamicResult
)

// ErrCheckpointMismatch is returned by Session.Restore when the checkpoint
// came from a different protocol.
var ErrCheckpointMismatch = protocol.ErrCheckpointMismatch

// AsSession reports whether p supports stepwise execution and returns it
// as a SessionProtocol. All protocols built by this package do.
func AsSession(p Protocol) (SessionProtocol, bool) {
	sp, ok := p.(SessionProtocol)
	return sp, ok
}

// RunDynamic executes a dynamic-population Monte-Carlo campaign: each run
// drives a session of p under cfg.Workload's arrival/departure schedule,
// injecting cfg.Faults (crash-restart recovery included) when set, and
// audits it against the inventory invariants (no duplicate
// identifications, no phantom IDs, exact population accounting).
// Workers > 1 parallelises with the same ordered-merge determinism as Run.
func RunDynamic(p SessionProtocol, cfg DynamicSimConfig) (DynamicSimResult, error) {
	return sim.RunDynamic(p, cfg)
}

// RunDynamicOnce executes a single deterministic dynamic run.
func RunDynamicOnce(p SessionProtocol, cfg DynamicSimConfig, run int) (DynamicReport, error) {
	return sim.RunDynamicOnce(p, cfg, run)
}

// ConveyorWorkload is a single-item belt: tags arrive at rate tags/s and
// stay in the field for dwell.
func ConveyorWorkload(rate float64, dwell, duration time.Duration) WorkloadConfig {
	return workload.Conveyor(rate, dwell, duration)
}

// PortalWorkload is a dock-door scenario: pallets of burst tags at
// epochRate pallets/s, each tag dwelling an exponential time with the
// given mean.
func PortalWorkload(burst int, epochRate float64, meanDwell, duration time.Duration) WorkloadConfig {
	return workload.Portal(burst, epochRate, meanDwell, duration)
}

// LatencyPercentile returns the nearest-rank p-th percentile of the given
// identification latencies.
func LatencyPercentile(lat []time.Duration, p float64) time.Duration {
	return workload.Percentile(lat, p)
}

// Multi-reader fleet simulation. A fleet hosts N readers over M
// interrogation zones on a deterministic discrete-event scheduler:
// adjacent-zone readers interfere per a dBm link budget, coordination
// policies (Colorwave-style TDMA, listen-before-talk) arbitrate the air,
// and tag populations migrate between zones. Fleet runs are bit-identical
// for any worker count, and a one-reader one-zone fleet reproduces the
// single-reader run exactly. See docs/fleet.md.
type (
	// FleetTopology describes one fleet: reader/zone counts, policy, link
	// budget, migration workload and per-reader overrides.
	FleetTopology = fleet.Config
	// FleetReport is the outcome of one fleet run, with per-reader and
	// per-tag records and fleet-wide population accounting.
	FleetReport = fleet.Report
	// FleetReaderReport summarises one reader of a fleet run.
	FleetReaderReport = fleet.ReaderReport
	// FleetTagLifecycle is one tag's journey through the fleet.
	FleetTagLifecycle = fleet.TagLifecycle
	// FleetLinkBudget is the dBm arithmetic of reader-to-reader
	// interference.
	FleetLinkBudget = fleet.LinkBudget
	// FleetPolicy arbitrates when a reader may open a slot.
	FleetPolicy = fleet.Policy
	// FleetGrantContext is what a policy sees when deciding a grant.
	FleetGrantContext = fleet.GrantContext
	// FleetSimConfig describes a multi-reader Monte-Carlo campaign.
	FleetSimConfig = sim.FleetConfig
	// FleetSimResult aggregates a fleet campaign.
	FleetSimResult = sim.FleetResult
)

// ErrFleetMigrationNeedsHorizon is returned when a migrating fleet has no
// time horizon to run against.
var ErrFleetMigrationNeedsHorizon = fleet.ErrMigrationNeedsHorizon

// UncoordinatedPolicy is the baseline fleet policy: every reader transmits
// whenever it has work.
func UncoordinatedPolicy() FleetPolicy { return fleet.Uncoordinated{} }

// TDMAPolicy is Colorwave-style time-division coordination; colors 0 uses
// the fleet's default colour count (the zone ring's chromatic number).
func TDMAPolicy(colors int) FleetPolicy { return fleet.TDMA{Colors: colors} }

// LBTPolicy is listen-before-talk: a reader defers while an interfering
// adjacent-zone carrier covers its slot start.
func LBTPolicy() FleetPolicy { return fleet.LBT{} }

// DefaultFleetLinkBudget returns the warehouse-portal link budget: 30 dBm
// readers, 40 dB adjacent-zone loss, a -90 dBm noise floor and a 10 dB
// interference margin.
func DefaultFleetLinkBudget() FleetLinkBudget { return fleet.DefaultLinkBudget() }

// RunFleet executes a multi-reader Monte-Carlo campaign: each run
// schedules cfg.Fleet's topology over the discrete-event core. Workers > 1
// parallelises across runs with the same ordered-merge determinism as Run;
// cfg.Fleet.Workers additionally parallelises the zone shards inside each
// run.
func RunFleet(p SessionProtocol, cfg FleetSimConfig) (FleetSimResult, error) {
	return sim.RunFleet(p, cfg)
}

// RunFleetOnce executes a single deterministic fleet run.
func RunFleetOnce(p SessionProtocol, cfg FleetSimConfig, run int) (FleetReport, error) {
	return sim.RunFleetOnce(p, cfg, run)
}

// NewRNG returns a deterministic random source.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// Population generates n distinct random tag IDs.
func Population(r *RNG, n int) []TagID { return tagid.Population(r, n) }

// TagIDFromParts builds a structured EPC-style ID from its vendor/manager
// (28 bits), product class (16 bits) and serial (36 bits) fields; read
// them back with TagID.Manager, TagID.Class and TagID.Serial.
func TagIDFromParts(manager uint32, class uint16, serial uint64) TagID {
	return tagid.FromParts(manager, class, serial)
}

// ICodeTiming returns the Philips I-Code air-interface timing the paper's
// evaluation uses (53 kbit/s, 96-bit IDs, ~2.8 ms slots).
func ICodeTiming() Timing { return air.ICode() }

// Gen2Timing returns an ISO 18000-6C / EPC Gen2-style timing model
// (128 kbit/s); the protocol ranking is rate-invariant, only faster.
func Gen2Timing() Timing { return air.Gen2() }

// NewAbstractChannel returns the paper's slot-level channel model.
func NewAbstractChannel(cfg AbstractChannelConfig, r *RNG) Channel {
	return channel.NewAbstract(cfg, r)
}

// NewSignalChannel returns the physical-layer channel model: MSK waveforms,
// AWGN, and genuine interference-cancellation collision resolution.
func NewSignalChannel(cfg SignalChannelConfig, r *RNG) Channel {
	return channel.NewSignal(cfg, r)
}

// Deterministic fault injection and chaos testing. FaultConfig (set on
// SimConfig.Faults, or DynamicSimConfig.Faults via the embedded SimConfig)
// enables seed-split fault injection: Gilbert-Elliott burst
// noise, acknowledgement loss, tag mute/stuck-responder failures, decode
// corruption and reader crash-restart. Every fault decision is a pure
// function of (Seed, run index), independent of how many random draws the
// protocol makes, so faulty campaigns are exactly as reproducible as clean
// ones. The zero FaultConfig is a guaranteed no-op: results and traces are
// bit-identical to a build without the fault layer. See docs/robustness.md.
type (
	// FaultConfig selects the fault shapes of a run (zero value = none).
	FaultConfig = fault.Config
	// FaultBurstConfig parameterises Gilbert-Elliott burst noise.
	FaultBurstConfig = fault.Burst
	// FaultKind labels an injected fault (the Sub field of a
	// TraceFaultInjected event).
	FaultKind = obs.FaultKind
)

// Fault kinds carried in the Sub field of a TraceFaultInjected event.
const (
	// FaultBurst marks a slot spoiled by Gilbert-Elliott burst noise.
	FaultBurst = obs.FaultBurst
	// FaultAckLoss marks a dropped reader acknowledgement.
	FaultAckLoss = obs.FaultAckLoss
	// FaultMute marks a muted tag's suppressed transmission.
	FaultMute = obs.FaultMute
	// FaultStuck marks a stuck responder transmitting out of protocol.
	FaultStuck = obs.FaultStuck
	// FaultCorruptSingleton marks a singleton read corrupted into a
	// collision-like observation.
	FaultCorruptSingleton = obs.FaultCorruptSingleton
	// FaultCorruptDecode marks a collision decode yielding a bit-flipped ID
	// (caught by the store's CRC quarantine).
	FaultCorruptDecode = obs.FaultCorruptDecode
	// FaultCrash marks a reader crash.
	FaultCrash = obs.FaultCrash
)

// OptimalOmega returns (lambda!)^(1/lambda), the report-probability
// constant that maximises useful slots for an ANC decoder of capability
// lambda: 1.414, 1.817, 2.213 for lambda = 2, 3, 4 (paper, Section IV-C).
func OptimalOmega(lambda int) float64 { return analysis.OptimalOmega(lambda) }

// AlohaBound returns 1/(e*T), the throughput bound of ALOHA protocols
// without collision resolution, for the given slot duration.
func AlohaBound(t Timing) float64 { return analysis.AlohaBound(t.Slot().Seconds()) }

// ANCBound returns the collision-aware throughput bound for an ANC decoder
// of capability lambda at the given slot duration.
func ANCBound(t Timing, lambda int) float64 {
	return analysis.ANCBound(t.Slot().Seconds(), lambda)
}

// Fault-tolerant inventory session server (the runtime behind
// cmd/rfidserver): thousands of concurrent protocol sessions behind an
// HTTP API, with durable replay checkpoints, crash recovery that
// quarantines damaged files instead of dying, bounded-queue backpressure,
// per-client rate limits, supervised panic isolation and graceful drain.
// See docs/server.md.
type (
	// ServerConfig tunes an inventory session server.
	ServerConfig = server.Config
	// Server hosts concurrent inventory sessions; mount Handler on an
	// http.Server and stop with Drain.
	Server = server.Server
	// ServerSpec is the deterministic creation recipe of a hosted session.
	ServerSpec = server.Spec
	// DiskFaultConfig injects deterministic checkpoint-write faults
	// (chaos drills).
	DiskFaultConfig = fault.DiskConfig
	// GracefulOptions tunes ServeUntilSignal.
	GracefulOptions = server.GracefulOptions
)

// NewServer opens the checkpoint store, recovers every surviving session
// by deterministic replay, and starts the shard workers.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// ServeUntilSignal serves srv on ln until SIGINT/SIGTERM, then drains
// gracefully — the shared shutdown path of cmd/rfidserver and
// rfidsim -serve.
func ServeUntilSignal(srv *http.Server, ln net.Listener, opts GracefulOptions) error {
	return server.ServeUntilSignal(srv, ln, opts)
}

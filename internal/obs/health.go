package obs

import "sync"

// HealthKind classifies a health-state transition detected by HealthMonitor.
type HealthKind uint8

const (
	// HealthStall fires when the reader has spent StallSlots consecutive
	// non-empty slots without identifying a single new tag — the protocol is
	// burning air time on collisions (or corrupted reports) and making no
	// progress. One event opens each stall episode; the next identification
	// closes it silently.
	HealthStall HealthKind = iota + 1
	// HealthRecovered fires when an identification ends a stall episode.
	HealthRecovered
	// HealthQuarantineSurge fires when the record store's quarantine rate
	// (quarantined / created) first exceeds QuarantineRateMax with at least
	// QuarantineMinRecords records observed.
	HealthQuarantineSurge
	// HealthRunFailed fires when a run ends with an error.
	HealthRunFailed
)

// String returns the health-kind name.
func (k HealthKind) String() string {
	switch k {
	case HealthStall:
		return "stall"
	case HealthRecovered:
		return "recovered"
	case HealthQuarantineSurge:
		return "quarantine-surge"
	case HealthRunFailed:
		return "run-failed"
	default:
		return "unknown"
	}
}

// HealthEvent is one typed health-state transition.
type HealthEvent struct {
	Kind HealthKind
	// Run is the 0-based run index the transition occurred in.
	Run int
	// Slot is the slot sequence number at the transition (-1 outside slots).
	Slot int
	// Score is the health score after the transition.
	Score float64
}

// HealthConfig tunes the monitor's detectors; zero values select defaults.
type HealthConfig struct {
	// StallSlots is the number of consecutive non-empty slots without a new
	// identification that opens a stall episode. Empty slots do not count —
	// an idle reader facing no tags is not stalled. Default 200.
	StallSlots int
	// EWMAAlpha is the smoothing factor of the rolling per-slot throughput
	// EWMA (identifications per slot). Default 0.05.
	EWMAAlpha float64
	// QuarantineRateMax is the quarantined/created record ratio above which
	// the store is considered poisoned. Default 0.25.
	QuarantineRateMax float64
	// QuarantineMinRecords gates the rate detector until enough records have
	// been observed. Default 20.
	QuarantineMinRecords int
}

func (c *HealthConfig) defaults() {
	if c.StallSlots <= 0 {
		c.StallSlots = 200
	}
	if c.EWMAAlpha <= 0 {
		c.EWMAAlpha = 0.05
	}
	if c.QuarantineRateMax <= 0 {
		c.QuarantineRateMax = 0.25
	}
	if c.QuarantineMinRecords <= 0 {
		c.QuarantineMinRecords = 20
	}
}

// HealthSnapshot is a point-in-time view of the monitor, serialisable as the
// /healthz payload.
type HealthSnapshot struct {
	// Score is the current health score in [0, 100]; 100 is perfectly
	// healthy.
	Score float64 `json:"score"`
	// Healthy is Score above 50 with no stall episode currently open.
	Healthy bool `json:"healthy"`
	// Stalled reports an open stall episode.
	Stalled bool `json:"stalled"`
	// Stalls counts stall episodes opened so far.
	Stalls int `json:"stalls"`
	// Throughput is the rolling identifications-per-slot EWMA.
	Throughput float64 `json:"throughput"`
	// QuarantineRate is quarantined/created records (0 with no records).
	QuarantineRate float64 `json:"quarantine_rate"`
	// RunsFailed counts runs that ended with an error.
	RunsFailed int `json:"runs_failed"`
	// Slots counts slots observed across all runs.
	Slots int64 `json:"slots"`
	// Identified counts identifications across all runs.
	Identified int64 `json:"identified"`
}

// HealthMonitor is a Tracer that scores the traced system's health from the
// event stream: a rolling throughput EWMA, a stall detector (non-empty slots
// without progress), a quarantine-rate detector and a run-failure count fold
// into a 0-100 score. Transitions surface as typed HealthEvents through the
// OnEvent callback (invoked inline, in event order); the current state is
// available at any time via Snapshot, which sim.RunChaos folds into its
// reports and rfidsim serves at /healthz.
//
// All state is behind a mutex, so a monitor may be shared across the
// concurrent runs of a parallel campaign; scores are then campaign-global.
type HealthMonitor struct {
	// OnEvent, when non-nil, receives every health transition. Set it before
	// the monitor sees events.
	OnEvent func(HealthEvent)

	cfg HealthConfig

	mu          sync.Mutex
	run         int // current run index (count of RunStarts - 1)
	slots       int64
	identified  int64
	ewma        float64
	barren      int // consecutive non-empty slots without identification
	sinceSlotID int // identifications since last SlotDone
	stalled     bool
	stalls      int
	recCreated  int64
	recQuar     int64
	quarSurged  bool
	runsFailed  int
	lastSlot    int
}

// NewHealthMonitor returns a monitor with the given configuration (zero
// fields take defaults).
func NewHealthMonitor(cfg HealthConfig) *HealthMonitor {
	cfg.defaults()
	return &HealthMonitor{cfg: cfg, run: -1, lastSlot: -1}
}

// scoreLocked computes the health score from current state (mu held).
func (m *HealthMonitor) scoreLocked() float64 {
	score := 100.0
	if m.stalled {
		score -= 40
	}
	// Repeat stall episodes beyond the first shave 5 points each, up to 20.
	if extra := m.stalls - 1; extra > 0 {
		p := float64(extra) * 5
		if p > 20 {
			p = 20
		}
		score -= p
	}
	if m.quarSurged {
		score -= 20
	}
	if m.runsFailed > 0 {
		p := float64(m.runsFailed) * 25
		if p > 50 {
			p = 50
		}
		score -= p
	}
	if score < 0 {
		score = 0
	}
	return score
}

func (m *HealthMonitor) emit(kind HealthKind, slot int) {
	if m.OnEvent == nil {
		return
	}
	ev := HealthEvent{Kind: kind, Run: m.run, Slot: slot, Score: m.scoreLocked()}
	m.OnEvent(ev)
}

// Snapshot returns the current health state.
func (m *HealthMonitor) Snapshot() HealthSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := HealthSnapshot{
		Score:      m.scoreLocked(),
		Stalled:    m.stalled,
		Stalls:     m.stalls,
		Throughput: m.ewma,
		RunsFailed: m.runsFailed,
		Slots:      m.slots,
		Identified: m.identified,
	}
	if m.recCreated > 0 {
		s.QuarantineRate = float64(m.recQuar) / float64(m.recCreated)
	}
	s.Healthy = s.Score > 50 && !s.Stalled
	return s
}

// Score returns the current health score in [0, 100].
func (m *HealthMonitor) Score() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.scoreLocked()
}

// Stalls returns the number of stall episodes opened so far.
func (m *HealthMonitor) Stalls() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stalls
}

// Emit implements Tracer: the throughput EWMA and the stall detector
// advance per slot; run, identification and record events feed the
// counters they depend on. Other kinds return without taking the lock.
func (m *HealthMonitor) Emit(ev Event) {
	switch ev.Kind {
	case RunStart, RunEnd, SlotDone, TagIdentified, RecordCreated, RecordQuarantined:
	default:
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch ev.Kind {
	case RunStart:
		m.run++
		// A stall episode does not survive a run boundary.
		m.stalled = false
		m.barren = 0
		m.sinceSlotID = 0
		m.lastSlot = -1
	case RunEnd:
		if ev.Err != "" {
			m.runsFailed++
			m.emit(HealthRunFailed, m.lastSlot)
		}
		m.stalled = false
		m.barren = 0
		m.sinceSlotID = 0
	case SlotDone:
		m.slotDone(ev.Seq, ev.N1)
	case TagIdentified:
		m.identified++
		m.sinceSlotID++
	case RecordCreated:
		m.recCreated++
	case RecordQuarantined:
		m.recQuar++
		if m.quarSurged {
			return
		}
		if m.recCreated >= int64(m.cfg.QuarantineMinRecords) &&
			float64(m.recQuar) > m.cfg.QuarantineRateMax*float64(m.recCreated) {
			m.quarSurged = true
			m.emit(HealthQuarantineSurge, m.lastSlot)
		}
	}
}

// slotDone advances the EWMA and the stall detector by one slot (mu held).
func (m *HealthMonitor) slotDone(seq, transmitters int) {
	m.slots++
	m.lastSlot = seq
	ids := m.sinceSlotID
	m.sinceSlotID = 0
	m.ewma += m.cfg.EWMAAlpha * (float64(ids) - m.ewma)
	if ids > 0 {
		m.barren = 0
		if m.stalled {
			m.stalled = false
			m.emit(HealthRecovered, seq)
		}
		return
	}
	if transmitters == 0 {
		// Idle air is not a stall: nothing was there to identify.
		return
	}
	m.barren++
	if m.barren == m.cfg.StallSlots && !m.stalled {
		m.stalled = true
		m.stalls++
		m.emit(HealthStall, seq)
	}
}

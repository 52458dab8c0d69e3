package main

import (
	"sync"
	"time"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// chanStats accumulates the time one run spends in the channel layer. Each
// run owns its stats (a run executes on one goroutine), so the fields are
// plain; chanTotals.collect sums them once the campaign has returned.
type chanStats struct {
	observeNS, decodeNS, subtractNS int64
	observeN, decodeN, decodeOK     int64
	subtractN                       int64
}

func (s *chanStats) channelNS() int64 { return s.observeNS + s.decodeNS + s.subtractNS }

func (s *chanStats) add(o *chanStats) {
	s.observeNS += o.observeNS
	s.decodeNS += o.decodeNS
	s.subtractNS += o.subtractNS
	s.observeN += o.observeN
	s.decodeN += o.decodeN
	s.decodeOK += o.decodeOK
	s.subtractN += o.subtractN
}

// timedChannel decorates a channel.Channel with wall-clock timing of
// Observe and of every Subtract and Decode on the recordings it hands out.
// It forwards the optional channel interfaces (Stateful, Releaser) and the
// recording ones (Cloner, Residual) so that protocols take exactly the
// paths they take on the bare channel: the decorator changes no draw and no
// decision.
type timedChannel struct {
	inner channel.Channel
	st    *chanStats
}

var (
	_ channel.Stateful = (*timedChannel)(nil)
	_ channel.Releaser = (*timedChannel)(nil)
	_ channel.Cloner   = (*timedMixed)(nil)
	_ channel.Residual = (*timedMixed)(nil)
)

func (c *timedChannel) Observe(tx []tagid.ID) channel.Observation {
	t0 := time.Now()
	ob := c.inner.Observe(tx)
	c.st.observeNS += int64(time.Since(t0))
	c.st.observeN++
	if ob.Mix != nil {
		ob.Mix = &timedMixed{inner: ob.Mix, st: c.st}
	}
	return ob
}

// SnapshotState forwards to the inner channel; a stateless inner channel
// has nothing to capture.
func (c *timedChannel) SnapshotState() any {
	if s, ok := c.inner.(channel.Stateful); ok {
		return s.SnapshotState()
	}
	return nil
}

func (c *timedChannel) RestoreState(state any) {
	if s, ok := c.inner.(channel.Stateful); ok {
		s.RestoreState(state)
	}
}

// ReleaseMixed unwraps the recording before handing it back, since the
// inner channel only recognises its own recordings.
func (c *timedChannel) ReleaseMixed(m channel.Mixed) {
	rel, ok := c.inner.(channel.Releaser)
	if !ok {
		return
	}
	if tm, ok := m.(*timedMixed); ok {
		m = tm.inner
	}
	rel.ReleaseMixed(m)
}

// timedMixed times Subtract and Decode on one recording.
type timedMixed struct {
	inner channel.Mixed
	st    *chanStats
}

func (m *timedMixed) Contains(id tagid.ID) bool { return m.inner.Contains(id) }

func (m *timedMixed) Subtract(id tagid.ID) {
	t0 := time.Now()
	m.inner.Subtract(id)
	m.st.subtractNS += int64(time.Since(t0))
	m.st.subtractN++
}

func (m *timedMixed) Decode() (tagid.ID, bool) {
	t0 := time.Now()
	id, ok := m.inner.Decode()
	m.st.decodeNS += int64(time.Since(t0))
	m.st.decodeN++
	if ok {
		m.st.decodeOK++
	}
	return id, ok
}

func (m *timedMixed) Multiplicity() int { return m.inner.Multiplicity() }

// Remaining forwards channel.Residual; both in-tree channels implement it.
func (m *timedMixed) Remaining() int {
	n, _ := channel.Remaining(m.inner)
	return n
}

// CloneMixed keeps the nil contract of channel.Cloner: an uncloneable inner
// recording yields nil.
func (m *timedMixed) CloneMixed() channel.Mixed {
	c, ok := channel.CloneMixed(m.inner)
	if !ok {
		return nil
	}
	return &timedMixed{inner: c, st: m.st}
}

// chanTotals gathers the per-run channel stats and the start of every
// run, for a campaign whose runs may execute concurrently.
type chanTotals struct {
	mu    sync.Mutex
	runs  []*runProbe
	stats chanStats
}

// runProbe is one run's decorator state: the stats it accumulates and when
// its channel was built, which is the first thing a run does after drawing
// its population.
type runProbe struct {
	st    chanStats
	start time.Time
}

// newChannel wraps build in the timing decorator, registering one probe per
// run. It has the shape of sim.Config.NewChannel.
func (t *chanTotals) newChannel(build func(*rng.Source) channel.Channel) func(*rng.Source) channel.Channel {
	return func(r *rng.Source) channel.Channel {
		ch := build(r)
		p := &runProbe{start: time.Now()}
		t.mu.Lock()
		t.runs = append(t.runs, p)
		t.mu.Unlock()
		return &timedChannel{inner: ch, st: &p.st}
	}
}

// collect folds every probe into the totals and returns the sum of run
// start times relative to origin, in nanoseconds. The campaign must have
// finished.
func (t *chanTotals) collect(origin time.Time) (startSumNS int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.runs {
		t.stats.add(&p.st)
		startSumNS += int64(p.start.Sub(origin))
	}
	return startSumNS
}

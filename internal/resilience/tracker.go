package resilience

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsl-repro/hydra/internal/obs"
)

// ErrNoMembers is returned (wrapped) by consumers when Pick finds no
// usable fleet member: every breaker is open and still cooling down.
// Failing fast here — instead of dialing members known to be down — is
// the breaker's whole point during a fleet-wide outage.
var ErrNoMembers = errors.New("resilience: no fleet member available (all breakers open)")

// ewmaAlpha weights each new observation into the member EWMAs; ~0.3
// makes the EWMA settle within a handful of streams without tracking
// every wobble.
const ewmaAlpha = 0.3

// MemberState is a fleet member's position as the tracker sees it.
type MemberState int

const (
	// MemberHealthy members take new streams.
	MemberHealthy MemberState = iota
	// MemberDraining members answered /healthz with status "draining":
	// they finish in-flight streams but refuse new ones, so Pick skips
	// them (using one as a last resort only when nothing else admits).
	MemberDraining
	// MemberOpen members have an open (or probing half-open) breaker.
	MemberOpen
)

// String implements fmt.Stringer (and the metric label values).
func (s MemberState) String() string {
	switch s {
	case MemberDraining:
		return "draining"
	case MemberOpen:
		return "open"
	default:
		return "healthy"
	}
}

// Member is one fleet member's tracked state: its breaker, its drain
// flag, and EWMAs of what the consumers observed talking to it.
type Member struct {
	// URL is the member's base URL ("http://host:port").
	URL string

	breaker  *Breaker
	draining atomic.Bool

	mu       sync.Mutex
	latEWMA  float64 // seconds; 0 = no observation yet
	rateEWMA float64 // rows per second
	latG     *obs.FloatGauge
	rateG    *obs.FloatGauge
}

// State returns the member's current position. Draining wins over an
// open breaker: a draining member is leaving deliberately.
func (m *Member) State() MemberState {
	if m.draining.Load() {
		return MemberDraining
	}
	if m.breaker.State() != BreakerClosed {
		return MemberOpen
	}
	return MemberHealthy
}

// Draining reports whether the member's last probe said "draining".
func (m *Member) Draining() bool { return m.draining.Load() }

// Breaker exposes the member's breaker for outcome reporting.
func (m *Member) Breaker() *Breaker { return m.breaker }

// ReportSuccess records a request that worked: it closes the breaker
// and, when the consumer measured them, feeds the latency (time to
// first byte or whole-call wall time) and rows/s EWMAs the future
// fleet scheduler reads. Zero-valued measurements are skipped.
func (m *Member) ReportSuccess(latency time.Duration, rowsPerSec float64) {
	m.breaker.Success()
	m.mu.Lock()
	if latency > 0 {
		m.latEWMA = blend(m.latEWMA, latency.Seconds())
		m.latG.Set(m.latEWMA)
	}
	if rowsPerSec > 0 {
		m.rateEWMA = blend(m.rateEWMA, rowsPerSec)
		m.rateG.Set(m.rateEWMA)
	}
	m.mu.Unlock()
}

// ReportFailure records a failed request. Capacity 503s must NOT be
// reported here — a busy member is healthy.
func (m *Member) ReportFailure() { m.breaker.Failure() }

// LatencyEWMA returns the member's smoothed observed latency in
// seconds (0 until the first observation).
func (m *Member) LatencyEWMA() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latEWMA
}

// RateEWMA returns the member's smoothed observed rows/s (0 until the
// first observation).
func (m *Member) RateEWMA() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rateEWMA
}

func blend(cur, x float64) float64 {
	if cur == 0 {
		return x
	}
	return cur + ewmaAlpha*(x-cur)
}

// trackerMetrics are the substrate's instruments, resolved once.
type trackerMetrics struct {
	transOpen, transHalf, transClosed   *obs.Counter
	probeOK, probeDraining, probeFailed *obs.Counter
	stHealthy, stDraining, stOpen       *obs.Gauge
	pickNone                            *obs.Counter
}

func newTrackerMetrics(reg *obs.Registry) trackerMetrics {
	trans := func(to string) *obs.Counter {
		return reg.Counter("hydra_fleet_breaker_transitions_total",
			"circuit breaker state transitions, by destination state", obs.L("to", to))
	}
	probe := func(result string) *obs.Counter {
		return reg.Counter("hydra_fleet_probes_total",
			"background health probe outcomes", obs.L("result", result))
	}
	st := func(state string) *obs.Gauge {
		return reg.Gauge("hydra_fleet_members",
			"fleet members by tracked state", obs.L("state", state))
	}
	return trackerMetrics{
		transOpen: trans("open"), transHalf: trans("half_open"), transClosed: trans("closed"),
		probeOK: probe("ok"), probeDraining: probe("draining"), probeFailed: probe("failed"),
		stHealthy: st("healthy"), stDraining: st("draining"), stOpen: st("open"),
		pickNone: reg.Counter("hydra_fleet_pick_unavailable_total",
			"member selections that found every breaker open"),
	}
}

// Tracker watches a fixed fleet of members. Construct with NewTracker,
// start the background probes with Start, stop them with Close.
type Tracker struct {
	members []*Member
	opts    Options
	client  *http.Client
	next    atomic.Uint64
	m       trackerMetrics
	budget  *Budget

	cancel context.CancelFunc
	done   chan struct{}
}

// NewTracker builds a tracker over the fleet's base URLs (already
// validated by the consumer). Probing does not start until Start.
func NewTracker(urls []string, opts Options) *Tracker {
	opts = opts.withDefaults()
	t := &Tracker{
		opts:   opts,
		m:      newTrackerMetrics(opts.Registry),
		budget: opts.newBudget(),
	}
	onChange := func(to BreakerState) {
		switch to {
		case BreakerOpen:
			t.m.transOpen.Inc()
		case BreakerHalfOpen:
			t.m.transHalf.Inc()
		default:
			t.m.transClosed.Inc()
		}
		t.updateStateGauges()
	}
	for _, u := range urls {
		m := &Member{
			URL:     u,
			breaker: NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown, onChange),
			latG: opts.Registry.FloatGauge("hydra_fleet_member_latency_ewma_seconds",
				"EWMA of observed stream latency per fleet member", obs.L("member", u)),
			rateG: opts.Registry.FloatGauge("hydra_fleet_member_rows_per_sec_ewma",
				"EWMA of observed stream rows/s per fleet member", obs.L("member", u)),
		}
		t.members = append(t.members, m)
	}
	t.client = opts.Client
	if t.client == nil {
		t.client = &http.Client{Timeout: opts.ProbeTimeout}
	}
	t.updateStateGauges()
	return t
}

// Policy returns the retry policy for one consumer layer, wired to the
// tracker's shared budget; maxAttempts overrides the options' cap when
// the options leave it zero.
func (t *Tracker) Policy(layer string, maxAttempts int) Policy {
	p := t.opts.policy(layer, t.budget)
	if p.MaxAttempts == 0 {
		p.MaxAttempts = maxAttempts
	}
	return p
}

// Members returns the tracked members in fleet order.
func (t *Tracker) Members() []*Member { return t.members }

// Size returns the fleet size.
func (t *Tracker) Size() int { return len(t.members) }

// Pick returns the next usable member in round-robin order: healthy
// members first, then — only when no healthy member's breaker admits —
// draining members (they answer new streams with 503 + Retry-After,
// which the caller already honors, so they are a safe last resort).
// nil means every member's breaker refused: fail fast, the fleet is
// down and the probes will notice recovery.
func (t *Tracker) Pick() *Member {
	i := t.pick(nil)
	if i < 0 {
		t.m.pickNone.Inc()
		return nil
	}
	return t.members[i]
}

// pick is Pick over the members not marked in excluded (nil excludes
// none), returning the chosen member's index or -1. Each call advances
// the shared cursor by one.
func (t *Tracker) pick(excluded []bool) int {
	n := len(t.members)
	if n == 0 {
		return -1
	}
	start := int(t.next.Add(1) - 1)
	fallback := -1
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if i < len(excluded) && excluded[i] {
			continue
		}
		m := t.members[i]
		if m.Draining() {
			if fallback < 0 && m.breaker.State() == BreakerClosed {
				fallback = i
			}
			continue
		}
		if m.breaker.Allow() {
			return i
		}
	}
	// No healthy member admitted; try draining members' breakers for
	// real (consuming half-open slots only now, not during pass 1).
	if fallback >= 0 && t.members[fallback].breaker.Allow() {
		return fallback
	}
	return -1
}

// Start launches the background probe loop (a no-op when probing is
// disabled or already started).
func (t *Tracker) Start() {
	if t.opts.ProbeInterval < 0 || t.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel = cancel
	t.done = make(chan struct{})
	go t.probeLoop(ctx)
}

// Close stops the probe loop and waits for it to exit.
func (t *Tracker) Close() {
	if t.cancel == nil {
		return
	}
	t.cancel()
	<-t.done
	t.cancel = nil
}

func (t *Tracker) probeLoop(ctx context.Context) {
	defer close(t.done)
	tick := time.NewTicker(t.opts.ProbeInterval)
	defer tick.Stop()
	t.probeAll(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			t.probeAll(ctx)
		}
	}
}

// probeAll probes every member concurrently, so one black-holed member
// cannot stretch the sweep past the probe timeout.
func (t *Tracker) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range t.members {
		wg.Add(1)
		go func(m *Member) {
			defer wg.Done()
			t.probe(ctx, m)
		}(m)
	}
	wg.Wait()
	t.updateStateGauges()
}

// probe issues one GET /healthz and folds the outcome into the member:
// drain flag from the reported status, breaker via ProbeSuccess (which
// respects an open breaker's cooldown) or Failure.
func (t *Tracker) probe(ctx context.Context, m *Member) {
	pctx, cancel := context.WithTimeout(ctx, t.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, m.URL+"/healthz", nil)
	if err != nil {
		t.m.probeFailed.Inc()
		m.breaker.Failure()
		return
	}
	resp, err := t.client.Do(req)
	if err != nil {
		t.m.probeFailed.Inc()
		m.breaker.Failure()
		return
	}
	defer resp.Body.Close()
	var doc struct {
		Status string `json:"status"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&doc) != nil {
		t.m.probeFailed.Inc()
		m.breaker.Failure()
		return
	}
	if doc.Status == "draining" {
		t.m.probeDraining.Inc()
		m.draining.Store(true)
	} else {
		t.m.probeOK.Inc()
		m.draining.Store(false)
	}
	m.breaker.ProbeSuccess()
}

func (t *Tracker) updateStateGauges() {
	var healthy, draining, open int64
	for _, m := range t.members {
		switch m.State() {
		case MemberDraining:
			draining++
		case MemberOpen:
			open++
		default:
			healthy++
		}
	}
	t.m.stHealthy.Set(healthy)
	t.m.stDraining.Set(draining)
	t.m.stOpen.Set(open)
}

package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsl-repro/hydra"
)

// reqKind is one class of the serve-ranged request mix.
type reqKind struct {
	name    string
	rows    int64
	filter  bool // a pushed-down range predicate on one column
	project bool // a 2-column projection
	count   int  // requests of this kind per block
}

// requestMix is the closed-loop traffic of serve-ranged, per block of
// requests: small pk ranges (fixed per-request cost), large ones
// (per-row encode and decode cost), and filtered or projected ranges.
// The counts give each class about the same share of the loop's time,
// taken from the classes' mean latencies on a 2-vCPU host (README.md),
// so each moves served_rows_per_s by its own rate. request_s.p50 and
// .p99 are taken over the 1k class alone (kind 0), so p99 is that
// class's tail and not a larger class's typical cost. Every block holds
// exactly these counts in a seeded order, and each kind cycles through
// the fact tables, so the mix a run measures does not drift with the
// seed.
var requestMix = []reqKind{
	{name: "1k", rows: 1_000, count: 42},
	{name: "100k", rows: 100_000, count: 1},
	{name: "10k-filtered", rows: 10_000, filter: true, count: 6},
	{name: "10k-projected", rows: 10_000, project: true, count: 19},
}

// mixer draws one worker's request sequence.
type mixer struct {
	rng    *rand.Rand
	e      *env
	facts  []string
	block  []int // kinds left in the current block
	cursor []int // next fact table per kind
}

func newMixer(seed int64, e *env) *mixer {
	m := &mixer{rng: rand.New(rand.NewSource(seed)), e: e, facts: factTables(e.sum), cursor: make([]int, len(requestMix))}
	for i := range m.cursor {
		m.cursor[i] = m.rng.Intn(len(m.facts))
	}
	return m
}

// next returns the next request and its kind.
func (m *mixer) next() (hydra.ScanSpec, int) {
	if len(m.block) == 0 {
		for k, c := range requestMix {
			for i := 0; i < c.count; i++ {
				m.block = append(m.block, k)
			}
		}
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	ki := m.block[0]
	m.block = m.block[1:]
	k := requestMix[ki]
	tab := m.facts[m.cursor[ki]%len(m.facts)]
	m.cursor[ki]++
	rs := m.e.sum.Relations[tab]
	start := 1 + m.rng.Int63n(max(1, rs.Total-k.rows+1))
	spec := hydra.ScanSpec{Table: tab, StartPK: start, EndPK: min(rs.Total, start+k.rows-1)}
	cols := append(append([]string(nil), rs.Cols...), rs.FKCols...)
	switch {
	case k.filter:
		c := m.e.site.schema.MustTable(tab).Cols[m.rng.Intn(len(rs.Cols))]
		spec.Filter = hydra.Col(c.Name).AtMost(c.Min + (c.Max-c.Min)/2)
	case k.project:
		p := m.rng.Perm(len(cols))
		spec.Columns = []string{cols[p[0]], cols[p[1]]}
	}
	return spec, ki
}

// request is one remote scan the loop issued and what it returned.
type request struct {
	spec hydra.ScanSpec
	kind int
	rows int64
	hash uint64
	err  error
}

// serveOut is what the serve-ranged phase measured.
type serveOut struct {
	latency   [][]float64 // seconds per remote scan, by kind
	reqs      []request
	rows      int64
	wall      float64
	allocs    float64
	retries   float64
	failovers float64
}

const (
	familyRetries   = "hydra_fleet_retries_total"
	familyFailovers = "hydra_scan_remote_failovers_total"
)

// runServe drives the closed loop: nproc workers (at most 2), each
// issuing its next ranged scan through a RemoteSource over both members
// as soon as the previous one completes, until the budget is spent.
// Every scan is then checked against the same range from SummarySource.
func runServe(ctx context.Context, e *env, seed int64, b budget, tr *tracer, t *tally) *serveOut {
	hl := e.handlers
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxIdleConnsPerHost = 8
	src, err := hydra.NewRemoteSource(e.urls, hydra.RemoteSourceOptions{Client: &http.Client{Transport: reqTransport{base: tp}}})
	out := &serveOut{latency: make([][]float64, len(requestMix))}
	if !t.ok(err, "remote source") {
		return out
	}
	defer tp.CloseIdleConnections()
	defer src.Close()
	workers := min(2, runtime.NumCPU())

	hl.on.Store(tr != nil)
	defer hl.on.Store(false)
	c0 := metricsSnapshot(familyRetries, familyFailovers)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph := tr.open(0, "serve.phase")
	start := time.Now()
	var issued atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mix := newMixer(seed*1000+int64(w), e)
			for b.more(start, int(issued.Add(1)-1)) {
				spec, kind := mix.next()
				rs := tr.open(ph.id, "remote.request")
				rctx := ctx
				if tr != nil {
					rctx = context.WithValue(ctx, reqKey{}, rs.id)
				}
				st, err := scanTable(rctx, src, spec)
				rs.close("table", spec.Table, "kind", kind, "rows", st.rows, "check_s", st.check.Seconds())
				mu.Lock()
				out.reqs = append(out.reqs, request{spec: spec, kind: kind, rows: st.rows, hash: st.hash, err: err})
				if err == nil {
					out.latency[kind] = append(out.latency[kind], st.seconds())
					out.rows += st.rows
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	out.wall = time.Since(start).Seconds()
	ph.close("workers", workers)
	runtime.ReadMemStats(&m1)
	c1 := metricsSnapshot(familyRetries, familyFailovers)
	out.allocs = float64(m1.Mallocs - m0.Mallocs)
	out.retries = c1[familyRetries] - c0[familyRetries]
	out.failovers = c1[familyFailovers] - c0[familyFailovers]

	for _, r := range hl.take() {
		tr.add(0, r.req, "serve.handler", r.start, r.end,
			"info", r.info, "bytes", r.bytes, "ttfb_s", r.first.Sub(r.start).Seconds())
	}

	ref := hydra.NewSummarySource(e.sum)
	for _, r := range out.reqs {
		if !t.ok(r.err, "remote scan %s [%d,%d]", r.spec.Table, r.spec.StartPK, r.spec.EndPK) {
			continue
		}
		want, err := scanTable(ctx, ref, r.spec)
		if t.ok(err, "reference scan %s", r.spec.Table) {
			t.ok(check(want.rows == r.rows && want.hash == r.hash,
				"remote scan %s [%d,%d]: %d rows hash %x, summary %d rows hash %x",
				r.spec.Table, r.spec.StartPK, r.spec.EndPK, r.rows, r.hash, want.rows, want.hash), "remote rows")
		}
	}
	return out
}

func (o *serveOut) endToEnd(m metrics) {
	small := o.latency[0]
	m.set("request_s.p50", median(small), len(small))
	m.set("request_s.p99", percentile(small, 99), len(small))
	m.set("served_rows_per_s", ratio(float64(o.rows), o.wall), o.scans())
}

func (o *serveOut) scans() int {
	n := 0
	for _, l := range o.latency {
		n += len(l)
	}
	return n
}

// details prints each request class's latencies and its share of the
// time the workers spent in requests.
func (o *serveOut) details(w io.Writer) {
	var total float64
	sums := make([]float64, len(o.latency))
	for k, l := range o.latency {
		for _, x := range l {
			sums[k] += x
		}
		total += sums[k]
	}
	for k, l := range o.latency {
		fmt.Fprintf(w, "class %-14s n=%-6d p50 %.6f s  p99 %.6f s  mean %.6f s  time share %.3f\n",
			requestMix[k].name, len(l), median(l), percentile(l, 99), ratio(sums[k], float64(len(l))), ratio(sums[k], total))
	}
}

// perLayer derives the serving-path layer metrics from the traced
// phase's spans; allocation and fleet counters come from the untraced
// phase. Handler, first-byte and client times are those of the 1k
// class, like request_s.
func (base *serveOut) perLayer(m metrics, spans []span) {
	small := map[int64]bool{}
	for _, s := range spans {
		if s.Name == "remote.request" && s.num("kind") == 0 {
			small[s.ID] = true
		}
	}
	var handler, ttfb []float64
	var handlers, bytes float64
	for _, s := range spans {
		if s.Name != "serve.handler" {
			continue
		}
		handlers++
		if s.num("info") != 0 {
			continue
		}
		bytes += s.num("bytes")
		if small[s.Parent] {
			handler = append(handler, float64(s.End-s.Start)/1e9)
			ttfb = append(ttfb, s.num("ttfb_s"))
		}
	}
	rs := rollup(spans, "serve.phase")
	var scans, rows float64
	for _, r := range rs {
		scans += r["remote.request:n"]
		rows += r["remote.request.rows"]
	}
	self := selfTimes(spans)
	var client []float64
	for _, s := range spans {
		if small[s.ID] {
			client = append(client, float64(self[s.ID])/1e9-s.num("check_s"))
		}
	}
	n := base.scans()
	m.set("serve.handler_s", median(handler), len(handler))
	m.set("serve.ttfb_s", median(ttfb), len(ttfb))
	m.set("serve.requests_per_scan", ratio(handlers, scans), int(scans))
	m.set("serve.wire_bytes_per_row", ratio(bytes, rows), int(scans))
	m.set("scan.remote_client_s", median(client), len(client))
	m.set("request.allocs", ratio(base.allocs, float64(n)), n)
	m.set("scan.remote_allocs_per_row", ratio(base.allocs, float64(base.rows)), n)
	m.set("resilience.retries", base.retries, n)
	m.set("resilience.failovers", base.failovers, n)
}

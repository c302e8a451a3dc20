package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/dsl-repro/hydra"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p percent of the samples at or
// below it. It does not reorder xs. It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// rowHash is an order-sensitive checksum of a row stream. Each column
// keeps its own running hash, so the result depends on the values and
// their row order but not on how the stream was cut into batches.
type rowHash struct {
	cols []uint64
	rows int64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (h *rowHash) add(b *hydra.RowBatch) {
	for len(h.cols) < len(b.Cols) {
		h.cols = append(h.cols, fnvOffset)
	}
	for c, col := range b.Cols {
		x := h.cols[c]
		for _, v := range col[:b.N] {
			x = (x ^ uint64(v)) * fnvPrime
		}
		h.cols[c] = x
	}
	h.rows += int64(b.N)
}

// sum folds the column hashes and the row count into one value.
func (h *rowHash) sum() uint64 {
	x := uint64(fnvOffset)
	for _, c := range h.cols {
		x = (x ^ c) * fnvPrime
	}
	return (x ^ uint64(h.rows)) * fnvPrime
}

// span is one timed interval the benchmark recorded around a call into
// a layer. Times are nanoseconds since the tracer's epoch; Parent is 0
// for a root. Attrs hold counts (int64) and names (string).
type span struct {
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	last  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; its id is the parent of the spans it
// causes.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

func (t *tracer) open(parent int64, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.newID(), parent: parent, name: name, start: time.Now()}
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last++
	return t.last
}

// close ends the span; attrs alternate name and value.
func (s openSpan) close(attrs ...any) {
	if s.t != nil {
		s.t.add(s.id, s.parent, s.name, s.start, time.Now(), attrs...)
	}
}

// add records a finished span whose interval was measured elsewhere
// (for example inside an HTTP handler); id 0 allocates a fresh id.
func (t *tracer) add(id, parent int64, name string, start, end time.Time, attrs ...any) {
	if t == nil {
		return
	}
	var m map[string]any
	if len(attrs) > 0 {
		m = make(map[string]any, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			m[attrs[i].(string)] = attrs[i+1]
		}
	}
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Attrs: m})
	t.mu.Unlock()
}

// num reads a numeric attribute; names and missing keys read as 0.
func (s span) num(key string) float64 {
	switch x := s.Attrs[key].(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case float64:
		return x
	case bool:
		if x {
			return 1
		}
	case time.Duration:
		return x.Seconds()
	}
	return 0
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, keyed by span id. Overlapping children (for
// example concurrent handler calls under one request) count once.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		if open && iv[0] <= curB {
			curB = max(curB, iv[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = iv[0], iv[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// promTotals sums every series of each named metric family in a
// Prometheus text exposition, across label sets.
func promTotals(text []byte, families ...string) map[string]float64 {
	want := make(map[string]bool, len(families))
	for _, f := range families {
		want[f] = true
	}
	out := make(map[string]float64, len(families))
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			// Label values may hold spaces; the value follows the
			// closing brace.
			name = line[:i]
			j := strings.LastIndexByte(line, '}')
			rest, ok = strings.TrimSpace(line[j+1:]), j > i
		}
		if !ok || !want[name] {
			continue
		}
		if sp := strings.IndexByte(rest, ' '); sp >= 0 {
			rest = rest[:sp] // drop an optional timestamp
		}
		if v, err := strconv.ParseFloat(rest, 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// metricsSnapshot reads the process's metric families through the
// facade's Prometheus writer.
func metricsSnapshot(families ...string) map[string]float64 {
	var buf bytes.Buffer
	if err := hydra.WriteMetrics(&buf); err != nil {
		return map[string]float64{}
	}
	return promTotals(buf.Bytes(), families...)
}

// rollup groups spans by the root span (named root) they descend from
// and returns one map per root, in root start order. Keys are
// "<span>:self_s" and "<span>:dur_s" (summed seconds), "<span>:n"
// (span count) and "<span>.<attr>" (summed numeric attribute).
func rollup(spans []span, root string) []map[string]float64 {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := selfTimes(spans)
	var roots []span
	for _, s := range spans {
		if s.Name == root && s.Parent == 0 {
			roots = append(roots, s)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start < roots[j].Start })
	acc := make(map[int64]map[string]float64, len(roots))
	for _, r := range roots {
		acc[r.ID] = map[string]float64{}
	}
	for _, s := range spans {
		top := s
		for top.Parent != 0 {
			p, ok := byID[top.Parent]
			if !ok {
				break
			}
			top = p
		}
		m := acc[top.ID]
		if m == nil || top.Name != root {
			continue
		}
		m[s.Name+":self_s"] += float64(self[s.ID]) / 1e9
		m[s.Name+":dur_s"] += float64(s.End-s.Start) / 1e9
		m[s.Name+":n"]++
		for k := range s.Attrs {
			m[s.Name+"."+k] += s.num(k)
		}
	}
	out := make([]map[string]float64, len(roots))
	for i, r := range roots {
		out[i] = acc[r.ID]
	}
	return out
}

// medianOf applies f to every rollup and returns the median result.
func medianOf(rs []map[string]float64, f func(map[string]float64) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Command perfbench is Hydra's end-to-end benchmark. One process sets up
// the client site, a scaled summary and two serve members on loopback,
// then times the three user paths one after the other — summarize,
// local data supply and served ranged scans — and checks every output:
//
//	bash perfbench/run.sh --workload heap --seed 1 --seconds 45 --trace 0
//
// The workload names the format local data supply materializes and
// scans (heap or csv); every run reports every metric. With --trace 1
// the run is measured twice, untraced and then with the benchmark's own
// spans around each layer call, and it reports the per-layer metrics,
// writes the spans and a self-time table, and prints the tracing
// overhead of every end-to-end metric. The last line of standard output
// is the JSON result; README.md describes the metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// metricDef is one reported metric; higher marks metrics where more is
// better. Every workload reports every metric.
type metricDef struct {
	name, unit string
	higher     bool
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", false},
	{"ops_ok_share", "share", true},
	{"summarize_s.p50", "s", false},
	{"summarize_s.p90", "s", false},
	{"cc_exact_pct", "pct", true},
	{"cc_within_10pct", "pct", true},
	{"summary_bytes", "B", false},
	{"materialize_rows_per_s", "rows/s", true},
	{"disk_bytes_per_row", "B", false},
	{"dir_scan_rows_per_s", "rows/s", true},
	{"dynamic_scan_rows_per_s", "rows/s", true},
	{"sql_queries_per_s", "1/s", true},
	{"request_s.p50", "s", false},
	{"request_s.p99", "s", false},
	{"served_rows_per_s", "rows/s", true},
}

var perLayerDefs = []metricDef{
	{"trace.overhead_share", "share", false},
	{"preprocess.build_views_s", "s", false},
	{"core.formulate_s", "s", false},
	{"core.lp_vars", "count", false},
	{"core.lp_rows", "count", false},
	{"lp.solve_s", "s", false},
	{"lp.pivots", "count", false},
	{"lp.bb_nodes", "count", false},
	{"lp.soft_views", "count", false},
	{"summary.build_s", "s", false},
	{"summary.distinct_digests", "count", false},
	{"summarize.allocs_per_pass", "count", false},
	{"tuplegen.fill_rows_per_s", "rows/s", true},
	{"matgen.discard_rows_per_s", "rows/s", true},
	{"matgen.encode_s", "s", false},
	{"matgen.write_s", "s", false},
	{"matgen.allocs_per_table", "count", false},
	{"scan.dir_open_s", "s", false},
	{"scan.dir_next_s", "s", false},
	{"scan.dir_allocs_per_row", "count", false},
	{"pred.rows_covered_per_returned", "ratio", false},
	{"sqldriver.query_s", "s", false},
	{"scan.summary_query_s", "s", false},
	{"serve.handler_s", "s", false},
	{"serve.ttfb_s", "s", false},
	{"serve.requests_per_scan", "count", false},
	{"serve.wire_bytes_per_row", "B", false},
	{"request.allocs", "count", false},
	{"scan.remote_allocs_per_row", "count", false},
	{"scan.remote_client_s", "s", false},
	{"resilience.retries", "count", false},
	{"resilience.failovers", "count", false},
}

// phase is what one path measured. perLayer is called on the untraced
// phase with the traced run's spans: counts that tracing would disturb
// (allocations) come from the receiver, timings from the spans.
type phase interface {
	endToEnd(m metrics)
	perLayer(m metrics, spans []span)
}

// detailer is a phase that prints more than its metrics: timings by
// request class, with sample counts.
type detailer interface {
	details(w io.Writer)
}

// workloads are named after the format local data supply materializes
// and scans. The summarize and serve paths do not depend on it: they are
// the control for a format change.
var workloads = map[string]bool{"heap": true, "csv": true}

// paths are the three user paths every run times, in this order, each
// with its share of --seconds and the end-to-end metric whose tracing
// overhead it reports. Local supply runs last, so its disk writes and
// large heap do not overlap the other two.
var paths = []struct {
	name     string
	share    float64
	headline string
	run      func(ctx context.Context, e *env, o options, b budget, tr *tracer, t *tally) (phase, error)
}{
	{"summarize", 0.3, "summarize_s.p50", func(ctx context.Context, e *env, o options, b budget, tr *tracer, t *tally) (phase, error) {
		return runSummarize(ctx, e.site, b, tr, t), nil
	}},
	{"serve-ranged", 0.25, "request_s.p50", func(ctx context.Context, e *env, o options, b budget, tr *tracer, t *tally) (phase, error) {
		return runServe(ctx, e, o.seed, b, tr, t), nil
	}},
	{"supply-local", 0.45, "materialize_rows_per_s", func(ctx context.Context, e *env, o options, b budget, tr *tracer, t *tally) (phase, error) {
		qs, err := makeQueries(e, o.seed)
		if err != nil {
			return nil, fmt.Errorf("queries: %w", err)
		}
		return runSupply(ctx, e, o.workload, qs, b, tr, t), nil
	}},
}

// budget is how long a phase runs: at least min operations and at least
// dur of wall time.
type budget struct {
	dur time.Duration
	min int
}

func (b budget) more(start time.Time, done int) bool {
	return done < b.min || time.Since(start) < b.dur
}

// tally counts attempted and failed operations, output checks included.
type tally struct {
	attempted, failed atomic.Int64
	logged            atomic.Int64
}

var errCheck = errors.New("output check failed")

// check returns nil when ok holds and an errCheck-wrapped error otherwise.
func check(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("%w: "+format, append([]any{errCheck}, args...)...)
}

// ok records one operation; a non-nil err fails it and is logged (the
// first few per run) to standard error.
func (t *tally) ok(err error, format string, args ...any) bool {
	t.attempted.Add(1)
	if err == nil {
		return true
	}
	t.failed.Add(1)
	if t.logged.Add(1) <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", fmt.Sprintf(format, args...), err)
	}
	return false
}

type metric struct {
	value   float64
	samples int
}

type metrics map[string]*metric

func (m metrics) set(name string, v float64, samples int) {
	m[name] = &metric{value: v, samples: samples}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	workdir  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: heap or csv, the format local data supply materializes")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated requests and queries")
	flag.IntVar(&o.seconds, "seconds", 10, "timed budget of the three paths together, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/perfbench", "directory for summaries, materialized data and traces")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options, stdout io.Writer) error {
	if _, ok := workloads[o.workload]; !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("bad --seconds %d or --trace %d", o.seconds, o.trace)
	}
	// The deadline only stops a hung run: set-up, then every measured
	// round's budget plus room for its paths' last operations and checks.
	rounds := time.Duration(1 + o.trace)
	ctx, cancel := context.WithTimeout(context.Background(), setupSlack+rounds*(time.Duration(o.seconds)*time.Second+roundSlack))
	defer cancel()
	work := filepath.Join(o.workdir, "work")
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// Every set-up round summarizes the data-plane summary afresh; the
	// rounds must agree on it, or the data-plane phases would measure
	// whichever summary the last round happened to build.
	t := &tally{}
	var setupS []float64
	var e *env
	var digest [32]byte
	for i := 0; i < setupRounds; i++ {
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setup(ctx, work); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i == 0 {
			digest = e.digest
		}
		t.ok(check(e.digest == digest, "round %d built %x, round 1 built %x", i+1, e.digest, digest), "supply summary digest")
	}
	defer e.close()
	fmt.Fprintf(stdout, "supply summary sha256 %x\n", digest)

	// measure times the three paths one after the other.
	measure := func(tr *tracer) (metrics, []phase, error) {
		m := metrics{}
		m.set("setup_s", median(setupS), len(setupS))
		var ps []phase
		for _, path := range paths {
			b := budget{dur: time.Duration(path.share * float64(o.seconds) * float64(time.Second)), min: 1}
			runtime.GC()
			p, err := path.run(ctx, e, o, b, tr, t)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", path.name, err)
			}
			p.endToEnd(m)
			ps = append(ps, p)
		}
		m.set("ops_ok_share", 1-ratio(float64(t.failed.Load()), float64(t.attempted.Load())), int(t.attempted.Load()))
		return m, ps, nil
	}

	base, ps, err := measure(nil)
	if err != nil {
		return err
	}
	for _, p := range ps {
		if d, ok := p.(detailer); ok {
			d.details(stdout)
		}
	}
	result, defs := base, endToEndDefs
	if o.trace == 1 {
		tr := newTracer()
		traced, _, err := measure(tr)
		if err != nil {
			return err
		}
		spans := tr.snapshot()
		result, defs = metrics{}, perLayerDefs
		for _, p := range ps {
			p.perLayer(result, spans)
		}
		// The mean over the paths of their headline metric's overhead.
		over := overheads(base, traced)
		var headline float64
		for _, path := range paths {
			headline += over[path.headline] / float64(len(paths))
		}
		result.set("trace.overhead_share", headline, len(paths))
		if err := writeTrace(o, spans, base, traced, over, stdout); err != nil {
			return err
		}
	}
	return report(stdout, result, defs, t)
}

// overheads is the relative change of every end-to-end metric when
// traced, signed so that positive means the traced run did worse.
func overheads(base, traced metrics) map[string]float64 {
	out := map[string]float64{}
	for _, d := range endToEndDefs {
		b, tr := base[d.name], traced[d.name]
		if b == nil || tr == nil || b.value == 0 {
			continue
		}
		x := tr.value/b.value - 1
		if d.higher {
			x = -x
		}
		out[d.name] = x
	}
	return out
}

// report prints every metric by name with its unit and sample count,
// then the JSON result as the last line.
func report(w io.Writer, m metrics, defs []metricDef, t *tally) error {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Metrics: map[string]jm{}}
	for _, d := range defs {
		v := m[d.name]
		if v == nil || math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			t.ok(fmt.Errorf("not measured"), "metric %s", d.name)
			v = &metric{}
		}
		fmt.Fprintf(w, "%-32s %16.6g %-7s n=%d\n", d.name, v.value, d.unit, v.samples)
		out.Metrics[d.name] = jm{Value: v.value, Unit: d.unit}
	}
	out.Attempted, out.Failed = t.attempted.Load(), t.failed.Load()
	out.Correct = out.Failed == 0 && out.Attempted > 0
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeTrace writes the traced run's spans (one JSON object per line)
// and a text report: self time per span name and per layer, and the
// tracing overhead of every end-to-end metric.
func writeTrace(o options, spans []span, base, traced metrics, over map[string]float64, stdout io.Writer) error {
	dir := filepath.Join(o.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	f, err := os.Create(stem + ".spans.jsonl")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}

	var b strings.Builder
	self := selfTimes(spans)
	type row struct {
		name      string
		n         int
		dur, self float64
	}
	byName, byLayer := map[string]*row{}, map[string]*row{}
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		for _, r := range []*row{get(byName, s.Name), get(byLayer, layer)} {
			r.n++
			r.dur += float64(s.End-s.Start) / 1e9
			r.self += float64(self[s.ID]) / 1e9
		}
	}
	for _, table := range []struct {
		title string
		rows  map[string]*row
	}{{"span", byName}, {"layer", byLayer}} {
		rows := make([]*row, 0, len(table.rows))
		for k, r := range table.rows {
			r.name = k
			rows = append(rows, r)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
		fmt.Fprintf(&b, "%-28s %8s %12s %12s\n", table.title, "spans", "total_s", "self_s")
		for _, r := range rows {
			fmt.Fprintf(&b, "%-28s %8d %12.6f %12.6f\n", r.name, r.n, r.dur, r.self)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-28s %14s %14s %10s\n", "tracing overhead", "untraced", "traced", "worse_by")
	for _, d := range endToEndDefs {
		if bv, tv := base[d.name], traced[d.name]; bv != nil && tv != nil {
			fmt.Fprintf(&b, "%-28s %14.6g %14.6g %9.2f%%\n", d.name, bv.value, tv.value, 100*over[d.name])
		}
	}
	if err := os.WriteFile(stem+".layers.txt", []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "spans: %s.spans.jsonl\n%s", stem, b.String())
	return nil
}

func get[T any](m map[string]*T, k string) *T {
	if v, ok := m[k]; ok {
		return v
	}
	v := new(T)
	m[k] = v
	return v
}

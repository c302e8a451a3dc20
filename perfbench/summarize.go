package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/core"
	"github.com/dsl-repro/hydra/internal/preprocess"
	"github.com/dsl-repro/hydra/internal/summary"
)

// summarizeOut is what the summarize phase measured.
type summarizeOut struct {
	passS   []float64         // wall seconds per pass (WLc-80 then WLs-90)
	allocs  []float64         // heap allocations per pass
	bytes   []float64         // WLc + WLs summary JSON bytes per pass
	reports []hydra.CCReport  // every pass's CC reports, pooled
	digests map[[32]byte]bool // distinct WLc-80 summary digests
}

// runSummarize runs back-to-back summarize passes on the client site
// until the budget is spent. A pass is RegenerateContext + Evaluate for
// WLc-80, then the same for WLs-90.
func runSummarize(ctx context.Context, st *site, b budget, tr *tracer, t *tally) *summarizeOut {
	out := &summarizeOut{digests: map[[32]byte]bool{}}
	start := time.Now()
	for pass := 0; b.more(start, pass); pass++ {
		runtime.GC()
		ps := tr.open(0, "summarize.pass")
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		var results [2]*hydra.Result
		for i, w := range []*hydra.Workload{st.wlc, st.wls} {
			res, err := regenerate(ctx, st.schema, w, tr, ps.id)
			if !t.ok(err, "summarize %s", w.Name) {
				continue
			}
			ev := tr.open(ps.id, "summary.evaluate")
			reps, err := res.Evaluate(w)
			ev.close("ccs", len(reps))
			if !t.ok(err, "evaluate %s", w.Name) {
				continue
			}
			results[i] = res
			out.reports = append(out.reports, reps...)
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ps.close()
		out.passS = append(out.passS, elapsed.Seconds())
		out.allocs = append(out.allocs, float64(m1.Mallocs-m0.Mallocs))
		var size int
		for i, res := range results {
			if res == nil {
				continue
			}
			var buf bytes.Buffer
			if _, err := res.Summary.WriteTo(&buf); !t.ok(err, "serialize summary") {
				continue
			}
			size += buf.Len()
			if i == 0 {
				out.digests[sha256.Sum256(buf.Bytes())] = true
			}
		}
		out.bytes = append(out.bytes, float64(size))
	}
	return out
}

// regenerate is hydra.RegenerateContext. Traced, it runs the same
// pipeline stage by stage so each layer gets its own span: preprocess,
// then per view formulation and LP solve, then the summary build.
func regenerate(ctx context.Context, s *hydra.Schema, w *hydra.Workload, tr *tracer, parent int64) (*hydra.Result, error) {
	if tr == nil {
		return hydra.RegenerateContext(ctx, s, w, hydra.Config{})
	}
	sp := tr.open(parent, "hydra.regenerate")
	defer sp.close("workload", w.Name)
	start := time.Now()
	if err := w.Validate(s); err != nil {
		return nil, err
	}
	bv := tr.open(sp.id, "preprocess.build_views")
	views, err := preprocess.BuildViews(s, w)
	bv.close("views", len(views))
	if err != nil {
		return nil, err
	}
	order, err := s.TopoOrder()
	if err != nil {
		return nil, err
	}
	res := &hydra.Result{Views: views}
	sols := make(map[string]*core.ViewSolution, len(views))
	for _, tab := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v := views[tab.Name]
		fs := tr.open(sp.id, "core.formulate")
		f, err := core.FormulateWith(v, core.RegionStrategy)
		if err != nil {
			fs.close("view", tab.Name)
			return nil, fmt.Errorf("formulate %s: %w", tab.Name, err)
		}
		fs.close("view", tab.Name, "vars", f.Stats.Vars, "rows", f.Stats.Rows)
		ls := tr.open(sp.id, "lp.solve")
		sol, err := f.SolveSequential(core.Options{})
		if err != nil {
			ls.close("view", tab.Name)
			return nil, fmt.Errorf("solve %s: %w", tab.Name, err)
		}
		ls.close("view", tab.Name, "pivots", sol.Stats.Pivots, "nodes", sol.Stats.Nodes,
			"soft", sol.Stats.Soft, "merges", sol.Stats.SequentialMerges)
		sols[tab.Name] = sol
		res.TotalVars += sol.Stats.Vars
		res.SolveTime += sol.Stats.SolveTime
	}
	bs := tr.open(sp.id, "summary.build")
	sum, err := summary.Build(s, views, sols)
	bs.close("relations", len(s.Tables))
	if err != nil {
		return nil, err
	}
	res.Summary = sum
	res.BuildTime = time.Since(start)
	return res, nil
}

func (o *summarizeOut) endToEnd(m metrics) {
	m.set("summarize_s.p50", median(o.passS), len(o.passS))
	m.set("summarize_s.p90", percentile(o.passS, 90), len(o.passS))
	cdf := hydra.ErrorCDF(o.reports, []float64{0, 0.1})
	m.set("cc_exact_pct", cdf[0], len(o.reports))
	m.set("cc_within_10pct", cdf[1], len(o.reports))
	m.set("summary_bytes", median(o.bytes), len(o.bytes))
}

// perLayer derives the layer metrics from the traced passes' spans;
// allocation and digest counts come from the untraced passes.
func (base *summarizeOut) perLayer(m metrics, spans []span) {
	rs := rollup(spans, "summarize.pass")
	n := len(rs)
	sum := func(key string) float64 { return medianOf(rs, func(r map[string]float64) float64 { return r[key] }) }
	m.set("preprocess.build_views_s", sum("preprocess.build_views:self_s"), n)
	m.set("core.formulate_s", sum("core.formulate:self_s"), n)
	m.set("core.lp_vars", sum("core.formulate.vars"), n)
	m.set("core.lp_rows", sum("core.formulate.rows"), n)
	m.set("lp.solve_s", sum("lp.solve:self_s"), n)
	m.set("lp.pivots", sum("lp.solve.pivots"), n)
	m.set("lp.bb_nodes", sum("lp.solve.nodes"), n)
	m.set("lp.soft_views", sum("lp.solve.soft"), n)
	m.set("summary.build_s", sum("summary.build:self_s"), n)
	m.set("summary.distinct_digests", float64(len(base.digests)), len(base.passS))
	m.set("summarize.allocs_per_pass", median(base.allocs), len(base.allocs))
}

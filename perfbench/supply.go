package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/tuplegen"
	"github.com/dsl-repro/hydra/internal/workload/tpcds"
)

const (
	// sqlPairsPerTable is the number of complementary query pairs per
	// fact table in the SQL set. A query's cost depends on the column
	// and values the seed draws, so many distinct queries, each run once
	// per pass, keep a pass's cost from depending on the seed.
	sqlPairsPerTable = 16
	dynRepeats       = 8
	// matRepeats is how often a pass materializes the summary.
	matRepeats = 2
	// sqlRangeRows is the pk range of every SQL query, so every pair
	// returns the same number of rows. It does not bound the work: the
	// driver passes the pk restriction down as part of the filter, and
	// a filtered scan walks its table's whole pk grid.
	sqlRangeRows = 20000
)

// sqlQuery is one conjunctive SELECT … WHERE and what the same filter
// does through SummarySource: the rows it returns and the rows its scan
// walks.
type sqlQuery struct {
	table   string
	cols    []string
	text    string
	filter  hydra.Filter
	covered int64
	want    int64
}

// makeQueries draws the seeded query set in complementary pairs: over
// one pk range of a fact table, "c <= v" and "c >= v+1" for a column c.
// Generated data is constant across long pk runs, so one query of a
// pair often returns the whole range and the other nothing; together
// they always return the range once. Every fact table gets the same
// number of pairs, because a query's cost grows with its table's size;
// so a pass's cost does not depend on the seed.
func makeQueries(e *env, seed int64) ([]sqlQuery, error) {
	rng := rand.New(rand.NewSource(seed))
	src := hydra.NewSummarySource(e.sum)
	facts := factTables(e.sum)
	qs := make([]sqlQuery, 0, 2*sqlPairsPerTable*len(facts))
	for i := 0; i < sqlPairsPerTable*len(facts); i++ {
		tab := facts[i%len(facts)]
		total := e.sum.Relations[tab].Total
		def := e.site.schema.MustTable(tab)
		pk := tab + "_pk"
		lo := 1 + rng.Int63n(max(1, total-sqlRangeRows+1))
		hi := min(total, lo+sqlRangeRows-1)
		c := def.Cols[rng.Intn(len(def.Cols))]
		v := c.Min + int64(float64(c.Max-c.Min)*(0.2+0.6*rng.Float64()))
		cols := []string{pk, c.Name}
		var got int64
		for _, cond := range []string{fmt.Sprintf("%s <= %d", c.Name, v), fmt.Sprintf("%s >= %d", c.Name, v+1)} {
			where := fmt.Sprintf("%s BETWEEN %d AND %d AND %s", pk, lo, hi, cond)
			f, err := hydra.ParseWhere(where)
			if err != nil {
				return nil, err
			}
			q := sqlQuery{table: tab, cols: cols, filter: f,
				text: fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s", pk, c.Name, tab, where)}
			// The spec the driver builds from q.text.
			st, err := scanTable(context.Background(), src, hydra.ScanSpec{Table: tab, Columns: cols, Filter: f})
			if err != nil {
				return nil, fmt.Errorf("reference count for %q: %w", q.text, err)
			}
			q.want, q.covered = st.rows, st.covered
			got += st.rows
			qs = append(qs, q)
		}
		if got != hi-lo+1 {
			return nil, fmt.Errorf("%w: %s pk %d..%d: complementary filters on %s return %d rows", errCheck, tab, lo, hi, c.Name, got)
		}
	}
	return qs, nil
}

// factTables lists the summary's TPC-DS fact tables.
func factTables(sum *hydra.Summary) []string {
	var out []string
	for _, t := range tpcds.FactTables() {
		if rs, ok := sum.Relations[t]; ok && rs.Total > 0 {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// scanStat is one drained scan: its rows and checksum, the pk grid rows
// the scan walked (Scan.NumRows), the time spent inside the scan layer,
// and the time the checksum itself took.
type scanStat struct {
	rows    int64
	hash    uint64
	covered int64
	open    time.Duration // Scan plus the first Next
	next    time.Duration // every later Next
	check   time.Duration // checksumming the batches
}

func (s scanStat) seconds() float64 { return (s.open + s.next).Seconds() }

func scanTable(ctx context.Context, src hydra.Source, spec hydra.ScanSpec) (scanStat, error) {
	var st scanStat
	t0 := time.Now()
	sc, err := src.Scan(ctx, spec)
	if err != nil {
		return st, err
	}
	defer sc.Close()
	st.covered = sc.NumRows()
	var h rowHash
	for first := true; ; first = false {
		t1 := time.Now()
		ok := sc.Next()
		t2 := time.Now()
		if first {
			st.open = t2.Sub(t0)
		} else {
			st.next += t2.Sub(t1)
		}
		if !ok {
			break
		}
		h.add(sc.Batch())
		st.check += time.Since(t2)
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	st.rows, st.hash = h.rows, h.sum()
	return st, nil
}

// supplyOut is what the supply-local phase measured, per pass.
type supplyOut struct {
	matRate, bytesPerRow, dirRate, dynRate, sqlRate []float64
	sqlQueries                                      int
	matAllocsPerTable, dirAllocsPerRow              []float64
}

// runSupply runs supply-local passes over the scaled summary until the
// budget is spent: materialize in format, scan the directory, scan the
// summary (dynamic generation), then the SQL query set.
func runSupply(ctx context.Context, e *env, format string, qs []sqlQuery, b budget, tr *tracer, t *tally) *supplyOut {
	out := &supplyOut{}
	var want int64
	for _, rs := range e.sum.Relations {
		want += rs.Total
	}
	start := time.Now()
	for pass := 0; b.more(start, pass); pass++ {
		ps := tr.open(0, "supply.pass")
		supplyPass(ctx, e, format, qs, want, tr, ps.id, t, out)
		ps.close()
	}
	return out
}

func supplyPass(ctx context.Context, e *env, format string, qs []sqlQuery, want int64, tr *tracer, parent int64, t *tally, out *supplyOut) {
	dir := filepath.Join(e.dir, "materialized")
	defer os.RemoveAll(dir)

	// 1. Materialize without compression, matRepeats times (one round
	// is short); the last copy stays for the directory scan.
	var m0, m1 runtime.MemStats
	for i := 0; i < matRepeats; i++ {
		if !t.ok(os.RemoveAll(dir), "clear %s", dir) {
			return
		}
		runtime.GC()
		runtime.ReadMemStats(&m0)
		ms := tr.open(parent, "matgen.materialize")
		t0 := time.Now()
		rep, err := hydra.Materialize(e.sum, hydra.MaterializeOptions{Dir: dir, Format: format})
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if !t.ok(err, "materialize") {
			ms.close()
			return
		}
		ms.close("rows", rep.Rows, "bytes", rep.Bytes, "tables", len(rep.Tables))
		if !t.ok(check(rep.Rows == want, "materialized %d rows, summary holds %d", rep.Rows, want), "materialize rows") {
			return
		}
		out.matRate = append(out.matRate, float64(rep.Rows)/elapsed.Seconds())
		out.bytesPerRow = append(out.bytesPerRow, float64(rep.Bytes)/float64(rep.Rows))
		out.matAllocsPerTable = append(out.matAllocsPerTable, float64(m1.Mallocs-m0.Mallocs)/float64(len(rep.Tables)))
	}

	// Every timed step starts on a collected heap, so it does not pay
	// for the garbage of the step before it.

	// 2. Scan every relation of the directory.
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ds := tr.open(parent, "scan.dir")
	t0 := time.Now()
	src, err := hydra.OpenDirSource(dir)
	openDir := time.Since(t0)
	if !t.ok(err, "open dir") {
		ds.close()
		return
	}
	dirStats := scanAll(ctx, src, tr, ds.id, "scan.dir.table", t)
	src.Close()
	runtime.ReadMemStats(&m1)
	var rows int64
	var scanT, openT, nextT time.Duration
	for _, st := range dirStats {
		rows += st.rows
		openT += st.open
		nextT += st.next
	}
	scanT = openDir + openT + nextT
	ds.close("rows", rows, "open_s", (openDir + openT).Seconds(), "next_s", nextT.Seconds())
	out.dirRate = append(out.dirRate, float64(rows)/scanT.Seconds())
	out.dirAllocsPerRow = append(out.dirAllocsPerRow, float64(m1.Mallocs-m0.Mallocs)/float64(max(rows, 1)))

	// 3. Scan every relation by dynamic generation, dynRepeats times
	// (one round is short); its checksums are the reference for the
	// directory's.
	runtime.GC()
	ss := tr.open(parent, "scan.summary")
	var dynStats map[string]scanStat
	rows, scanT = 0, 0
	for i := 0; i < dynRepeats; i++ {
		round := scanAll(ctx, hydra.NewSummarySource(e.sum), tr, ss.id, "scan.summary.table", t)
		for tab, st := range round {
			rows += st.rows
			scanT += st.open + st.next
			if dynStats != nil {
				t.ok(check(dynStats[tab].hash == st.hash, "%s: summary scans disagree", tab), "summary checksum")
			}
		}
		if dynStats == nil {
			dynStats = round
		}
	}
	ss.close("rows", rows)
	out.dynRate = append(out.dynRate, float64(rows)/scanT.Seconds())
	for tab, d := range dirStats {
		g, ok := dynStats[tab]
		t.ok(check(ok && g.rows == d.rows && g.hash == d.hash,
			"%s: dir scan %d rows hash %x, summary scan %d rows hash %x", tab, d.rows, d.hash, g.rows, g.hash), "dir checksum")
	}

	// 4. The SQL query set through database/sql on a summary:// DSN.
	runtime.GC()
	var sqlN int
	var sqlT time.Duration
	for _, q := range qs {
		qsp := tr.open(parent, "sqldriver.query")
		t0 := time.Now()
		n, err := sqlCount(ctx, e, q)
		d := time.Since(t0)
		qsp.close("table", q.table, "rows", n, "covered", q.covered)
		if !t.ok(err, "sql %q", q.text) {
			continue
		}
		sqlN++
		sqlT += d
		t.ok(check(n == q.want, "%q returned %d rows, SummarySource %d", q.text, n, q.want), "sql count")
	}
	out.sqlQueries += sqlN
	out.sqlRate = append(out.sqlRate, float64(sqlN)/sqlT.Seconds())

	if tr != nil {
		layerProbes(ctx, e, format, qs, dir, tr, parent, t)
	}
}

// scanAll drains every relation of src, one child span per table.
func scanAll(ctx context.Context, src hydra.Source, tr *tracer, parent int64, name string, t *tally) map[string]scanStat {
	out := map[string]scanStat{}
	tabs, err := src.Tables()
	if !t.ok(err, "list tables") {
		return out
	}
	for _, tab := range tabs {
		sp := tr.open(parent, name)
		st, err := scanTable(ctx, src, hydra.ScanSpec{Table: tab})
		sp.close("table", tab, "rows", st.rows)
		if t.ok(err, "scan %s", tab) {
			out[tab] = st
		}
	}
	return out
}

func sqlCount(ctx context.Context, e *env, q sqlQuery) (int64, error) {
	rows, err := e.db.QueryContext(ctx, q.text)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	dst := make([]any, len(q.cols))
	vals := make([]int64, len(q.cols))
	for i := range dst {
		dst[i] = &vals[i]
	}
	var n int64
	for rows.Next() {
		if err := rows.Scan(dst...); err != nil {
			return n, err
		}
		n++
	}
	return n, rows.Err()
}

// layerProbes measures the layers under the supply path on their own,
// in traced runs only: tuple generation without the scan layer,
// materialization into the discard sink, per-table streams in format
// with their encode/write split, and each SQL filter through
// SummarySource.
func layerProbes(ctx context.Context, e *env, format string, qs []sqlQuery, dir string, tr *tracer, parent int64, t *tally) {
	tabs := make([]string, 0, len(e.sum.Relations))
	for tab := range e.sum.Relations {
		tabs = append(tabs, tab)
	}
	sort.Strings(tabs)
	var b tuplegen.Batch
	for _, tab := range tabs {
		g := tuplegen.New(e.sum.Relations[tab])
		sp := tr.open(parent, "tuplegen.fill")
		n := g.NumRows()
		for pk := int64(1); pk <= n; pk += matgen.DefaultBatchRows {
			g.Batch(pk, int(min(int64(matgen.DefaultBatchRows), n-pk+1)), &b)
		}
		sp.close("table", tab, "rows", n)
	}

	sp := tr.open(parent, "matgen.discard")
	rep, err := hydra.Materialize(e.sum, hydra.MaterializeOptions{Format: "discard"})
	if t.ok(err, "materialize discard") {
		sp.close("rows", rep.Rows)
	}

	if !t.ok(os.MkdirAll(dir, 0o755), "mkdir") {
		return
	}
	for _, tab := range tabs {
		sp := tr.open(parent, "matgen.stream")
		path := filepath.Join(dir, tab+".stream."+format)
		rep, err := streamTable(ctx, e.sum, tab, format, path)
		if !t.ok(err, "stream %s", tab) {
			sp.close("table", tab)
			continue
		}
		sp.close("table", tab, "rows", rep.Rows, "encode_s", rep.EncodeSeconds, "write_s", rep.WriteSeconds)
		os.Remove(path)
	}

	src := hydra.NewSummarySource(e.sum)
	for _, q := range qs {
		sp := tr.open(parent, "scan.summary_query")
		st, err := scanTable(ctx, src, hydra.ScanSpec{Table: q.table, Columns: q.cols, Filter: q.filter})
		sp.close("table", q.table, "rows", st.rows)
		t.ok(err, "summary query %q", q.text)
	}
}

func streamTable(ctx context.Context, sum *hydra.Summary, tab, format, path string) (*matgen.StreamReport, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	rep, err := matgen.Stream(ctx, sum, matgen.StreamOptions{Table: tab, Format: format}, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return rep, err
}

func (o *supplyOut) endToEnd(m metrics) {
	m.set("materialize_rows_per_s", median(o.matRate), len(o.matRate))
	m.set("disk_bytes_per_row", median(o.bytesPerRow), len(o.bytesPerRow))
	m.set("dir_scan_rows_per_s", median(o.dirRate), len(o.dirRate))
	m.set("dynamic_scan_rows_per_s", median(o.dynRate), len(o.dynRate))
	m.set("sql_queries_per_s", median(o.sqlRate), o.sqlQueries)
}

// perLayer derives the supply-path layer metrics from the traced
// passes' spans; allocation counts come from the untraced passes.
func (base *supplyOut) perLayer(m metrics, spans []span) {
	rs := rollup(spans, "supply.pass")
	n := len(rs)
	per := func(f func(r map[string]float64) float64) float64 { return medianOf(rs, f) }
	m.set("tuplegen.fill_rows_per_s", per(func(r map[string]float64) float64 {
		return ratio(r["tuplegen.fill.rows"], r["tuplegen.fill:dur_s"])
	}), n)
	m.set("matgen.discard_rows_per_s", per(func(r map[string]float64) float64 {
		return ratio(r["matgen.discard.rows"], r["matgen.discard:dur_s"])
	}), n)
	m.set("matgen.encode_s", per(func(r map[string]float64) float64 { return r["matgen.stream.encode_s"] }), n)
	m.set("matgen.write_s", per(func(r map[string]float64) float64 { return r["matgen.stream.write_s"] }), n)
	m.set("matgen.allocs_per_table", median(base.matAllocsPerTable), len(base.matAllocsPerTable))
	m.set("scan.dir_open_s", per(func(r map[string]float64) float64 { return r["scan.dir.open_s"] }), n)
	m.set("scan.dir_next_s", per(func(r map[string]float64) float64 { return r["scan.dir.next_s"] }), n)
	m.set("scan.dir_allocs_per_row", median(base.dirAllocsPerRow), len(base.dirAllocsPerRow))
	m.set("pred.rows_covered_per_returned", per(func(r map[string]float64) float64 {
		return ratio(r["sqldriver.query.covered"], r["sqldriver.query.rows"])
	}), n)
	// Half the queries return their whole range and half next to
	// nothing, so the mean per query is steady where the median is not.
	m.set("sqldriver.query_s", per(func(r map[string]float64) float64 {
		return ratio(r["sqldriver.query:dur_s"], r["sqldriver.query:n"])
	}), n)
	m.set("scan.summary_query_s", per(func(r map[string]float64) float64 {
		return ratio(r["scan.summary_query:dur_s"], r["scan.summary_query:n"])
	}), n)
}

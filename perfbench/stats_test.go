package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"github.com/dsl-repro/hydra"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50}, {0, 15},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	// p99 of 100 samples is the 99th smallest, not an interpolation.
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if hundred[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 1..4 = %v, want 2 (lower middle)", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 50) once.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild reduces its parent, not the root.
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
	}
	got := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 20, 4: 30, 5: 10}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {6, 8}}, 4},
		{0, 10, [][2]int64{{6, 8}, {2, 7}}, 6},
		{0, 10, [][2]int64{{-5, 3}, {9, 20}}, 4},
		{0, 10, [][2]int64{{4, 4}, {12, 15}}, 0},
		{0, 10, [][2]int64{{1, 3}, {3, 5}}, 4},
	} {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestRollup(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "lp.solve", Start: 0, End: 60, Attrs: map[string]any{"pivots": 7, "soft": true, "view": "t"}},
		{ID: 3, Parent: 1, Name: "lp.solve", Start: 60, End: 80, Attrs: map[string]any{"pivots": int64(3)}},
		{ID: 4, Name: "pass", Start: 200, End: 210},
		{ID: 5, Name: "other", Start: 0, End: 5},
	}
	rs := rollup(spans, "pass")
	if len(rs) != 2 {
		t.Fatalf("got %d roots, want 2", len(rs))
	}
	r := rs[0]
	if r["lp.solve.pivots"] != 10 || r["lp.solve.soft"] != 1 || r["lp.solve:n"] != 2 || r["lp.solve.view"] != 0 {
		t.Errorf("first pass rollup = %v", r)
	}
	if math.Abs(r["pass:self_s"]-20e-9) > 1e-15 || math.Abs(r["lp.solve:dur_s"]-80e-9) > 1e-15 {
		t.Errorf("first pass times = %v", r)
	}
	if rs[1]["lp.solve:n"] != 0 || rs[1]["pass:n"] != 1 {
		t.Errorf("second pass rollup = %v", rs[1])
	}
}

// batches cuts rows (row-major) into column-major batches of size n.
func batches(rows [][]int64, n int) []*hydra.RowBatch {
	var out []*hydra.RowBatch
	for i := 0; i < len(rows); i += n {
		end := min(len(rows), i+n)
		b := &hydra.RowBatch{Start: int64(i + 1), N: end - i, Cols: make([][]int64, len(rows[0]))}
		for c := range b.Cols {
			for _, r := range rows[i:end] {
				b.Cols[c] = append(b.Cols[c], r[c])
			}
		}
		out = append(out, b)
	}
	return out
}

func hashOf(bs []*hydra.RowBatch) uint64 {
	var h rowHash
	for _, b := range bs {
		h.add(b)
	}
	return h.sum()
}

func TestRowHash(t *testing.T) {
	rows := [][]int64{{1, 10, 7}, {2, 10, 7}, {3, 11, 8}, {4, 11, 8}, {5, 12, -1}}
	whole := hashOf(batches(rows, len(rows)))
	for _, n := range []int{1, 2, 3} {
		if got := hashOf(batches(rows, n)); got != whole {
			t.Errorf("batches of %d hash %x, whole stream %x", n, got, whole)
		}
	}
	swapped := [][]int64{rows[1], rows[0], rows[2], rows[3], rows[4]}
	changed := [][]int64{rows[0], rows[1], rows[2], rows[3], {5, 12, -2}}
	short := rows[:4]
	for name, rs := range map[string][][]int64{"reordered": swapped, "changed": changed, "short": short} {
		if hashOf(batches(rs, 2)) == whole {
			t.Errorf("%s rows hash like the original", name)
		}
	}
	// A padded batch hashes only its first N rows.
	b := batches(rows, len(rows))[0]
	b.Cols[0] = append(b.Cols[0], 99)
	if got := hashOf([]*hydra.RowBatch{b}); got != whole {
		t.Error("rows beyond N changed the hash")
	}
	var empty rowHash
	if empty.sum() == whole {
		t.Error("no rows hash like five")
	}
}

func TestPromTotals(t *testing.T) {
	text := []byte(`# HELP hydra_fleet_retries_total Retries.
# TYPE hydra_fleet_retries_total counter
hydra_fleet_retries_total{reason="busy"} 3
hydra_fleet_retries_total{reason="a b"} 2 1700000000
hydra_fleet_retries_total_extra 40
hydra_scan_remote_failovers_total 1
`)
	got := promTotals(text, "hydra_fleet_retries_total", "hydra_scan_remote_failovers_total", "hydra_absent_total")
	if got["hydra_fleet_retries_total"] != 5 || got["hydra_scan_remote_failovers_total"] != 1 || got["hydra_absent_total"] != 0 {
		t.Errorf("promTotals = %v", got)
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the metrics the program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, sec := range []struct {
		name string
		got  []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEndDefs}, {"per_layer", b.PerLayer, perLayerDefs}} {
		if len(sec.got) != len(sec.defs) {
			t.Errorf("%s lists %d metrics, the program reports %d", sec.name, len(sec.got), len(sec.defs))
			continue
		}
		for i, d := range sec.defs {
			better := map[bool]string{true: "higher", false: "lower"}[d.higher]
			if g := sec.got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s[%d] = %+v, program has %s %s %s", sec.name, i, g, d.name, d.unit, better)
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// Python: statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
	if s := spread([]float64{10, 10, 10, 10}); s != 0 {
		t.Errorf("spread of constants = %v", s)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		wantV float64
		wantQ float64
	}{
		{n: 2000, wantV: 1980, wantQ: 0.99}, // p99 itself has 20 beyond
		{n: 1000, wantV: 990, wantQ: 0.99},  // exactly ten beyond
		{n: 500, wantV: 490, wantQ: 0.98},   // p99 would leave 5: drop to p98
		{n: 100, wantV: 90, wantQ: 0.90},
		{n: 14, wantV: 7, wantQ: 0.5}, // never below the median
	} {
		v, q := tail(seq(tc.n), 0.99)
		if v != tc.wantV || !near(q, tc.wantQ) {
			t.Errorf("n=%d: tail = %v at q=%v; want %v at %v", tc.n, v, q, tc.wantV, tc.wantQ)
		}
		if tc.n >= 20 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
			}
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean(1,4,16) = %v", got)
	}
	if got := geomean([]float64{7}); !near(got, 7) {
		t.Errorf("geomean(7) = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(x int64) int64 { return x * int64(time.Millisecond) }
	spans := []span{
		{Name: "job", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(30), Parent: 0},
		{Name: "b", Start: ms(20), End: ms(50), Parent: 0},  // overlaps a: covered once
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0}, // clipped to the parent
		{Name: "a.child", Start: ms(12), End: ms(18), Parent: 1},
	}
	want := []time.Duration{
		(100 - 40 - 10) * time.Millisecond, // 10..50 and 90..100 covered
		14 * time.Millisecond,
		30 * time.Millisecond,
		30 * time.Millisecond,
		6 * time.Millisecond,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v; want %v", spans[i].Name, got[i], want[i])
		}
	}
	tt := totals(spans)
	if tt.self["a"] != 14*time.Millisecond || tt.dur["a"] != 20*time.Millisecond || tt.count["a"] != 1 {
		t.Errorf("totals for a: self %v dur %v count %d", tt.self["a"], tt.dur["a"], tt.count["a"])
	}
}

func TestCompareRunsVerdicts(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	for _, tc := range []struct {
		name         string
		b            []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"faster throughput", shift(parent, 10), true, 0.05, verdictImproved},
		{"lower latency", shift(parent, -10), false, 0.05, verdictImproved},
		{"same", parent, true, 0.05, verdictNoChange},
		{"small loss within bound", shift(parent, -2), true, 0.05, verdictNoChange},
		{"regression past bound", shift(parent, -10), true, 0.05, verdictWorse},
		{"latency regression", shift(parent, 10), false, 0.05, verdictWorse},
	} {
		if got := compareRuns(parent, tc.b, tc.higherBetter, tc.bound); got.Verdict != tc.want {
			t.Errorf("%s: verdict %q (%+v); want %q", tc.name, got.Verdict, got, tc.want)
		}
	}

	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if got := compareRuns(noisy, noisy, true, 0.05); got.Verdict != verdictUnresolved {
		t.Errorf("spread wider than the bound: verdict %q; want unresolved", got.Verdict)
	}
	// Every run of the change above every run of the parent settles it,
	// even with a wide spread — here as a gain, since it also wins every
	// pair by more than the parent's interquartile distance.
	if got := compareRuns(noisy, shift(noisy, 100), true, 0.05); got.Verdict != verdictImproved {
		t.Errorf("all runs better: verdict %q; want improved", got.Verdict)
	}
	// Winning 8 of 10 pairs is not a gain.
	b := shift(parent, 5)
	b[0], b[1] = parent[0]-1, parent[1]-1
	if got := compareRuns(parent, b, true, 0.5); got.Verdict == verdictImproved {
		t.Errorf("8/10 wins counted as a gain: %+v", got)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the names and units the
// program prints in step with the benchmark's declaration.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workload {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(spec.Workload) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workload), len(workloads))
	}
}

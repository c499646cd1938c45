package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRegistryExposition pins the text format: HELP/TYPE headers in
// registration order, ordered-then-sorted label series, integer and
// float values, labelled and unlabelled histograms, and hooks rendered
// in place.
func TestRegistryExposition(t *testing.T) {
	var r Registry
	r.Counter("c_total", "A counter.").Add(3)
	v := NewVec[Counter]("op", "b", "a")
	v.With("z").Inc()
	v.With("a").Add(2)
	v.With("y").Inc()
	r.Register("ops_total", "Ops by kind.", v)
	r.Collect(func(w *Writer) {
		var h HistogramValue
		h.Observe(0.5)
		h.Observe(20)
		w.Family("d_seconds", "Decode time.", h)
		w.GaugeFloat("up_seconds", "Uptime.", 1.5)
	})
	f := NewVec[FloatCounter]("stage", "trace")
	f.With("trace").Add(0.25)
	r.Register("f_seconds_total", "Float counter.", f)
	hv := NewVec[Histogram]("stage")
	hv.With("x").Observe(1e-6)
	r.Register("s_seconds", "Stage time.", hv)
	r.Gauge("g", "A gauge.").Add(-2)

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP c_total A counter.
# TYPE c_total counter
c_total 3
# HELP ops_total Ops by kind.
# TYPE ops_total counter
ops_total{op="a"} 2
ops_total{op="y"} 1
ops_total{op="z"} 1
# HELP d_seconds Decode time.
# TYPE d_seconds histogram
d_seconds_bucket{le="1e-06"} 0
d_seconds_bucket{le="1e-05"} 0
d_seconds_bucket{le="0.0001"} 0
d_seconds_bucket{le="0.001"} 0
d_seconds_bucket{le="0.01"} 0
d_seconds_bucket{le="0.1"} 0
d_seconds_bucket{le="1"} 1
d_seconds_bucket{le="10"} 1
d_seconds_bucket{le="+Inf"} 2
d_seconds_sum 20.5
d_seconds_count 2
# HELP up_seconds Uptime.
# TYPE up_seconds gauge
up_seconds 1.5
# HELP f_seconds_total Float counter.
# TYPE f_seconds_total counter
f_seconds_total{stage="trace"} 0.25
# HELP s_seconds Stage time.
# TYPE s_seconds histogram
s_seconds_bucket{stage="x",le="1e-06"} 1
s_seconds_bucket{stage="x",le="1e-05"} 1
s_seconds_bucket{stage="x",le="0.0001"} 1
s_seconds_bucket{stage="x",le="0.001"} 1
s_seconds_bucket{stage="x",le="0.01"} 1
s_seconds_bucket{stage="x",le="0.1"} 1
s_seconds_bucket{stage="x",le="1"} 1
s_seconds_bucket{stage="x",le="10"} 1
s_seconds_bucket{stage="x",le="+Inf"} 1
s_seconds_sum{stage="x"} 1e-06
s_seconds_count{stage="x"} 1
# HELP g A gauge.
# TYPE g gauge
g -2
`
	if got := sb.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestConcurrentRecording records into shared series from several
// goroutines while rendering; run under -race.
func TestConcurrentRecording(t *testing.T) {
	var r Registry
	c := r.Counter("c_total", "C.")
	f := NewVec[FloatCounter]("k")
	h := NewVec[Histogram]("k")
	r.Register("f_total", "F.", f)
	r.Register("h_seconds", "H.", h)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				f.With("a").Add(0.5)
				h.With("a").Observe(1e-3)
			}
		}()
	}
	for i := 0; i < 10; i++ {
		r.WriteTo(&strings.Builder{}) //nolint:errcheck // a Builder never fails
	}
	wg.Wait()
	if c.Value() != 4000 || f.With("a").Value() != 2000 || h.With("a").Value().Count != 4000 {
		t.Fatalf("lost updates: c=%d f=%g h=%d", c.Value(), f.With("a").Value(), h.With("a").Value().Count)
	}
}

// Package obs is the one metrics implementation behind GET /metrics:
// integer counters and gauges, a float counter, one fixed-bucket
// histogram, single-label families that resolve each series once,
// collect-at-render hooks for values read live from their owners, and a
// deterministic Prometheus text renderer.
//
// Recording (Inc, Add, Observe, and With on a series already resolved)
// never allocates, so it can sit on the request path.
package obs

import (
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// bounds are the histogram upper bounds, in seconds: decades from a
// microsecond (a stage on a tiny cold function, a small bundle decode)
// to ten seconds (trace/reduce on the largest benchmark at full
// coverage), so every duration histogram reads on one scale.
var bounds = [...]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// Metric is a value a family renders: the types of this package.
type Metric interface {
	kind() string
	put(w *Writer, name, labels string)
}

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

func (c *Counter) Inc()         { c.v.Add(1) }
func (c *Counter) Add(n int64)  { c.v.Add(n) }
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) kind() string                       { return "counter" }
func (c *Counter) put(w *Writer, name, labels string) { w.line(name, labels, itoa(c.Value())) }

// Gauge is an integer that goes up and down.
type Gauge struct{ Counter }

func (g *Gauge) kind() string { return "gauge" }

// FloatCounter is a monotonically increasing float, such as seconds.
type FloatCounter struct{ bits atomic.Uint64 }

func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *FloatCounter) kind() string                       { return "counter" }
func (c *FloatCounter) put(w *Writer, name, labels string) { w.line(name, labels, ftoa(c.Value())) }

// HistogramValue is a cumulative histogram over the package's decade
// bounds (Prometheus semantics: Buckets[i] counts observations no
// larger than the i-th bound). It is a plain value; owners that already
// hold a lock can embed one, everyone else uses Histogram.
type HistogramValue struct {
	Buckets [len(bounds)]int64
	Sum     float64
	Count   int64
}

// Observe records one duration in seconds.
func (v *HistogramValue) Observe(sec float64) {
	for i, ub := range bounds {
		if sec <= ub {
			v.Buckets[i]++
		}
	}
	v.Sum += sec
	v.Count++
}

func (v HistogramValue) kind() string { return "histogram" }

func (v HistogramValue) put(w *Writer, name, labels string) {
	le := `le="`
	if labels != "" {
		le = labels + "," + le
	}
	for i, ub := range bounds {
		w.line(name+"_bucket", le+ftoa(ub)+`"`, itoa(v.Buckets[i]))
	}
	w.line(name+"_bucket", le+`+Inf"`, itoa(v.Count))
	w.line(name+"_sum", labels, ftoa(v.Sum))
	w.line(name+"_count", labels, itoa(v.Count))
}

// Histogram is a HistogramValue safe for concurrent use.
type Histogram struct {
	mu sync.Mutex
	v  HistogramValue
}

// Observe records one duration in seconds.
func (h *Histogram) Observe(sec float64) {
	h.mu.Lock()
	h.v.Observe(sec)
	h.mu.Unlock()
}

// Value returns a snapshot.
func (h *Histogram) Value() HistogramValue {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.v
}

func (h *Histogram) kind() string                       { return "histogram" }
func (h *Histogram) put(w *Writer, name, labels string) { h.Value().put(w, name, labels) }

// Vec is a family of series told apart by one label. With resolves a
// label value's series on first use and returns that same series after;
// a series exists in the output from its first With on. Series render
// in the order given to NewVec, then by label value.
type Vec[M Metric] struct {
	label  string
	typ    string // the series' metric type
	rank   map[string]int
	newM   func() M
	mu     sync.Mutex
	series map[string]M
}

// NewVec returns an empty family of T-valued series labelled label.
// order lists label values in render order; values not in it follow,
// sorted.
func NewVec[T any, M interface {
	*T
	Metric
}](label string, order ...string) *Vec[M] {
	rank := make(map[string]int, len(order))
	for i, v := range order {
		rank[v] = i
	}
	newM := func() M { return new(T) }
	return &Vec[M]{label: label, typ: newM().kind(), rank: rank, newM: newM, series: map[string]M{}}
}

// With returns the series for label value v, creating it once.
func (vec *Vec[M]) With(v string) M {
	vec.mu.Lock()
	defer vec.mu.Unlock()
	m, ok := vec.series[v]
	if !ok {
		m = vec.newM()
		vec.series[v] = m
	}
	return m
}

// Len is the number of series resolved so far.
func (vec *Vec[M]) Len() int {
	vec.mu.Lock()
	defer vec.mu.Unlock()
	return len(vec.series)
}

func (vec *Vec[M]) kind() string { return vec.typ }

func (vec *Vec[M]) put(w *Writer, name, _ string) {
	type entry struct {
		v    string
		rank int
		m    M
	}
	vec.mu.Lock()
	es := make([]entry, 0, len(vec.series))
	for v, m := range vec.series {
		r, ok := vec.rank[v]
		if !ok {
			r = len(vec.rank)
		}
		es = append(es, entry{v, r, m})
	}
	vec.mu.Unlock()
	sort.Slice(es, func(i, j int) bool {
		if es[i].rank != es[j].rank {
			return es[i].rank < es[j].rank
		}
		return es[i].v < es[j].v
	})
	for _, e := range es {
		e.m.put(w, name, vec.label+"="+strconv.Quote(e.v))
	}
}

// Registry is an ordered list of families; WriteTo renders them in
// registration order. Register families before concurrent use.
type Registry struct{ fams []func(*Writer) }

// Register adds the family name, rendered from m.
func (r *Registry) Register(name, help string, m Metric) {
	r.Collect(func(w *Writer) { w.Family(name, help, m) })
}

// Collect adds a hook that renders, at each WriteTo, the families whose
// values are read live from their owner (or are present only
// sometimes), in this position of the registration order.
func (r *Registry) Collect(hook func(*Writer)) { r.fams = append(r.fams, hook) }

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.Register(name, help, c)
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := new(Gauge)
	r.Register(name, help, g)
	return g
}

// WriteTo renders every family in Prometheus text exposition format.
func (r *Registry) WriteTo(out io.Writer) (int64, error) {
	var w Writer
	for _, f := range r.fams {
		f(&w)
	}
	n, err := out.Write(w.b)
	return int64(n), err
}

// Writer accumulates Prometheus text exposition.
type Writer struct{ b []byte }

// Family writes the HELP and TYPE lines of family name and m's samples.
func (w *Writer) Family(name, help string, m Metric) {
	w.header(name, help, m.kind())
	m.put(w, name, "")
}

// Counter writes a counter family with one value read at render time.
func (w *Writer) Counter(name, help string, v int64) {
	w.header(name, help, "counter")
	w.line(name, "", itoa(v))
}

// Gauge writes a gauge family with one value read at render time.
func (w *Writer) Gauge(name, help string, v int64) {
	w.header(name, help, "gauge")
	w.line(name, "", itoa(v))
}

// GaugeFloat writes a float gauge family with one value read at render
// time.
func (w *Writer) GaugeFloat(name, help string, v float64) {
	w.header(name, help, "gauge")
	w.line(name, "", ftoa(v))
}

func (w *Writer) header(name, help, kind string) {
	w.b = append(w.b, "# HELP "+name+" "+help+"\n# TYPE "+name+" "+kind+"\n"...)
}

// line writes one sample: name, labels (if any) in braces, value.
func (w *Writer) line(name, labels, value string) {
	if labels != "" {
		name += "{" + labels + "}"
	}
	w.b = append(w.b, name+" "+value+"\n"...)
}

func itoa(v int64) string   { return strconv.FormatInt(v, 10) }
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

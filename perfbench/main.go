// Command perfbench is pathflow's end-to-end benchmark. One process runs
// one named workload against the public APIs of the compiler front end
// (lang), the profiler (bl, interp), the staged pipeline engine and the
// analysis server, checks every output, and prints each metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around every layer call and reports per-layer
// metrics instead. End-to-end times are the process's CPU time, not the
// wall clock, scaled by a calibration run between operations to the
// speed of a reference host: on a shared virtual machine the wall clock
// also counts the time the host gives to other tenants, and the CPU
// clock still counts the time lost to them inside the benchmark's own
// time slices (see calibrate.go). Workloads:
//
//	suite-cold      closed loop, one client: cold jobs on the 7 built-in
//	                programs (compile, profiled train run, full pipeline,
//	                profiled ref run, evaluation)
//	suite-feasible  the same jobs with feasible-path qualification on
//	                (Options.Feasible), where branch-correlation
//	                detection dominates
//	serve-live      an in-process analysis server on loopback under a
//	                closed loop of one client mixing warm analyses,
//	                profile ingestion, live analyses, inline-source
//	                edits and malformed requests
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	sh perfbench/run.sh compare DIR_A DIR_B   # verdict per workload and metric
//	sh perfbench/run.sh report DIR            # layer self-time shares
//
// Every run also writes its result, and with --trace 1 its spans, under
// --out (default .bench_build/perfbench/results); compare and report
// read those files.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; the lists below must match
// BENCHMARK.json, in order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_cpu_ms.geomean", "ms"},
	{"const_dyn_pct", "%"},
	{"req_per_cpu_s", "1/s"},
	{"req_cpu_ms.p50", "ms"},
	{"req_cpu_ms.p99", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"lang.compile_ms", "ms"}, {"lang.ir_instrs", "count"},
	{"interp.run_ms", "ms"}, {"interp.blocks", "count"},
	{"bl.profile_ms", "ms"}, {"bl.paths", "count"},
	{"profile.select_ms", "ms"}, {"profile.translate_ms", "ms"}, {"profile.hot_paths", "count"},
	{"automaton.build_ms", "ms"}, {"automaton.states", "count"},
	{"trace.build_ms", "ms"}, {"trace.hpg_nodes", "count"},
	{"constprop.cfg_ms", "ms"}, {"constprop.hpg_ms", "ms"},
	{"reduce.ms", "ms"}, {"reduce.rhpg_nodes", "count"},
	{"feasible.detect_ms", "ms"}, {"feasible.detect_calls", "count"}, {"feasible.infeasible_edges", "count"},
	{"liveness.ms", "ms"}, {"availexpr.ms", "ms"},
	{"eval.ms", "ms"},
	{"engine.overhead_ms", "ms"}, {"engine.cache_hit_ratio", "ratio"},
	{"kernel.hpg_solve_ms.packed", "ms"}, {"kernel.hpg_solve_ms.sparse", "ms"}, {"kernel.hpg_solve_ms.boxed", "ms"},
	{"serve.req_ms.hit.p50", "ms"}, {"serve.req_ms.ingest.p50", "ms"}, {"serve.req_ms.live.p50", "ms"},
	{"serve.req_ms.source.p50", "ms"}, {"serve.req_ms.bad.p50", "ms"},
	{"stream.requalify_ratio", "ratio"}, {"stream.live_computed_stages", "count"},
	{"diskcache.writes", "count"}, {"diskcache.write_mb", "MB"},
	{"goruntime.gc_cpu_frac", "ratio"}, {"goruntime.alloc_mb_per_op", "MB"},
	{"tracing.ops_per_cpu_s", "1/s"},
}

// runConfig is one run's command line.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	// rss samples resident memory; a workload stops it when its load
	// ends, before any checks of its own.
	rss *rssSampler
}

// outcome is what a workload measured. Values holds every metric it
// computed; the result line carries the end-to-end or per-layer
// subset, and per-layer metrics a workload does not exercise read 0.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	// layers is the self time per operation (ms) of each layer, from a
	// traced run; report turns it into shares.
	layers map[string]float64
	// notes are human-readable lines printed before the result.
	notes []string
	// errs describes the first failures.
	errs []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, layers: map[string]float64{}}
}

// fail counts one failed operation and keeps its description.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 20 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// workloadFunc runs one workload for cfg.seconds and returns what it
// measured, including setup_s; it calls cfg.rss.peak() when its load
// ends.
type workloadFunc func(cfg runConfig, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"suite-cold":     func(cfg runConfig, tr *tracer) (*outcome, error) { return runSuite(cfg, tr, false) },
	"suite-feasible": func(cfg runConfig, tr *tracer) (*outcome, error) { return runSuite(cfg, tr, true) },
	"serve-live":     runServeLive,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(cmdCompare(os.Args[2:]))
		case "report":
			os.Exit(cmdReport(os.Args[2:]))
		}
	}
	os.Exit(cmdRun(os.Args[1:]))
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: suite-cold, suite-feasible or serve-live")
	seed := fs.Uint64("seed", 0, "workload seed (0 keeps the suite's own input streams)")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench", "results"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloads[*workload]
	if !ok || fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seed, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	cfg.rss = startRSS()
	o, err := wf(cfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	o.values["peak_rss_mb"] = cfg.rss.peak()
	o.notes = append(o.notes, fmt.Sprintf("# VmHWM %.1f MB (set-up, load and checks)", peakRSSMB()))

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) { // nothing measured: only when operations failed
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := o.values[d.name]; ok {
			fmt.Printf("%-30s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	fmt.Printf("%-30s %14.6g %s\n", "failed_frac", float64(o.failed)/float64(max(o.attempted, 1)), "ratio")
	for _, e := range o.errs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
	if err := saveRun(cfg, res, o, tr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runFile is what compare and report read back: one run's result plus
// the per-layer self times.
type runFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    bool               `json:"trace"`
	Result   result             `json:"result"`
	Layers   map[string]float64 `json:"layers,omitempty"`
}

func saveRun(cfg runConfig, res result, o *outcome, tr *tracer) error {
	base := fmt.Sprintf("%s.seed%d.trace%d.%d", cfg.workload, cfg.seed, b2i(cfg.trace), time.Now().UnixNano())
	data, err := json.MarshalIndent(runFile{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Result: res, Layers: o.layers}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, base+".json"), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	if tr != nil {
		return tr.write(filepath.Join(cfg.out, base+".spans.jsonl"))
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rssSampler samples the process's resident set size every 10ms from
// set-up until the end of the load.
type rssSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	samples []float64
}

func startRSS() *rssSampler {
	r := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if mb, err := residentMB(); err == nil {
				r.samples = append(r.samples, mb)
			}
			select {
			case <-r.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// peak stops the sampler (once) and returns the 90th percentile of the
// samples. The maximum itself is one sample, decided by where a GC
// cycle happened to fall; the 90th percentile is the high-water mark a
// workload holds for a tenth of its run.
func (r *rssSampler) peak() float64 {
	select {
	case <-r.done:
	default:
		close(r.stopc)
		<-r.done
	}
	if len(r.samples) == 0 {
		return 0
	}
	s := sortedCopy(r.samples)
	return s[(len(s)*9)/10]
}

// residentMB reads the current resident set size.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("unexpected /proc/self/statm: %q", data)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// rtSample is a reading of the Go runtime's cumulative allocation and
// CPU counters.
type rtSample struct {
	allocBytes, gcCPU, totalCPU float64
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}

// rtAccum sums runtime counter deltas over the measured intervals only.
type rtAccum struct{ alloc, gc, total float64 }

func (a *rtAccum) add(from, to rtSample) {
	a.alloc += to.allocBytes - from.allocBytes
	a.gc += to.gcCPU - from.gcCPU
	a.total += to.totalCPU - from.totalCPU
}

// setOn records the goruntime metrics for ops operations.
func (a *rtAccum) setOn(o *outcome, ops int) {
	if a.total > 0 {
		o.values["goruntime.gc_cpu_frac"] = a.gc / a.total
	}
	if ops > 0 {
		o.values["goruntime.alloc_mb_per_op"] = a.alloc / float64(ops) / (1 << 20)
	}
}

// cpuTime returns the CPU time the process has used so far, summed over
// its threads (CLOCK_PROCESS_CPUTIME_ID). Time the host's hypervisor or
// scheduler gives to others is not in it, so it measures the program's
// work even where the wall clock measures the neighbours.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", e)) // the clock exists on every Linux
	}
	return time.Duration(ts.Nano())
}

// toMS converts a duration to milliseconds.
func toMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupTimes are the set-ups of one run, in seconds.
type setupTimes struct{ scaled, cpu, wall []float64 }

// timeSetup runs setup reps times, each in a calibration window of its
// own, and returns the scaled CPU time, the CPU time and the wall time
// of each. The workload keeps the last set-up and releases the others.
func timeSetup(reps int, cal *calibrator, setup func() error) (setupTimes, error) {
	var st setupTimes
	for i := 0; i < reps; i++ {
		w := cal.window()
		for j := 0; j < 3; j++ {
			cal.sample()
		}
		c0, t0 := cpuTime(), time.Now()
		if err := setup(); err != nil {
			return st, err
		}
		st.wall = append(st.wall, time.Since(t0).Seconds())
		c := (cpuTime() - c0).Seconds()
		for j := 0; j < 2; j++ { // the window brackets the set-up
			cal.sample()
		}
		st.cpu = append(st.cpu, c)
		st.scaled = append(st.scaled, c*cal.scale(w))
	}
	return st, nil
}

// note describes every set-up of a run.
func (st setupTimes) note() string {
	return fmt.Sprintf("# set-up scaled CPU s %.3f (CPU s %.3f, wall s %.3f); setup_s is the median scaled CPU time", st.scaled, st.cpu, st.wall)
}

// splitmix64 derives seeded streams; the same seed gives the same inputs.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// shuffle permutes xs in place.
func shuffle[T any](rng *splitmix64, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

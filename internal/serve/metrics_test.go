package serve

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"pathflow/internal/engine"
)

var update = flag.Bool("update", false, "rewrite golden files")

// timeSeries matches the /metrics sample lines whose values are derived
// from wall-clock time; the golden masks their values and pins the rest.
// pathflow_diskcache_bytes is among them: every persisted bundle carries
// its stages' measured compute costs as varints, so its size moves by a
// byte or two with the timings.
var timeSeries = regexp.MustCompile(`^(pathflow_uptime_seconds|\w+_seconds_sum|\w+_seconds_bucket|pathflow_stage_decode_seconds_total|pathflow_diskcache_bytes)(\{.*\})? `)

func maskTimes(text string) string {
	lines := strings.SplitAfter(text, "\n")
	for i, l := range lines {
		if m := timeSeries.FindString(l); m != "" {
			lines[i] = m + "<time>\n"
		}
	}
	return strings.Join(lines, "")
}

// TestMetricsGolden pins the full GET /metrics exposition — every family
// name, help string, label set, series order and value format — for a
// server with a persistent cache dir and a fabric coordinator: once
// after a cold analyze, and once on a restarted server after a
// disk-warm repeat of that analyze and one streamed profile batch.
// Time-derived values are masked. Run with -update to rewrite.
func TestMetricsGolden(t *testing.T) {
	dir := t.TempDir()
	scrape := func(ts *httptest.Server) string {
		t.Helper()
		resp, data := getBody(t, ts.URL+"/metrics")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status = %d", resp.StatusCode)
		}
		return maskTimes(string(data))
	}
	analyze := func(ts *httptest.Server) {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/analyze?wait=1", analyzeBody(t))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze: %d %s", resp.StatusCode, data)
		}
		if job := decodeJob(t, data); job.State != JobDone {
			t.Fatalf("job state = %q (%+v)", job.State, job.Error)
		}
	}

	var got strings.Builder
	srvA := mustNew(t, Config{CacheDir: dir, Fabric: true})
	tsA := httptest.NewServer(srvA.Handler())
	analyze(tsA)
	got.WriteString("## cold analyze\n" + scrape(tsA))
	tsA.Close()
	srvA.jobs.Shutdown()

	srvB := mustNew(t, Config{CacheDir: dir, Fabric: true})
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	defer srvB.jobs.Shutdown()
	analyze(tsB)
	if resp, data := postJSON(t, tsB.URL+"/v1/profiles", flipBody(t, tsB.URL, 1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, data)
	}
	got.WriteString("## restart, disk-warm analyze, profile ingest\n" + scrape(tsB))

	path := filepath.Join("testdata", "metrics.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got.String() != string(want) {
		t.Errorf("/metrics drifted from %s:\n--- got ---\n%s", path, got.String())
	}
}

// TestObserveStageAllocFree: once a stage's series exist, recording a
// stage event — computed or replayed from disk — allocates nothing, so
// the metrics cost on the request path stays flat.
func TestObserveStageAllocFree(t *testing.T) {
	sm := newServerMetrics(func() engine.CacheStats { return engine.CacheStats{} })
	computed := engine.StageEvent{Stage: engine.StageTrace, Duration: 3 * time.Millisecond}
	replayed := engine.StageEvent{Stage: engine.StageTrace, Cached: true, Source: engine.SourceDisk, Decode: time.Microsecond}
	sm.observeStage(computed)
	sm.observeStage(replayed)
	if n := testing.AllocsPerRun(100, func() {
		sm.observeStage(computed)
		sm.observeStage(replayed)
	}); n != 0 {
		t.Fatalf("observeStage allocates %.1f times per call pair in steady state", n)
	}
}

package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pathflow/internal/engine"
	"pathflow/internal/engine/diskcache"
)

func newTestQueue(cfg Config) *queue { return newQueue(cfg, NewMetrics(nil)) }

func spec(s string) TaskSpec { return TaskSpec{Spec: json.RawMessage(s)} }

// --- Queue discipline -------------------------------------------------------

func TestQueueLeaseOrder(t *testing.T) {
	q := newTestQueue(Config{})
	q.submit([]TaskSpec{
		{Spec: json.RawMessage(`"a"`), Priority: 1},
		{Spec: json.RawMessage(`"b"`), Priority: 5},
		{Spec: json.RawMessage(`"c"`), Priority: 5},
	}, nil)
	now := time.Now()
	var got []string
	for i := 0; i < 3; i++ {
		tk, _ := q.lease("w1", now)
		if tk == nil {
			t.Fatalf("lease %d: no task", i)
		}
		got = append(got, string(tk.spec))
	}
	// Priority first, then submission order within a priority.
	want := []string{`"b"`, `"c"`, `"a"`}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lease order = %v, want %v", got, want)
		}
	}
	if tk, _ := q.lease("w1", now); tk != nil {
		t.Fatalf("lease on drained queue returned %q", tk.spec)
	}
}

func TestQueueAffinityBeatsPriority(t *testing.T) {
	q := newTestQueue(Config{})
	now := time.Now()

	// w1 serves one task of affinity "progA", establishing the affinity.
	b := q.submit([]TaskSpec{{Spec: json.RawMessage(`"warm"`), Affinity: "progA"}}, nil)
	tk, _ := q.lease("w1", now)
	q.complete(&CompleteRequest{Worker: "w1", TaskID: tk.id, Result: json.RawMessage(`1`)}, now)
	if _, err := b.Wait(context.Background()); err != nil {
		t.Fatalf("warmup batch: %v", err)
	}

	// Affinity wins within the bounded-deference band (progB is higher
	// priority, but not more than twice progA's).
	q.submit([]TaskSpec{
		{Spec: json.RawMessage(`"other"`), Priority: 100, Affinity: "progB"},
		{Spec: json.RawMessage(`"mine"`), Priority: 60, Affinity: "progA"},
	}, nil)
	tk, _ = q.lease("w1", now)
	if string(tk.spec) != `"mine"` {
		t.Fatalf("w1 leased %s, want the progA task despite lower priority", tk.spec)
	}
	// A worker with no history takes the unclaimed key.
	tk, _ = q.lease("w2", now)
	if string(tk.spec) != `"other"` {
		t.Fatalf("w2 leased %s, want the progB task", tk.spec)
	}
}

// TestQueueBoundedDeference locks the LPT override: a pending task
// predicted over twice as costly as the affinity-preferred choice beats
// locality, so one outlier-heavy key's points spread across the fleet
// instead of serializing on their owner.
func TestQueueBoundedDeference(t *testing.T) {
	q := newTestQueue(Config{})
	now := time.Now()

	// w1 owns "whale" by serving its first point.
	b := q.submit([]TaskSpec{{Spec: json.RawMessage(`"whale-p1"`), Priority: 1000, Affinity: "whale"}}, nil)
	tk, _ := q.lease("w1", now)
	q.complete(&CompleteRequest{Worker: "w1", TaskID: tk.id, Result: json.RawMessage(`1`)}, now)
	if _, err := b.Wait(context.Background()); err != nil {
		t.Fatalf("warmup batch: %v", err)
	}

	q.submit([]TaskSpec{
		{Spec: json.RawMessage(`"whale-p2"`), Priority: 1000, Affinity: "whale"},
		{Spec: json.RawMessage(`"minnow"`), Priority: 10, Affinity: "minnow"},
	}, nil)
	// w2 has no affinity for "whale", but the whale point is 100x the
	// unclaimed minnow: cost dominates locality and w2 steals it.
	tk, _ = q.lease("w2", now)
	if string(tk.spec) != `"whale-p2"` {
		t.Fatalf("w2 leased %s, want the whale point via bounded deference", tk.spec)
	}
	// w1 (the whale's owner) is left the minnow.
	tk, _ = q.lease("w1", now)
	if string(tk.spec) != `"minnow"` {
		t.Fatalf("w1 leased %s, want the minnow", tk.spec)
	}
}

func TestLeaseExpiryRequeues(t *testing.T) {
	cfg := Config{LeaseTTL: time.Second, RetryBase: 50 * time.Millisecond}
	q := newTestQueue(cfg)
	var events []TaskEvent
	q.submit([]TaskSpec{spec(`"x"`)}, func(ev TaskEvent) { events = append(events, ev) })

	t0 := time.Now()
	tk, _ := q.lease("w1", t0)
	if tk == nil {
		t.Fatal("no task")
	}

	// Past the TTL the lease is reaped; the task is requeued behind a
	// backoff gate, so an immediate re-lease reports a wait instead.
	tk2, wait := q.lease("w2", t0.Add(1100*time.Millisecond))
	if tk2 != nil {
		t.Fatalf("leased %q while still backoff-gated", tk2.spec)
	}
	if wait <= 0 {
		t.Fatalf("wait = %v, want a positive backoff gate", wait)
	}
	tk3, _ := q.lease("w2", t0.Add(1400*time.Millisecond))
	if tk3 == nil {
		t.Fatal("task not re-leasable after the backoff gate")
	}
	if tk3.attempt != 1 {
		t.Fatalf("attempt = %d, want 1 (the expiry consumed one)", tk3.attempt)
	}
	if len(events) != 1 || !events[0].Requeued || events[0].Worker != "w1" {
		t.Fatalf("events = %+v, want one requeue blaming w1", events)
	}
	if n := q.metrics.expiries.Value(); n != 1 {
		t.Fatalf("expiries = %d, want 1", n)
	}
}

func TestBoundedAttemptsFailBatchWithProvenance(t *testing.T) {
	q := newTestQueue(Config{MaxAttempts: 2, RetryBase: time.Millisecond})
	b := q.submit([]TaskSpec{spec(`"doomed"`), spec(`"bystander"`)}, nil)
	now := time.Now()

	werr := NewTaskError(&engine.StageError{Stage: "solve", Func: "main", Err: errors.New("boom")})
	tk, _ := q.lease("w1", now)
	if st := q.complete(&CompleteRequest{Worker: "w1", TaskID: tk.id, Error: werr}, now); st != CompleteRequeued {
		t.Fatalf("first failure ack = %q, want %q", st, CompleteRequeued)
	}
	if st := q.complete(&CompleteRequest{Worker: "w2", TaskID: tk.id, Error: werr}, now); st != CompleteAccepted {
		t.Fatalf("final failure ack = %q, want %q", st, CompleteAccepted)
	}

	_, err := b.Wait(context.Background())
	if err == nil {
		t.Fatal("batch succeeded despite a permanently failed task")
	}
	var se *engine.StageError
	if !errors.As(err, &se) || se.Stage != "solve" || se.Func != "main" {
		t.Fatalf("batch error %v lost StageError provenance", err)
	}
	if !strings.Contains(err.Error(), "w2") {
		t.Fatalf("batch error %v does not name the last worker", err)
	}
	// The bystander task was withdrawn with its batch.
	if p, l := q.depth(); p != 0 || l != 0 {
		t.Fatalf("depth = (%d, %d) after batch failure, want (0, 0)", p, l)
	}
}

func TestCompleteIdempotentDuplicateAndDropped(t *testing.T) {
	q := newTestQueue(Config{})
	b := q.submit([]TaskSpec{spec(`"x"`)}, nil)
	now := time.Now()
	tk, _ := q.lease("w1", now)

	r1 := json.RawMessage(`{"v":1}`)
	if st := q.complete(&CompleteRequest{Worker: "w1", TaskID: tk.id, Result: r1}, now); st != CompleteAccepted {
		t.Fatalf("first complete = %q", st)
	}
	// A slow sibling reporting the same bytes is deduplicated...
	if st := q.complete(&CompleteRequest{Worker: "w2", TaskID: tk.id, Result: r1}, now); st != CompleteDuplicate {
		t.Fatalf("duplicate complete = %q", st)
	}
	// ...and different bytes are flagged (a determinism violation).
	if st := q.complete(&CompleteRequest{Worker: "w2", TaskID: tk.id, Result: json.RawMessage(`{"v":2}`)}, now); st != CompleteDuplicate {
		t.Fatalf("mismatched complete = %q", st)
	}
	if d, mm := q.metrics.duplicates.Value(), q.metrics.mismatches.Value(); d != 1 || mm != 1 {
		t.Fatalf("duplicates=%d mismatches=%d, want 1 and 1", d, mm)
	}
	if st := q.complete(&CompleteRequest{Worker: "w1", TaskID: "t-999"}, now); st != CompleteDropped {
		t.Fatalf("unknown-task complete = %q", st)
	}
	res, err := b.Wait(context.Background())
	if err != nil || string(res[0]) != `{"v":1}` {
		t.Fatalf("Wait = %s, %v; the first result must win", res[0], err)
	}
}

func TestBatchWaitCancelWithdraws(t *testing.T) {
	q := newTestQueue(Config{})
	b := q.submit([]TaskSpec{spec(`"x"`), spec(`"y"`)}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if p, l := q.depth(); p != 0 || l != 0 {
		t.Fatalf("depth = (%d, %d) after cancel, want (0, 0)", p, l)
	}
}

func TestEmptyBatch(t *testing.T) {
	q := newTestQueue(Config{})
	b := q.submit(nil, nil)
	res, err := b.Wait(context.Background())
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch Wait = %v, %v", res, err)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	q := newTestQueue(Config{LeaseTTL: time.Second})
	q.submit([]TaskSpec{spec(`"x"`)}, nil)
	t0 := time.Now()
	tk, _ := q.lease("w1", t0)
	if !q.heartbeat(tk.leaseID, t0.Add(900*time.Millisecond)) {
		t.Fatal("heartbeat on a live lease refused")
	}
	// The old deadline has passed, but the heartbeat moved it.
	q.reap(t0.Add(1500 * time.Millisecond))
	if p, l := q.depth(); p != 0 || l != 1 {
		t.Fatalf("depth = (%d, %d), want the task still leased", p, l)
	}
	if q.heartbeat("l-999", t0) {
		t.Fatal("heartbeat on an unknown lease accepted")
	}
}

// --- Coordinator + worker over HTTP ----------------------------------------

// echoRun doubles {"n": k} into {"n2": 2k}.
func echoRun(ctx context.Context, raw json.RawMessage) (json.RawMessage, error) {
	var in struct {
		N int `json:"n"`
	}
	if err := json.Unmarshal(raw, &in); err != nil {
		return nil, err
	}
	return json.Marshal(map[string]int{"n2": 2 * in.N})
}

func startCoordinator(t *testing.T, cfg Config, store *diskcache.Store) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := NewCoordinator(cfg, store)
	mux := http.NewServeMux()
	c.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return c, ts
}

func TestWorkerLeaseLoop(t *testing.T) {
	c, ts := startCoordinator(t, Config{LeaseTTL: 2 * time.Second, RetryBase: 5 * time.Millisecond}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{ID: "w1", Base: ts.URL, Run: echoRun, Poll: 5 * time.Millisecond}
	go w.Serve(ctx) //nolint:errcheck

	const n = 8
	specs := make([]TaskSpec, n)
	for i := range specs {
		specs[i] = TaskSpec{Spec: json.RawMessage(fmt.Sprintf(`{"n":%d}`, i))}
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer wcancel()
	res, err := c.Submit(specs, nil).Wait(wctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for i, r := range res {
		want := fmt.Sprintf(`{"n2":%d}`, 2*i)
		if string(r) != want {
			t.Fatalf("result[%d] = %s, want %s (results must come back in submit order)", i, r, want)
		}
	}
	cancel()
	if st := w.Stats(); st.Tasks != n {
		t.Fatalf("worker stats = %+v, want %d tasks", st, n)
	}
}

func TestWorkerFailureRequeuesThenSucceeds(t *testing.T) {
	c, ts := startCoordinator(t, Config{LeaseTTL: 2 * time.Second, MaxAttempts: 3, RetryBase: 5 * time.Millisecond}, nil)

	var mu sync.Mutex
	tried := map[string]bool{}
	run := func(ctx context.Context, raw json.RawMessage) (json.RawMessage, error) {
		mu.Lock()
		first := !tried[string(raw)]
		tried[string(raw)] = true
		mu.Unlock()
		if first {
			return nil, &engine.StageError{Stage: "profile", Func: "f", Err: errors.New("transient")}
		}
		return echoRun(ctx, raw)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{ID: "w1", Base: ts.URL, Run: run, Poll: 5 * time.Millisecond}
	go w.Serve(ctx) //nolint:errcheck

	wctx, wcancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer wcancel()
	var events []TaskEvent
	var emu sync.Mutex
	res, err := c.Submit([]TaskSpec{spec(`{"n":3}`)}, func(ev TaskEvent) {
		emu.Lock()
		events = append(events, ev)
		emu.Unlock()
	}).Wait(wctx)
	if err != nil {
		t.Fatalf("Wait: %v (the retry should have recovered)", err)
	}
	if string(res[0]) != `{"n2":6}` {
		t.Fatalf("result = %s", res[0])
	}
	emu.Lock()
	defer emu.Unlock()
	if len(events) != 2 || !events[0].Requeued || events[1].Requeued {
		t.Fatalf("events = %+v, want a requeue then a completion", events)
	}
	if !strings.Contains(events[0].Err, "transient") {
		t.Fatalf("requeue event error = %q, want the worker's message", events[0].Err)
	}
}

func TestWorkerDeathRecoversViaLeaseExpiry(t *testing.T) {
	c, ts := startCoordinator(t, Config{LeaseTTL: 300 * time.Millisecond, RetryBase: 5 * time.Millisecond}, nil)

	// The first attempt wedges until its worker dies; the retry (on a
	// healthy worker) succeeds.
	var mu sync.Mutex
	attempts := 0
	firstLeased := make(chan struct{})
	run := func(ctx context.Context, raw json.RawMessage) (json.RawMessage, error) {
		mu.Lock()
		attempts++
		first := attempts == 1
		mu.Unlock()
		if first {
			close(firstLeased)
			<-ctx.Done() // wedged until the worker is killed
			return nil, ctx.Err()
		}
		return echoRun(ctx, raw)
	}

	ctx1, kill := context.WithCancel(context.Background())
	w1 := &Worker{ID: "victim", Base: ts.URL, Run: run, Poll: 5 * time.Millisecond}
	go w1.Serve(ctx1) //nolint:errcheck

	batch := c.Submit([]TaskSpec{spec(`{"n":5}`)}, nil)
	<-firstLeased
	kill() // worker dies mid-task; heartbeats stop; the lease expires

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	w2 := &Worker{ID: "survivor", Base: ts.URL, Run: run, Poll: 5 * time.Millisecond}
	go w2.Serve(ctx2) //nolint:errcheck

	wctx, wcancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer wcancel()
	res, err := batch.Wait(wctx)
	if err != nil {
		t.Fatalf("Wait: %v (lease expiry should have re-enqueued the task)", err)
	}
	if string(res[0]) != `{"n2":10}` {
		t.Fatalf("result = %s", res[0])
	}
	expiries := c.metrics.expiries.Value()
	if expiries < 1 {
		t.Fatalf("expiries = %d, want at least 1", expiries)
	}
	if st := w2.Stats(); st.Tasks != 1 {
		t.Fatalf("survivor stats = %+v, want the retried task", st)
	}
}

// --- Bundle exchange --------------------------------------------------------

func TestBundleExchangeThroughCoordinator(t *testing.T) {
	coordStore, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startCoordinator(t, Config{}, coordStore)
	rc := NewRemoteCache(context.Background(), ts.URL, nil)

	key := diskcache.Key{Kind: diskcache.KindSelect, Slice: 1, Chain: 2, Knob: 3}
	name := fmt.Sprintf("select-%016x%016x%016x.pfac", 1, 2, 3)
	data := diskcache.EncodeSelect(diskcache.Meta{}, nil)

	// Worker A computes and puts: the bundle is pushed to the coordinator.
	storeA, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	storeA.SetRemote(rc)
	storeA.Put(key, data)
	storeA.WaitRemote() // pushes are async; drain before asserting
	if got, ok := coordStore.ReadBundle(name); !ok || !bytes.Equal(got, data) {
		t.Fatalf("coordinator bundle after push: ok=%v", ok)
	}
	if st := storeA.Stats(); st.RemotePushes != 1 {
		t.Fatalf("RemotePushes = %d, want 1", st.RemotePushes)
	}

	// Worker B misses locally and fetches through the coordinator.
	storeB, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	storeB.SetRemote(rc)
	got, ok := storeB.Get(key)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("remote-backed Get: ok=%v", ok)
	}
	st := storeB.Stats()
	if st.RemoteFetches != 1 || st.Misses != 0 {
		t.Fatalf("stats = fetches %d misses %d, want a remote hit, not a miss", st.RemoteFetches, st.Misses)
	}
	// The fetched bundle was adopted locally: a second Get is local.
	if _, ok := storeB.Get(key); !ok {
		t.Fatal("adopted bundle not served locally")
	}
	if st := storeB.Stats(); st.RemoteFetches != 1 {
		t.Fatalf("RemoteFetches = %d after local re-read, want still 1", st.RemoteFetches)
	}
}

func TestBundleEndpointsRejectBadInput(t *testing.T) {
	coordStore, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startCoordinator(t, Config{}, coordStore)
	client := ts.Client()
	goodName := fmt.Sprintf("select-%048x.pfac", 7)

	put := func(name string, body []byte) int {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/fabric/v1/bundles/"+name, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := put(goodName, []byte("not a frame")); code != http.StatusBadRequest {
		t.Fatalf("corrupt frame PUT = %d, want 400", code)
	}
	// A checksum-valid frame under a kind-mismatched name is still corrupt.
	if code := put(fmt.Sprintf("reduced-%048x.pfac", 7), diskcache.EncodeSelect(diskcache.Meta{}, nil)); code != http.StatusBadRequest {
		t.Fatalf("kind-mismatched PUT = %d, want 400", code)
	}
	if code := put("..%2Fescape.pfac", []byte("x")); code != http.StatusBadRequest {
		t.Fatalf("path-escape PUT = %d, want 400", code)
	}
	if code := put(goodName, diskcache.EncodeSelect(diskcache.Meta{}, nil)); code != http.StatusNoContent {
		t.Fatalf("valid PUT = %d, want 204", code)
	}

	resp, err := client.Get(ts.URL + "/fabric/v1/bundles/" + fmt.Sprintf("select-%048x.pfac", 8))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing bundle GET = %d, want 404", resp.StatusCode)
	}
	// RemoteCache maps the 404 to a plain miss.
	rc := NewRemoteCache(context.Background(), ts.URL, nil)
	if _, ok := rc.Fetch(fmt.Sprintf("select-%048x.pfac", 8)); ok {
		t.Fatal("Fetch of a missing bundle reported ok")
	}
	if data, ok := rc.Fetch(goodName); !ok || len(data) == 0 {
		t.Fatal("Fetch of a published bundle failed")
	}
}

// --- Metrics ----------------------------------------------------------------

func TestMetricsRender(t *testing.T) {
	m := NewMetrics(func() (int, int) { return 2, 1 })
	m.submitted.Add(3)
	m.taskDone("w1", 5*time.Millisecond)
	m.requeued.Inc()
	m.expiries.Inc()
	m.bundleServed.Inc()
	m.bundleRejected.Inc()

	var buf bytes.Buffer
	m.WriteTo(&buf)
	out := buf.String()
	for _, want := range []string{
		`pathflow_fabric_tasks_total{state="submitted"} 3`,
		`pathflow_fabric_tasks_total{state="done"} 1`,
		`pathflow_fabric_tasks_total{state="requeued"} 1`,
		`pathflow_fabric_lease_expiries_total 1`,
		`pathflow_fabric_tasks_pending 2`,
		`pathflow_fabric_tasks_leased 1`,
		`pathflow_fabric_bundles_total{op="served"} 1`,
		`pathflow_fabric_bundles_total{op="rejected"} 1`,
		`pathflow_fabric_worker_task_seconds_bucket{worker="w1",le="0.01"} 1`,
		`pathflow_fabric_worker_task_seconds_count{worker="w1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
}

// TestMetricsExposition pins the fabric's full exposition byte for byte,
// including a worker that leased but never completed a task.
func TestMetricsExposition(t *testing.T) {
	m := NewMetrics(func() (int, int) { return 2, 1 })
	m.submitted.Add(3)
	m.workers.With("w2")
	m.taskDone("w1", 5*time.Millisecond)
	m.taskDone("w1", 2*time.Second)
	m.requeued.Inc()
	m.expiries.Inc()
	m.bundleServed.Inc()
	m.bundleRejected.Inc()
	m.profileMissing.Inc()
	m.profileAdopted.Inc()
	m.duplicates.Inc()

	var buf bytes.Buffer
	m.WriteTo(&buf)
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("fabric exposition drifted:\n%s", buf.String())
	}
}

func TestBackoffBounds(t *testing.T) {
	for n := 0; n < 20; n++ {
		d := backoff(n, 100*time.Millisecond, 2*time.Second)
		if d < 0 || d > 2*time.Second+500*time.Millisecond {
			t.Fatalf("backoff(%d) = %v out of bounds", n, d)
		}
	}
}

func TestTaskErrorRoundTrip(t *testing.T) {
	orig := &engine.StageError{Stage: "trace", Func: "loop", Err: errors.New("bad edge")}
	te := NewTaskError(fmt.Errorf("wrapped: %w", orig))
	back := te.Err()
	var se *engine.StageError
	if !errors.As(back, &se) || se.Stage != "trace" || se.Func != "loop" || se.Err.Error() != "bad edge" {
		t.Fatalf("round trip lost provenance: %v", back)
	}
	plain := NewTaskError(errors.New("flat"))
	if errors.As(plain.Err(), &se) {
		t.Fatal("plain error grew StageError provenance")
	}
}

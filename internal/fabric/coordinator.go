package fabric

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"pathflow/internal/engine/diskcache"
)

// maxBundleBytes bounds one pushed bundle frame. Real bundles are far
// smaller; the cap only stops a broken peer from streaming unbounded
// bytes into memory.
const maxBundleBytes = 1 << 28

// maxProfiles bounds the coordinator's in-memory training-profile
// exchange. One entry per distinct target; past the cap new profiles
// are simply not retained (the exchange is a best-effort cache — a
// worker that misses recomputes).
const maxProfiles = 256

// ProfileStore is the worker-side client of the coordinator's
// training-profile exchange. Like the bundle tier it is best-effort:
// a failed Fetch is a recompute, a failed Push costs a sibling the
// same recompute.
type ProfileStore interface {
	FetchProfile(key string) ([]byte, bool)
	PushProfile(key string, data []byte)
}

// Coordinator owns the task queue, the bundle-exchange endpoints, and
// the training-profile exchange. It is mounted on the serving layer's
// mux and fed batches by the distributed sweep path.
type Coordinator struct {
	cfg     Config
	q       *queue
	store   *diskcache.Store // bundle tier; nil = scheduling only
	metrics *Metrics

	profMu   sync.Mutex
	profiles map[string][]byte
}

// NewCoordinator builds a coordinator over the given bundle store
// (usually the serving engine's own disk store; nil disables bundle
// exchange — workers then need a shared -cachedir).
func NewCoordinator(cfg Config, store *diskcache.Store) *Coordinator {
	c := &Coordinator{cfg: cfg, store: store, profiles: map[string][]byte{}}
	c.metrics = NewMetrics(c.Depth)
	c.q = newQueue(cfg, c.metrics)
	return c
}

// Mount registers the fabric's HTTP surface on mux:
//
//	POST /fabric/v1/lease          lease the best ready task
//	POST /fabric/v1/heartbeat      keep a lease alive
//	POST /fabric/v1/complete       report a finished attempt
//	GET  /fabric/v1/bundles/{name} fetch a content-addressed bundle
//	PUT  /fabric/v1/bundles/{name} publish a bundle
//	GET  /fabric/v1/profiles/{key} fetch a shared training profile
//	PUT  /fabric/v1/profiles/{key} publish a training profile
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /fabric/v1/lease", c.handleLease)
	mux.HandleFunc("POST /fabric/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /fabric/v1/complete", c.handleComplete)
	mux.HandleFunc("GET /fabric/v1/bundles/{name}", c.handleBundleGet)
	mux.HandleFunc("PUT /fabric/v1/bundles/{name}", c.handleBundlePut)
	mux.HandleFunc("GET /fabric/v1/profiles/{key}", c.handleProfileGet)
	mux.HandleFunc("PUT /fabric/v1/profiles/{key}", c.handleProfilePut)
}

// Submit enqueues one batch of tasks. The observer (optional) receives
// completion and requeue events as they happen.
func (c *Coordinator) Submit(specs []TaskSpec, observer func(TaskEvent)) *Batch {
	return c.q.submit(specs, observer)
}

// Depth reports the queue's pending and leased task counts.
func (c *Coordinator) Depth() (pending, leased int) { return c.q.depth() }

// WriteMetrics renders the fabric metric families in Prometheus text
// format.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	c.metrics.WriteTo(w) //nolint:errcheck // client gone is not actionable
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeInto(w, r, &req) {
		return
	}
	t, wait := c.q.lease(req.Worker, time.Now())
	if t == nil {
		retry := wait
		if retry <= 0 {
			retry = 200 * time.Millisecond
		}
		writeFabricJSON(w, http.StatusOK, &LeaseResponse{RetryMS: int64(retry / time.Millisecond)})
		return
	}
	writeFabricJSON(w, http.StatusOK, &LeaseResponse{
		TaskID:     t.id,
		LeaseID:    t.leaseID,
		Spec:       t.spec,
		Attempt:    t.attempt,
		LeaseTTLMS: int64(c.cfg.leaseTTL() / time.Millisecond),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if !c.q.heartbeat(req.LeaseID, time.Now()) {
		http.Error(w, "lease gone", http.StatusGone)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeInto(w, r, &req) {
		return
	}
	status := c.q.complete(&req, time.Now())
	writeFabricJSON(w, http.StatusOK, &CompleteResponse{Status: status})
}

func (c *Coordinator) handleBundleGet(w http.ResponseWriter, r *http.Request) {
	if c.store == nil {
		http.Error(w, "no bundle store", http.StatusServiceUnavailable)
		return
	}
	data, ok := c.store.ReadBundle(r.PathValue("name"))
	if !ok {
		c.metrics.bundleMissing.Inc()
		http.Error(w, "no such bundle", http.StatusNotFound)
		return
	}
	c.metrics.bundleServed.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data) //nolint:errcheck // client gone is the client's problem
}

func (c *Coordinator) handleBundlePut(w http.ResponseWriter, r *http.Request) {
	if c.store == nil {
		http.Error(w, "no bundle store", http.StatusServiceUnavailable)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBundleBytes))
	if err != nil {
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := c.store.AdoptBundle(r.PathValue("name"), data); err != nil {
		c.metrics.bundleRejected.Inc()
		http.Error(w, "rejected: "+err.Error(), http.StatusBadRequest)
		return
	}
	c.metrics.bundleAdopted.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// validProfileKey bounds the exchange's map keys: workers send a fixed
// 16-hex-digit content hash, so anything longer is a broken peer.
func validProfileKey(key string) bool {
	return key != "" && len(key) <= 64
}

// SeedProfile publishes a training profile into the exchange from
// inside the coordinator process — the serving layer trains each sweep
// target once (it needs the path counts for cost prediction anyway) and
// seeds it here so no worker ever pays a training run. First write
// wins, same as a worker push.
func (c *Coordinator) SeedProfile(key string, data []byte) {
	if !validProfileKey(key) {
		return
	}
	c.profMu.Lock()
	if _, exists := c.profiles[key]; !exists && len(c.profiles) < maxProfiles {
		c.profiles[key] = data
		c.metrics.profileAdopted.Inc()
	}
	c.profMu.Unlock()
}

func (c *Coordinator) handleProfileGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	c.profMu.Lock()
	data, ok := c.profiles[key]
	c.profMu.Unlock()
	if !ok {
		c.metrics.profileMissing.Inc()
		http.Error(w, "no such profile", http.StatusNotFound)
		return
	}
	c.metrics.profileServed.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck // client gone is the client's problem
}

func (c *Coordinator) handleProfilePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validProfileKey(key) {
		http.Error(w, "bad profile key", http.StatusBadRequest)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBundleBytes))
	if err != nil {
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return
	}
	c.profMu.Lock()
	// First write wins (the profile is deterministic, so all writers
	// agree); past the cap new keys are dropped, not stored.
	if _, exists := c.profiles[key]; !exists && len(c.profiles) < maxProfiles {
		c.profiles[key] = data
		c.metrics.profileAdopted.Inc()
	}
	c.profMu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// decodeInto parses a JSON request body, answering 400 on malformed
// input.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeFabricJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

package fabric

import (
	"io"
	"time"

	"pathflow/internal/obs"
)

// Metrics collects the fabric's counters. All fields are safe for
// concurrent use; rendering is deterministic (workers sorted by name).
type Metrics struct {
	reg obs.Registry

	submitted  *obs.Counter // tasks ever submitted
	done       *obs.Counter // tasks completed successfully
	requeued   *obs.Counter // failed attempts re-enqueued (incl. expiries)
	failed     *obs.Counter // tasks permanently failed (batch aborted)
	duplicates *obs.Counter // idempotent duplicate completions deduplicated
	mismatches *obs.Counter // duplicate completions whose result fingerprint differed
	expiries   *obs.Counter // leases reaped

	bundleServed   *obs.Counter // GET bundle hits
	bundleMissing  *obs.Counter // GET bundle 404s
	bundleAdopted  *obs.Counter // PUT bundles accepted
	bundleRejected *obs.Counter // PUT bundles rejected as corrupt

	profileServed  *obs.Counter // GET profile hits
	profileMissing *obs.Counter // GET profile 404s
	profileAdopted *obs.Counter // PUT profiles retained

	// workers holds each worker's completed-task histogram; a worker
	// appears once it leases, before its first completion.
	workers *obs.Vec[*obs.Histogram]
}

// NewMetrics returns an empty collector; depth reads the queue's
// pending and leased task counts at render time.
func NewMetrics(depth func() (pending, leased int)) *Metrics {
	m := &Metrics{workers: obs.NewVec[obs.Histogram]("worker")}
	tasks := obs.NewVec[obs.Counter]("state", "submitted", "done", "requeued", "failed", "duplicate", "mismatch")
	m.submitted, m.done, m.requeued = tasks.With("submitted"), tasks.With("done"), tasks.With("requeued")
	m.failed, m.duplicates, m.mismatches = tasks.With("failed"), tasks.With("duplicate"), tasks.With("mismatch")
	bundles := obs.NewVec[obs.Counter]("op", "served", "missing", "adopted", "rejected")
	m.bundleServed, m.bundleMissing = bundles.With("served"), bundles.With("missing")
	m.bundleAdopted, m.bundleRejected = bundles.With("adopted"), bundles.With("rejected")
	profiles := obs.NewVec[obs.Counter]("op", "served", "missing", "adopted")
	m.profileServed, m.profileMissing, m.profileAdopted = profiles.With("served"), profiles.With("missing"), profiles.With("adopted")

	r := &m.reg
	r.Register("pathflow_fabric_tasks_total", "Fabric task events by state.", tasks)
	m.expiries = r.Counter("pathflow_fabric_lease_expiries_total", "Leases reaped after missed heartbeats.")
	r.Collect(func(w *obs.Writer) {
		pending, leased := depth()
		w.Gauge("pathflow_fabric_tasks_pending", "Tasks waiting for a lease.", int64(pending))
		w.Gauge("pathflow_fabric_tasks_leased", "Tasks currently leased to workers.", int64(leased))
		w.Gauge("pathflow_fabric_workers", "Distinct workers that have leased tasks.", int64(m.workers.Len()))
	})
	r.Register("pathflow_fabric_bundles_total", "Bundle exchange events by direction and outcome.", bundles)
	r.Register("pathflow_fabric_profiles_total", "Training-profile exchange events.", profiles)
	r.Register("pathflow_fabric_worker_task_seconds", "Worker-measured task compute time.", m.workers)
	return m
}

// taskDone records one successful completion into the worker's
// histogram.
func (m *Metrics) taskDone(worker string, d time.Duration) {
	m.done.Inc()
	m.workers.With(worker).Observe(d.Seconds())
}

// WriteTo renders the fabric metric families in Prometheus text format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) { return m.reg.WriteTo(w) }

package serve

import (
	"time"

	"pathflow/internal/engine"
	"pathflow/internal/obs"
)

// serverMetrics aggregates service-level observability state: job
// lifecycle counters, per-stage time histograms and per-stage cache-hit
// counters. The engine's cumulative cache counters are read live at
// render time, not mirrored here.
type serverMetrics struct {
	start time.Time
	reg   obs.Registry

	requests     *obs.Counter
	jobsAccepted *obs.Counter
	jobsInFlight *obs.Gauge
	jobsFinished *obs.Vec[*obs.Counter]

	profileRuns   *obs.Counter
	profileCached *obs.Counter

	// Streaming-profile counters: function deltas applied / dropped as
	// idempotent replays by POST /v1/profiles, and functions whose live
	// hot-set selection drifted from the cached artifacts' profile
	// (each will re-qualify — recompute its StageSelect-downstream
	// suffix — at the next live analysis).
	ingestApplied  *obs.Counter
	ingestDropped  *obs.Counter
	driftRequalify *obs.Counter

	// stageHits backs both the cache-hit and the replayed family: every
	// stage served from the cache is a replay instead of a recompute.
	stageHits   *obs.Vec[*obs.Counter]
	stageDisk   *obs.Vec[*obs.Counter]
	stageDecode *obs.Vec[*obs.FloatCounter]
	stages      *obs.Vec[*obs.Histogram]
}

// newServerMetrics registers every family in exposition order; cache
// reads the engine's cumulative cache counters at render time.
func newServerMetrics(cache func() engine.CacheStats) *serverMetrics {
	sm := &serverMetrics{start: time.Now()}
	r := &sm.reg
	r.Collect(func(w *obs.Writer) {
		w.GaugeFloat("pathflow_uptime_seconds", "Time since the server started.", time.Since(sm.start).Seconds())
	})
	sm.requests = r.Counter("pathflow_http_requests_total", "HTTP requests served.")
	sm.jobsAccepted = r.Counter("pathflow_jobs_accepted_total", "Jobs admitted by the job manager.")
	sm.jobsInFlight = r.Gauge("pathflow_jobs_in_flight", "Jobs queued or running.")
	sm.jobsFinished = obs.NewVec[obs.Counter]("state")
	r.Register("pathflow_jobs_finished_total", "Jobs by terminal state.", sm.jobsFinished)
	r.Collect(func(w *obs.Writer) { writeCacheStats(w, cache()) })
	sm.profileRuns = r.Counter("pathflow_profile_runs_total", "Training-profile requests (cached and computed).")
	sm.profileCached = r.Counter("pathflow_profile_cached_total", "Training-profile requests served from the memo.")
	sm.ingestApplied = r.Counter("pathflow_profile_ingest_total", "Streamed profile function-deltas applied to the live accumulators.")
	sm.ingestDropped = r.Counter("pathflow_profile_ingest_dropped_total", "Streamed profile function-deltas dropped as idempotent replays (seq already applied).")
	sm.driftRequalify = r.Counter("pathflow_drift_requalify_total", "Functions whose live hot-set selection drifted from the cached artifacts' profile after an ingested batch.")

	stages := make([]string, len(engine.StageOrder))
	for i, s := range engine.StageOrder {
		stages[i] = string(s)
	}
	sm.stageHits = obs.NewVec[obs.Counter]("stage", stages...)
	sm.stageDisk = obs.NewVec[obs.Counter]("stage", stages...)
	sm.stageDecode = obs.NewVec[obs.FloatCounter]("stage", stages...)
	sm.stages = obs.NewVec[obs.Histogram]("stage", stages...)
	r.Register("pathflow_stage_cache_hits_total", "Stage executions served from the artifact cache.", sm.stageHits)
	r.Register("pathflow_stage_disk_hits_total", "Stage executions decoded from the persistent cache tier.", sm.stageDisk)
	r.Register("pathflow_stage_replayed_total", "Stage executions replayed from the artifact cache instead of recomputed (incremental re-analysis reuse).", sm.stageHits)
	r.Register("pathflow_stage_decode_seconds_total", "Disk-decode time paid for replayed stages (kept separate from compute cost).", sm.stageDecode)
	r.Register("pathflow_stage_seconds", "Compute cost of executed pipeline stages.", sm.stages)
	return sm
}

// writeCacheStats renders the engine's cache counters, and the disk
// tier's when one is configured.
func writeCacheStats(w *obs.Writer, cache engine.CacheStats) {
	w.Counter("pathflow_engine_cache_hits_total", "Artifact-cache hits (cumulative, shared engine).", cache.Hits)
	w.Counter("pathflow_engine_cache_misses_total", "Artifact-cache misses (cumulative, shared engine).", cache.Misses)
	w.Gauge("pathflow_engine_cache_entries", "Artifact-cache resident bundles.", int64(cache.Entries))
	w.Gauge("pathflow_engine_cache_bytes", "Estimated in-memory footprint of resident bundles.", cache.Bytes)
	w.Counter("pathflow_engine_cache_evictions_total", "Bundles dropped by the in-memory byte bound.", cache.MemEvictions)
	if !cache.DiskEnabled {
		return
	}
	d := cache.Disk
	w.Counter("pathflow_diskcache_hits_total", "Persistent-tier lookups whose payload decoded into a usable artifact.", d.Hits)
	w.Counter("pathflow_diskcache_misses_total", "Persistent-tier lookups that missed (absent, unreadable or rejected entries).", d.Misses)
	w.Counter("pathflow_diskcache_rejects_total", "Persistent-tier payloads rejected as corrupt or version-skewed (deleted, recomputed).", d.Rejects)
	w.Counter("pathflow_diskcache_writes_total", "Bundles persisted to the disk tier.", d.Writes)
	w.Counter("pathflow_diskcache_evictions_total", "Bundle files deleted by the disk-tier byte bound.", d.Evictions)
	w.Gauge("pathflow_diskcache_entries", "Resident bundle files in the disk tier.", int64(d.Entries))
	w.Gauge("pathflow_diskcache_bytes", "Bytes resident in the disk tier.", d.Bytes)
	w.Family("pathflow_diskcache_decode_seconds", "Time to decode disk-tier bundles into live artifacts.", d.Decode)
}

func (sm *serverMetrics) jobAccepted() {
	sm.jobsAccepted.Inc()
	sm.jobsInFlight.Add(1)
}

func (sm *serverMetrics) jobFinished(state JobState) {
	sm.jobsInFlight.Add(-1)
	sm.jobsFinished.With(string(state)).Inc()
}

// observeStage records one engine stage execution. Cache hits count
// toward the hit/replayed counters but not the histogram — the
// histogram measures compute actually performed by this process's
// engine, so hit-heavy workloads show up as flat histograms and
// climbing hit counters. Disk replays additionally accumulate their
// decode cost (the price actually paid for the replay, which the
// engine keeps separate from the stage's stored compute cost).
func (sm *serverMetrics) observeStage(ev engine.StageEvent) {
	stage := string(ev.Stage)
	if !ev.Cached {
		sm.stages.With(stage).Observe(ev.Duration.Seconds())
		return
	}
	sm.stageHits.With(stage).Inc()
	if ev.Source == engine.SourceDisk {
		sm.stageDisk.With(stage).Inc()
		sm.stageDecode.With(stage).Add(ev.Decode.Seconds())
	}
}

func (sm *serverMetrics) observeProfile(cached bool) {
	sm.profileRuns.Inc()
	if cached {
		sm.profileCached.Inc()
	}
}

// observeIngest records one profile-delta batch: applied and dropped
// function deltas, plus how many functions the batch left needing
// re-qualification.
func (sm *serverMetrics) observeIngest(applied, dropped, requalify int) {
	sm.ingestApplied.Add(int64(applied))
	sm.ingestDropped.Add(int64(dropped))
	sm.driftRequalify.Add(int64(requalify))
}

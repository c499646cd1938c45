package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

type taskState uint8

const (
	taskPending taskState = iota
	taskLeased
	taskDone
)

// task is one tracked unit of work.
type task struct {
	id       string
	seq      int64
	spec     json.RawMessage
	priority int64
	affinity string

	batch *Batch
	index int // result slot in the batch

	state     taskState
	attempt   int       // attempts consumed (errors + lease expiries)
	notBefore time.Time // backoff gate while pending
	leaseID   string
	worker    string
	deadline  time.Time // lease expiry
	resultFP  uint64    // FNV-64a of the winning result, for dedup
}

// queue is the coordinator's scheduler state. One mutex guards
// everything — operations are map lookups and short scans over at most
// a few thousand pending tasks, far off any hot path.
type queue struct {
	cfg     Config
	metrics *Metrics

	mu      sync.Mutex
	tasks   map[string]*task           // all live tasks by id
	pending map[string]*task           // state == taskPending
	byLease map[string]*task           // state == taskLeased, by lease id
	seen    map[string]map[string]bool // worker -> affinity keys served
	served  map[string]bool            // affinity keys served by anyone
	seq     int64
}

func newQueue(cfg Config, m *Metrics) *queue {
	return &queue{
		cfg:     cfg,
		metrics: m,
		tasks:   map[string]*task{},
		pending: map[string]*task{},
		byLease: map[string]*task{},
		seen:    map[string]map[string]bool{},
		served:  map[string]bool{},
	}
}

// Batch is one submitted group of tasks. Results come back in submit
// order; the first permanent task failure fails the whole batch.
type Batch struct {
	q         *queue
	results   []json.RawMessage
	remaining int
	err       error
	done      chan struct{}
	observer  func(TaskEvent)
}

// submit registers the specs as one batch.
func (q *queue) submit(specs []TaskSpec, observer func(TaskEvent)) *Batch {
	b := &Batch{
		q:         q,
		results:   make([]json.RawMessage, len(specs)),
		remaining: len(specs),
		done:      make(chan struct{}),
		observer:  observer,
	}
	q.mu.Lock()
	for i, sp := range specs {
		q.seq++
		t := &task{
			id:       fmt.Sprintf("t-%d", q.seq),
			seq:      q.seq,
			spec:     sp.Spec,
			priority: sp.Priority,
			affinity: sp.Affinity,
			batch:    b,
			index:    i,
		}
		q.tasks[t.id] = t
		q.pending[t.id] = t
	}
	q.metrics.submitted.Add(int64(len(specs)))
	if b.remaining == 0 {
		close(b.done)
	}
	q.mu.Unlock()
	return b
}

// Wait blocks until every task in the batch completed, any task
// permanently failed, or ctx is done. On ctx cancellation the batch's
// remaining tasks are withdrawn from the queue. Wait also drives lease
// expiry, so abandoned work is re-enqueued even while no worker polls.
func (b *Batch) Wait(ctx context.Context) ([]json.RawMessage, error) {
	period := b.q.cfg.leaseTTL() / 4
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-b.done:
			b.q.mu.Lock()
			res, err := b.results, b.err
			b.q.mu.Unlock()
			if err != nil {
				return nil, err
			}
			return res, nil
		case <-ctx.Done():
			b.q.cancel(b)
			return nil, ctx.Err()
		case <-tick.C:
			b.q.reap(time.Now())
		}
	}
}

// cancel withdraws a batch's remaining tasks. In-flight completions for
// them are acknowledged as dropped.
func (q *queue) cancel(b *Batch) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for id, t := range q.tasks {
		if t.batch != b {
			continue
		}
		delete(q.tasks, id)
		delete(q.pending, id)
		if t.leaseID != "" {
			delete(q.byLease, t.leaseID)
		}
	}
}

// lease hands the named worker the best ready task. Eligible tasks rank
// in three classes — work-stealing discipline over affinity keys:
//
//  2. own: the worker has served this affinity before (its caches are
//     warm for it);
//  1. unclaimed: no worker has served the affinity yet (or the task has
//     none) — spreading fresh keys across the fleet;
//  0. steal: another worker owns the affinity. Taken only when nothing
//     better is ready, so sibling points of one key stay co-located
//     while an idle worker still drains a slow or dead peer's backlog.
//     Stealing makes the thief an owner too, so a dead owner's keys
//     migrate permanently after one steal each.
//
// Within a class: higher priority, then submission order. The class
// preference is bounded, though: when some eligible task's priority is
// more than twice the class-preferred choice's, predicted cost
// dominates locality and the heavier task wins regardless of class —
// LPT spreading for outlier-heavy work (one function's points would
// otherwise serialize on their owner), stickiness for the fine-grained
// rest. Returns (nil, wait) when nothing is ready — wait is how long
// until the earliest backoff gate opens (0 = queue empty, poll at
// leisure).
func (q *queue) lease(worker string, now time.Time) (*task, time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(now)

	aff := q.seen[worker]
	var best, heaviest *task
	var bestClass int
	var wait time.Duration
	for _, t := range q.pending {
		if now.Before(t.notBefore) {
			if d := t.notBefore.Sub(now); wait == 0 || d < wait {
				wait = d
			}
			continue
		}
		class := 1 // unclaimed (or no affinity)
		if t.affinity != "" && q.served[t.affinity] {
			if aff != nil && aff[t.affinity] {
				class = 2 // own
			} else {
				class = 0 // steal
			}
		}
		if best == nil ||
			class > bestClass ||
			(class == bestClass && (t.priority > best.priority ||
				(t.priority == best.priority && t.seq < best.seq))) {
			best, bestClass = t, class
		}
		if heaviest == nil || t.priority > heaviest.priority ||
			(t.priority == heaviest.priority && t.seq < heaviest.seq) {
			heaviest = t
		}
	}
	if best == nil {
		return nil, wait
	}
	// Bounded deference: a task predicted over twice as costly as the
	// class-preferred one beats locality.
	if bp := best.priority; heaviest != best && (bp < 0 || heaviest.priority > 2*bp) {
		best = heaviest
	}

	delete(q.pending, best.id)
	best.state = taskLeased
	q.seq++
	best.leaseID = fmt.Sprintf("l-%d", q.seq)
	best.worker = worker
	best.deadline = now.Add(q.cfg.leaseTTL())
	q.byLease[best.leaseID] = best
	if q.seen[worker] == nil {
		q.seen[worker] = map[string]bool{}
	}
	q.seen[worker][best.affinity] = true
	if best.affinity != "" {
		q.served[best.affinity] = true
	}
	q.metrics.workers.With(worker)
	return best, 0
}

// heartbeat extends a lease; false means the lease is gone and the
// worker should abandon the attempt.
func (q *queue) heartbeat(leaseID string, now time.Time) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.byLease[leaseID]
	if !ok {
		return false
	}
	t.deadline = now.Add(q.cfg.leaseTTL())
	return true
}

// complete records one finished attempt and returns the acknowledgement
// status. Completion is accepted for any live task regardless of lease
// state — first result wins, so a worker finishing after its lease
// expired still saves the re-run if it gets there first.
func (q *queue) complete(req *CompleteRequest, now time.Time) string {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tasks[req.TaskID]
	if !ok {
		return CompleteDropped
	}
	if t.state == taskDone {
		if fingerprint(req.Result) != t.resultFP {
			q.metrics.mismatches.Inc()
		} else {
			q.metrics.duplicates.Inc()
		}
		return CompleteDuplicate
	}
	if t.leaseID != "" {
		delete(q.byLease, t.leaseID)
		t.leaseID = ""
	}
	delete(q.pending, t.id)
	dur := time.Duration(req.DurationMS * float64(time.Millisecond))

	if req.Error != nil {
		t.attempt++
		if t.attempt >= q.cfg.maxAttempts() {
			q.failLocked(t, fmt.Errorf("fabric: task failed after %d attempts (worker %s): %w",
				t.attempt, req.Worker, req.Error.Err()))
			return CompleteAccepted
		}
		q.requeueLocked(t, now, req.Worker, req.Error.Message, dur)
		return CompleteRequeued
	}

	t.state = taskDone
	t.resultFP = fingerprint(req.Result)
	b := t.batch
	b.results[t.index] = req.Result
	b.remaining--
	q.metrics.taskDone(req.Worker, dur)
	if b.observer != nil {
		b.observer(TaskEvent{Index: t.index, Worker: req.Worker, Duration: dur})
	}
	if b.remaining == 0 && b.err == nil {
		close(b.done)
	}
	return CompleteAccepted
}

// requeueLocked puts a task back in the pending set behind a jittered
// exponential backoff gate.
func (q *queue) requeueLocked(t *task, now time.Time, worker, why string, dur time.Duration) {
	t.state = taskPending
	t.worker = ""
	t.notBefore = now.Add(backoff(t.attempt-1, q.cfg.retryBase(), q.cfg.leaseTTL()))
	q.pending[t.id] = t
	q.metrics.requeued.Inc()
	if t.batch.observer != nil {
		t.batch.observer(TaskEvent{Index: t.index, Worker: worker, Duration: dur, Requeued: true, Err: why})
	}
}

// failLocked permanently fails a task's batch and withdraws the batch's
// other tasks.
func (q *queue) failLocked(t *task, err error) {
	b := t.batch
	q.metrics.failed.Inc()
	for id, bt := range q.tasks {
		if bt.batch != b {
			continue
		}
		delete(q.tasks, id)
		delete(q.pending, id)
		if bt.leaseID != "" {
			delete(q.byLease, bt.leaseID)
		}
	}
	if b.err == nil {
		b.err = err
		close(b.done)
	}
}

// reap expires overdue leases: each costs an attempt (a crash-looping
// task stays bounded) and re-enqueues or, out of attempts, fails the
// batch with the lost worker named.
func (q *queue) reap(now time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(now)
}

func (q *queue) reapLocked(now time.Time) {
	for leaseID, t := range q.byLease {
		if now.Before(t.deadline) {
			continue
		}
		delete(q.byLease, leaseID)
		worker := t.worker
		t.leaseID, t.worker = "", ""
		t.attempt++
		q.metrics.expiries.Inc()
		if t.attempt >= q.cfg.maxAttempts() {
			q.failLocked(t, fmt.Errorf("fabric: lease expired after %d attempts (last worker %s)",
				t.attempt, worker))
			continue
		}
		q.requeueLocked(t, now, worker, "lease expired", 0)
	}
}

// depth reports the pending and leased task counts.
func (q *queue) depth() (pending, leased int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending), len(q.byLease)
}

// fingerprint hashes a result payload for idempotent-completion dedup.
func fingerprint(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data) //nolint:errcheck // fnv never fails
	return h.Sum64()
}

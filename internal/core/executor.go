package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// sstJob is one decided Secure System Transaction on its way to the store:
// the publish payload and the SST write set.
type sstJob struct {
	id     TxID
	locals []localWrite
	writes []SSTWrite
}

// sstExecutor is a bounded worker pool for Secure System Transactions and
// the one batching stage above the WAL. The committing goroutine only
// enqueues; a worker that receives a job also takes whatever else is queued
// at that moment and applies the lot as one store transaction (applySSTs),
// then re-enters the monitor with each outcome (completeSST). Order was
// fixed by the committer slots and the commit sequence before the jobs were
// queued, so the batch needs no window or timer: under a burst the queue
// fills while the workers are in the store and the next drain is large; at
// depth one a job takes the unbatched path.
//
// The workers are plural because ldbs.Tx.Commit waits for the semi-sync
// follower ack after the store transaction is durable: a single drainer
// would hold the next batch behind the previous one's replication round
// trip.
//
// The queue is bounded. When it is full — or after close — submit refuses
// the job and the submitter runs it itself: overload applies backpressure
// to committers instead of queueing without limit, and a worker whose
// completion cascade triggers further global commits can never deadlock
// against a full queue.
type sstExecutor struct {
	mu     sync.Mutex // guards closed vs. submit's channel send
	jobs   chan sstJob
	closed bool
	wg     sync.WaitGroup
	queued *atomic.Int64 // live queue depth (gtm_sst_queue_depth)
}

// newSSTExecutor starts workers goroutines that drain a queue of the given
// depth into apply. queued receives the live queue length (the
// Observability gauge when instrumented, a private counter otherwise).
func newSSTExecutor(workers, depth int, queued *atomic.Int64, apply func([]sstJob)) *sstExecutor {
	if workers < 1 {
		workers = 1
	}
	if depth < 0 {
		depth = 0
	}
	if queued == nil {
		queued = new(atomic.Int64)
	}
	e := &sstExecutor{jobs: make(chan sstJob, depth), queued: queued}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer e.wg.Done()
			batch := make([]sstJob, 0, depth+1)
			for job := range e.jobs {
				batch = append(batch, job)
			drain:
				for len(batch) <= depth {
					select {
					case next, ok := <-e.jobs:
						if !ok {
							break drain
						}
						batch = append(batch, next)
					default:
						break drain
					}
				}
				e.queued.Add(-int64(len(batch)))
				apply(batch)
				clear(batch)
				batch = batch[:0]
			}
		}()
	}
	return e
}

// submit queues a job for the workers. It reports false when the queue is
// full or the pool is closed; the caller then applies the job itself (see
// type comment).
func (e *sstExecutor) submit(job sstJob) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	select {
	case e.jobs <- job:
		e.queued.Add(1)
		return true
	default:
		return false
	}
}

// close stops the workers after the queue drains. Jobs submitted afterwards
// are refused.
func (e *sstExecutor) close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.jobs)
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// applySSTs runs a group of decided SSTs: one job through runSST, several
// as a single batched store transaction when the store supports it. A batch
// that fails as a whole is re-run one SST per transaction, so a failing
// write set aborts only its own transaction. Every member's outcome flows
// through completeSST, which publishes (or aborts) under the monitor and
// releases the sstActive hold taken at launch.
func (m *Manager) applySSTs(batch []sstJob) {
	if m.obs != nil {
		m.obs.sstBatches.Inc()
		m.obs.sstBatchTxs.Add(uint64(len(batch)))
	}
	if len(batch) > 1 {
		if bs, ok := m.store.(BatchStore); ok {
			sets := make([][]SSTWrite, len(batch))
			for i, job := range batch {
				sets[i] = job.writes
			}
			if err := bs.ApplySSTBatch(sets); err == nil {
				for _, job := range batch {
					m.completeSST(job.id, job.locals, nil)
				}
				return
			}
			// The batch failed as a whole — possibly one bad write set.
			// Re-run individually: innocents commit, the offender aborts.
			if m.obs != nil {
				m.obs.sstBatchFallbacks.Inc()
			}
		}
	}
	for _, job := range batch {
		m.completeSST(job.id, job.locals, m.runSST(job.writes))
	}
}

// sstBackoff returns the sleep before retry attempt `attempt` (1-based):
// capped exponential growth from base with ±50% jitter. A zero base — the
// default without WithSSTExecutor or WithSSTBackoff — means no sleep, the
// seed's immediate-retry semantics.
func sstBackoff(base, cap_ time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt && d < cap_; i++ {
		d *= 2
	}
	if cap_ > 0 && d > cap_ {
		d = cap_
	}
	// ±50% jitter decorrelates retries of SSTs that failed together.
	half := int64(d) / 2
	if half > 0 {
		d = time.Duration(half + rand.Int63n(int64(d)-half+1))
	}
	return d
}

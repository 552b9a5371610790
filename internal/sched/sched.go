// Package sched holds the worker-pool primitives shared by every layer
// that fans work out over goroutines: the core solve scans (incremental
// batches, partitions) run their job lists through Schedule, and the
// milp parallel branch-and-bound starts its open-ended LP workers with
// Workers. It is a leaf package — core imports encode imports milp, so
// the scheduler must live below all of them.
package sched

import (
	"sync"

	"repro/internal/obs"
)

// Process-wide gauges on obs.Default(): how many scheduler jobs are
// waiting to start and how many scheduler goroutines are live right now.
// Updated with one atomic op per job/worker transition — invisible next
// to the MILP solves the jobs carry.
var (
	mQueueDepth = obs.Default().Gauge("qfix_sched_queue_depth",
		"Scheduler jobs submitted but not yet started, across all active pools.")
	mWorkers = obs.Default().Gauge("qfix_sched_workers",
		"Live scheduler goroutines (Schedule jobs, resident Pool workers, Workers).")
)

// Schedule fans jobs 0..n-1 out with at most workers of them in flight
// at once, starting them in the given order: order[k] is the k-th job
// index started (nil means 0..n-1; otherwise it must be a permutation of
// 0..n-1). The partition scan passes its largest-first order here so the
// biggest MILP is never stuck behind the queue defining the critical
// path.
//
// With a nil pool each job runs on a goroutine of its own; with a
// resident pool the jobs run on its workers and `workers` bounds this
// job list's share of the pool. Either way a share semaphore of `workers`
// tokens gates the starts, so the two modes start the same jobs in the
// same order.
//
// Every job gets its own 1-buffered result channel, so the consumer can
// adjudicate results in SUBMISSION order (index order, not start order)
// while later jobs are still running — the property the callers rely on
// for determinism: whichever job finishes first, whatever order they
// started in, and however job lists from concurrent scans interleave on
// a shared pool, the *choice* among results is made in a fixed order.
// Jobs that want to short-circuit after a decision (e.g. batches older
// than an accepted repair) check their own cancellation flag inside job;
// the scheduler itself never drops a slot.
//
// wait blocks until every job has delivered its result.
func Schedule[R any](p *Pool, workers, n int, order []int, job func(i int) R) (results []chan R, wait func()) {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	results = make([]chan R, n)
	for i := range results {
		results[i] = make(chan R, 1)
	}
	var wg sync.WaitGroup
	wg.Add(n)
	share := make(chan struct{}, workers)
	// run delivers job i into its own 1-buffered channel (the send never
	// blocks) and hands its share token to the next start.
	run := func(i int) {
		mQueueDepth.Add(-1)
		results[i] <- job(i)
		<-share
		wg.Done()
	}
	mQueueDepth.Add(int64(n))
	// The feeder makes exactly n starts, each after taking a share token
	// that a finished job gives back, so it cannot wedge: every started
	// job runs to completion (jobs own cancellation, as everywhere in
	// this package), and the pool drains its queue until Close.
	//qfix:leak-ok feeder makes n starts, each on a token released by a finished job
	go func() {
		//qfix:ctx-ok n bounded starts; each token is released by a job that always completes
		for k := 0; k < n; k++ {
			i := k
			if order != nil {
				i = order[k]
			}
			share <- struct{}{}
			if p != nil {
				p.jobs <- func() { run(i) }
				continue
			}
			mWorkers.Add(1)
			go func() {
				defer mWorkers.Add(-1)
				run(i)
			}()
		}
	}()
	return results, wg.Wait
}

// Pool is a resident worker pool: a fixed set of long-lived goroutines
// draining one shared run queue. It exists for resident services
// (internal/qfixd) that multiplex many concurrent diagnoses onto one
// process: without one, Schedule starts fresh goroutines for every job,
// which is right for a one-shot CLI run but makes every diagnosis in a
// daemon pay goroutine churn and lets concurrent diagnoses oversubscribe
// the CPU (each scan sizing its share as if it were alone). A Pool is
// created once, shared via core.Options.Scheduler, and bounds the
// process's total solve concurrency at its worker count while each
// Schedule call still bounds that scan's share.
//
// Close-after-drain contract: Schedule on a closed pool panics. Owners
// stop feeding work (drain their in-flight diagnoses) before closing;
// the qfixd server's graceful drain is exactly that sequence.
type Pool struct {
	jobs chan func()
	wg   sync.WaitGroup
}

// NewPool starts a resident pool of n workers (n < 1 picks 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{jobs: make(chan func())}
	for w := 0; w < n; w++ {
		p.wg.Add(1)
		mWorkers.Add(1)
		go func() {
			defer p.wg.Done()
			defer mWorkers.Add(-1)
			// Resident workers live until Close closes the queue; jobs
			// own their cancellation exactly as in Schedule.
			//qfix:ctx-ok exits via Close(): closed jobs channel ends the range
			for f := range p.jobs {
				f()
			}
		}()
	}
	return p
}

// Close stops the pool: no further submissions are accepted and the
// call blocks until every queued job has run. Callers must have stopped
// feeding scans first (see the type comment).
func (p *Pool) Close() {
	close(p.jobs)
	p.wg.Wait()
}

// Workers starts fn on n goroutines (worker ids 0..n-1) and returns a
// function that blocks until all of them return. It is the open-ended
// counterpart to Schedule for pools that pull work from shared state
// rather than a job list — the speculative LP workers of the parallel
// branch-and-bound search claim nodes off the search's own heap.
func Workers(n int, fn func(worker int)) (wait func()) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		mWorkers.Add(1)
		go func(id int) {
			defer wg.Done()
			defer mWorkers.Add(-1)
			fn(id)
		}(w)
	}
	return wg.Wait
}

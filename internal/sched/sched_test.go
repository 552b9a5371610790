package sched

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// schedPools returns the scheduler variants every contract test must
// hold under: per-job goroutines (nil pool) and a resident shared pool
// (core.Options.Scheduler). The determinism contract — results
// adjudicated in submission order via per-job 1-buffered channels — is
// identical in both modes, and these tests pin that.
func schedPools(t *testing.T) map[string]*Pool {
	t.Helper()
	p := NewPool(2)
	t.Cleanup(p.Close)
	return map[string]*Pool{"goroutines": nil, "pool": p}
}

// With a single scan worker the start sequence is exactly the feed
// order, so the explicit order is observable deterministically.
func TestScheduleOrderStartsJobsInGivenOrder(t *testing.T) {
	for name, pool := range schedPools(t) {
		t.Run(name, func(t *testing.T) {
			order := []int{3, 1, 0, 2}
			var mu sync.Mutex
			var started []int
			results, wait := Schedule(pool, 1, 4, order, func(i int) int {
				mu.Lock()
				started = append(started, i)
				mu.Unlock()
				return i * i
			})
			wait()
			if !reflect.DeepEqual(started, order) {
				t.Errorf("start order = %v, want %v", started, order)
			}
			// Adjudication stays in submission (index) order regardless of
			// the start order: results[i] always carries job i's result.
			for i := 0; i < 4; i++ {
				if got := <-results[i]; got != i*i {
					t.Errorf("results[%d] = %d, want %d", i, got, i*i)
				}
			}
		})
	}
}

// Nil order is the identity.
func TestScheduleIdentityOrder(t *testing.T) {
	for name, pool := range schedPools(t) {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			var started []int
			results, wait := Schedule(pool, 1, 5, nil, func(i int) int {
				mu.Lock()
				started = append(started, i)
				mu.Unlock()
				return i
			})
			wait()
			if !reflect.DeepEqual(started, []int{0, 1, 2, 3, 4}) {
				t.Errorf("start order = %v, want identity", started)
			}
			for i := 0; i < 5; i++ {
				if got := <-results[i]; got != i {
					t.Errorf("results[%d] = %d, want %d", i, got, i)
				}
			}
		})
	}
}

// Every job must deliver exactly once even when the scan is wider than
// the job list or bounded below it — including when the scan width
// exceeds the resident pool's own worker count (jobs then queue on the
// pool but still all complete).
func TestScheduleDeliversAllJobs(t *testing.T) {
	for name, pool := range schedPools(t) {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{0, 1, 2, 7, 100} {
				results, wait := Schedule(pool, workers, 7, nil, func(i int) int { return i + 1 })
				wait()
				for i := 0; i < 7; i++ {
					if got := <-results[i]; got != i+1 {
						t.Errorf("workers=%d: results[%d] = %d, want %d", workers, i, got, i+1)
					}
				}
			}
		})
	}
}

// The workers argument bounds how many of the list's jobs run at once
// in both modes: with a nil pool it is the only bound on the per-job
// goroutines.
func TestScheduleBoundsInFlight(t *testing.T) {
	for name, pool := range schedPools(t) {
		t.Run(name, func(t *testing.T) {
			var running, peak atomic.Int32
			release := make(chan struct{})
			results, wait := Schedule(pool, 2, 6, nil, func(i int) int {
				n := running.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				<-release
				running.Add(-1)
				return i
			})
			// Hold the first two jobs until both run, then give a third
			// (wrongly admitted) job time to show up before releasing.
			for running.Load() < 2 {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			close(release)
			wait()
			for i := range results {
				<-results[i]
			}
			if p := peak.Load(); p != 2 {
				t.Errorf("peak in-flight jobs = %d, want 2", p)
			}
		})
	}
}

// An empty job list returns at once.
func TestScheduleEmpty(t *testing.T) {
	for name, pool := range schedPools(t) {
		t.Run(name, func(t *testing.T) {
			results, wait := Schedule(pool, 4, 0, nil, func(int) int { return 0 })
			wait()
			if len(results) != 0 {
				t.Errorf("len(results) = %d, want 0", len(results))
			}
		})
	}
}

package main

import (
	"math/rand"
	"sort"
	"time"
)

// On a two-CPU virtual machine that shares its host, the speed a run
// gets drifts by 15-20% over minutes, and 30-second runs of identical
// work spread by as much. Between diagnoses the batch workloads
// therefore time a fixed reference kernel, pure Go and independent of
// the engine, and scale every end-to-end timing of the run by
// refNominal over the kernel's median time in that run: the figures
// read as they would on a machine that runs the kernel in refNominal. A
// change to the engine moves the diagnoses and not the kernel, so it
// shows in full; a slower stretch of the host moves both and cancels.

// refNominal is within the range of the kernel's median time on that
// virtual machine (Xeon, 2.1 GHz; 10 to 12 ms), so scaled figures there
// read close to wall time.
const refNominal = 12 * time.Millisecond

// refKernel holds the kernel's preallocated state: it allocates nothing
// after construction, so it neither triggers nor pays for a collection.
type refKernel struct {
	rng  *rand.Rand
	mat  []float64
	keys map[int32]int
	xs   []float64
}

const refN = 60 // order of the dense matrix the kernel factors

func newRefKernel() *refKernel {
	return &refKernel{rng: rand.New(rand.NewSource(1)), mat: make([]float64, refN*refN),
		keys: make(map[int32]int, 8192), xs: make([]float64, 8000)}
}

// run does one slice of the kernel's fixed work and returns how long it
// took. The mix follows the engine's own: dense floating-point
// elimination (simplex refactorization), hashing into a map (tuple and
// statement indexes) and sorting.
func (k *refKernel) run() time.Duration {
	t0 := time.Now()
	sum := 0.0
	for rep := 0; rep < 36; rep++ {
		a := k.mat
		for i := range a {
			a[i] = k.rng.Float64()
		}
		for i := 0; i < refN; i++ {
			a[i*refN+i] += refN
		}
		for c := 0; c < refN; c++ {
			piv := a[c*refN : c*refN+refN]
			for i := c + 1; i < refN; i++ {
				row := a[i*refN : i*refN+refN]
				f := row[c] / piv[c]
				for j := c; j < refN; j++ {
					row[j] -= f * piv[j]
				}
			}
		}
		sum += a[refN*refN-1]
	}
	for rep := 0; rep < 3; rep++ {
		clear(k.keys)
		for i := int32(0); i < 5000; i++ {
			k.keys[i*7919%4093] += int(i)
		}
		for key, v := range k.keys {
			sum += float64(key) * float64(v)
		}
	}
	for rep := 0; rep < 6; rep++ {
		for i := range k.xs {
			k.xs[i] = k.rng.Float64()
		}
		sort.Float64s(k.xs)
		sum += k.xs[0]
	}
	refSink += sum
	return time.Since(t0)
}

// refSink keeps the kernel's arithmetic from being optimized away.
var refSink float64

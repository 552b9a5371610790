package dist

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"
)

// unjittered is the capped exponential the jitter scales.
func unjittered(failures int) time.Duration {
	d := muxBackoffMax
	if failures >= 1 && failures <= 6 {
		if b := muxBackoffBase << (failures - 1); b < d {
			d = b
		}
	}
	return d
}

// The backoff schedule must stay exponential-shaped but bounded-jittered:
// every delay within ±25% of its capped exponential, including at the
// cap (a lockstep steady state at exactly muxBackoffMax is the failure
// mode this guards against).
func TestMuxBackoffScheduleBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(backoffSeed("worker-a:9000")))
	for failures := 1; failures <= 12; failures++ {
		d := muxBackoff(failures, rng)
		base := unjittered(failures)
		lo := time.Duration(float64(base) * (1 - muxBackoffJitter))
		hi := time.Duration(float64(base) * (1 + muxBackoffJitter))
		if d < lo || d > hi {
			t.Fatalf("failures=%d: backoff %v outside [%v, %v]", failures, d, lo, hi)
		}
	}
}

// Reproducibility: the jitter is seeded from the worker address, so one
// transport's schedule is deterministic across restarts (what keeps the
// mux reconnect tests stable) ...
func TestMuxBackoffDeterministicPerAddr(t *testing.T) {
	a1 := rand.New(rand.NewSource(backoffSeed("w1:9000")))
	a2 := rand.New(rand.NewSource(backoffSeed("w1:9000")))
	for failures := 1; failures <= 8; failures++ {
		d1, d2 := muxBackoff(failures, a1), muxBackoff(failures, a2)
		if d1 != d2 {
			t.Fatalf("failures=%d: same-addr schedules diverge: %v vs %v", failures, d1, d2)
		}
	}
}

// ... while distinct workers never share a schedule: a coordinator with
// several mux workers behind one recovered path must not re-dial them
// in lockstep.
func TestMuxBackoffDesynchronizedAcrossAddrs(t *testing.T) {
	addrs := []string{"w1:9000", "w2:9000", "w3:9000", "w4:9000"}
	rngs := make([]*rand.Rand, len(addrs))
	for i, a := range addrs {
		rngs[i] = rand.New(rand.NewSource(backoffSeed(a)))
	}
	for failures := 1; failures <= 8; failures++ {
		seen := make(map[time.Duration]bool, len(addrs))
		distinct := 0
		for _, rng := range rngs {
			d := muxBackoff(failures, rng)
			if !seen[d] {
				seen[d] = true
				distinct++
			}
		}
		// All four firing at the identical instant is exactly the
		// lockstep bug; with continuous jitter they must all differ.
		if distinct < len(addrs) {
			t.Fatalf("failures=%d: only %d distinct delays across %d workers",
				failures, distinct, len(addrs))
		}
	}
}

// The transport must arm nextDial with the jittered schedule.
func TestMuxTransportArmsJitteredBackoff(t *testing.T) {
	tr := DialMux("w1:9000")
	want := rand.New(rand.NewSource(backoffSeed("w1:9000")))
	for failures := 1; failures <= 4; failures++ {
		before := time.Now()
		tr.mu.Lock()
		tr.backoffLocked()
		next := tr.nextDial
		tr.mu.Unlock()
		d := muxBackoff(failures, want)
		// nextDial = now + d, with `now` sampled inside backoffLocked.
		gotDelay := next.Sub(before)
		if gotDelay < d || gotDelay > d+time.Second {
			t.Fatalf("failures=%d: armed delay ~%v, want %v", failures, gotDelay, d)
		}
	}
}

// While the persistent connection backs off, a job must still reach
// the worker over a one-shot connection — so a restarted worker serves
// again immediately — without re-dialing the mux link early.
func TestMuxOneShotWhileBackingOff(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{}
	go srv.Serve(l)
	defer srv.Close()

	tr := DialMux(l.Addr().String())
	defer tr.Close()
	tr.mu.Lock()
	tr.nextDial = time.Now().Add(time.Hour)
	tr.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// An empty job is answered with a decode error: enough to prove the
	// round trip.
	res, err := tr.Do(ctx, &Job{Version: WireVersion, ID: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != 7 || res.Err == "" {
		t.Errorf("result = id %d err %q, want id 7 with a decode error", res.ID, res.Err)
	}
	if res.Stats.StreamedResults != 0 {
		t.Error("one-shot result marked as streamed")
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.conn != nil {
		t.Error("persistent connection dialed during backoff")
	}
}

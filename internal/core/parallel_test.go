package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
)

func TestParallelMatchesSequentialFigure2(t *testing.T) {
	d0, dirty, truth := figure2()
	complaints := completeComplaints(t, d0, dirty, truth)
	seqOpts := Options{
		Algorithm:    Incremental,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    30 * time.Second,
	}
	parOpts := seqOpts
	parOpts.Parallel = 4

	seq, err := Diagnose(d0, dirty, complaints, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Diagnose(d0, dirty, complaints, parOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Resolved || !par.Resolved {
		t.Fatalf("resolved: seq=%v par=%v", seq.Resolved, par.Resolved)
	}
	if query.Distance(seq.Log, par.Log) > 1e-9 {
		t.Errorf("parallel repair differs from sequential:\n seq: %v\n par: %v",
			query.LogParams(seq.Log), query.LogParams(par.Log))
	}
}

// Property: the parallel scan picks the same repair as the sequential
// scan on random single-corruption instances.
func TestQuickParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d0, dirty, truth, _ := randomWorkload(rng)
		dirtyFinal, err := query.Replay(dirty, d0)
		if err != nil {
			return true
		}
		truthFinal, err := query.Replay(truth, d0)
		if err != nil {
			return true
		}
		complaints := ComplaintsFromDiff(dirtyFinal, truthFinal, 1e-9)
		if len(complaints) == 0 {
			return true
		}
		base := Options{
			Algorithm:    Incremental,
			TupleSlicing: true,
			TimeLimit:    20 * time.Second,
		}
		par := base
		par.Parallel = 3
		seqRep, err1 := Diagnose(d0, dirty, complaints, base)
		parRep, err2 := Diagnose(d0, dirty, complaints, par)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("seed %d: error mismatch %v vs %v", seed, err1, err2)
			return false
		}
		if err1 != nil {
			return true
		}
		if seqRep.Resolved != parRep.Resolved {
			t.Logf("seed %d: resolved mismatch", seed)
			return false
		}
		if !seqRep.Resolved {
			return true
		}
		if query.Distance(seqRep.Log, parRep.Log) > 1e-9 {
			t.Logf("seed %d: repairs differ", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestParallelPinsDecisiveStatus(t *testing.T) {
	// Regression: with more batches than workers and the corruption in
	// the newest query, the winning batch decides early and the
	// abandoned older batches report "skipped" afterwards. Their merge
	// must not clobber the decisive batch's solver status.
	sch := relation.MustSchema("T", []string{"a", "b"}, "")
	d0 := relation.NewTable(sch)
	for i := 0; i < 5; i++ {
		d0.MustInsert(float64(i*10), 0)
	}
	mk := func(theta float64) []query.Query {
		log := []query.Query{}
		// Plenty of decoy queries older than the corruption so the scan
		// has many batches to abandon.
		for i := 0; i < 12; i++ {
			log = append(log, query.NewUpdate(
				[]query.SetClause{{Attr: 1, Expr: query.NewLinExpr(float64(i+1),
					query.Term{Attr: 1, Coef: 1})}},
				query.AttrPred(0, query.GE, 500))) // matches nothing
		}
		return append(log, query.NewUpdate(
			[]query.SetClause{{Attr: 1, Expr: query.ConstExpr(1)}},
			query.AttrPred(0, query.GE, theta))) // corrupted (newest)
	}
	dirty, truth := mk(10), mk(30)
	complaints := completeComplaints(t, d0, dirty, truth)
	for trial := 0; trial < 5; trial++ {
		rep, err := Diagnose(d0, dirty, complaints, Options{
			Algorithm:    Incremental,
			TupleSlicing: true,
			Parallel:     2,
			TimeLimit:    30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Resolved {
			t.Fatalf("not resolved: %+v", rep.Stats)
		}
		if rep.Stats.LastStatus == "skipped" {
			t.Fatalf("trial %d: LastStatus clobbered by a skipped worker: %+v",
				trial, rep.Stats)
		}
	}
}

func TestParallelOldCorruption(t *testing.T) {
	// Corruption in the oldest query: the parallel scan must still find
	// it (newer batches yield nothing clean) and match sequential.
	d0, dirty, truth := figure2()
	complaints := completeComplaints(t, d0, dirty, truth)
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm:    Incremental,
		TupleSlicing: true,
		Parallel:     8, // more workers than batches
		TimeLimit:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("not resolved: %+v", rep.Stats)
	}
	if len(rep.Changed) != 1 || rep.Changed[0] != 0 {
		t.Errorf("changed = %v, want [0]", rep.Changed)
	}
}

// An Inc_k scan stopped by TotalTimeLimit reports "total-time-limit"
// whether its batches run inline or on the scheduler: the adjudication
// pins the status of the batch that ended the scan, not that of batches
// skipped behind it.
func TestIncrementalDeadlineStatus(t *testing.T) {
	d0, dirty, truth := figure2()
	complaints := completeComplaints(t, d0, dirty, truth)
	for _, parallel := range []int{1, 2} {
		rep, err := Diagnose(d0, dirty, complaints, Options{
			Algorithm:      Incremental,
			TupleSlicing:   true,
			QuerySlicing:   true,
			Parallel:       parallel,
			TimeLimit:      30 * time.Second,
			TotalTimeLimit: time.Nanosecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Resolved {
			t.Errorf("Parallel=%d: resolved with an expired deadline", parallel)
		}
		if rep.Stats.LastStatus != "total-time-limit" {
			t.Errorf("Parallel=%d: LastStatus = %q, want total-time-limit",
				parallel, rep.Stats.LastStatus)
		}
	}
}

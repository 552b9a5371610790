package dist_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
)

// malformedJobs returns the fixture job corrupted the two ways that
// once panicked a worker: a LinExpr term naming attribute -1, and an
// existence complaint carrying fewer values than the schema is wide.
func malformedJobs(t testing.TB) []namedJob {
	t.Helper()
	encode := func() *dist.Job {
		job, err := dist.EncodeJob(1, fixtureSubproblem(t))
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	badTerm := encode()
	badTerm.Log[0].Set[0].Expr.Terms[0].Attr = -1
	shortComplaint := encode()
	shortComplaint.Complaints[0].Values = shortComplaint.Complaints[0].Values[:1]
	return []namedJob{{"term attr -1", badTerm}, {"short complaint", shortComplaint}}
}

type namedJob struct {
	name string
	job  *dist.Job
}

// lyingResults returns well-formed, resolved answers to job that lie
// about its shape the three ways that once panicked the coordinator's
// partition merge: a Changed index past the log, a negative one, and a
// log shorter than the job's.
func lyingResults(job *dist.Job) []namedResult {
	lie := func(changed ...int) *dist.Result {
		return &dist.Result{Version: dist.WireVersion, ID: job.ID,
			Log: job.Log, Changed: changed, Resolved: true}
	}
	short := lie(len(job.Log) - 1)
	short.Log = job.Log[:len(job.Log)-1]
	return []namedResult{
		{"changed 1<<20", lie(1 << 20)},
		{"changed -1", lie(-1)},
		{"short log", short},
	}
}

type namedResult struct {
	name string
	res  *dist.Result
}

// TestMalformedJobRejected pins that a malformed job comes back as an
// error result instead of panicking the worker.
func TestMalformedJobRejected(t *testing.T) {
	for _, c := range malformedJobs(t) {
		res, err := dist.InProc{}.Do(context.Background(), c.job)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Err == "" {
			t.Errorf("%s: worker accepted a malformed job", c.name)
		}
	}
	// A result naming an attribute outside the schema is rejected too.
	job := malformedJobs(t)[0].job
	res := &dist.Result{Version: dist.WireVersion, ID: job.ID, Log: job.Log, Resolved: true}
	if _, err := dist.DecodeResult(res, job); err == nil ||
		!strings.Contains(err.Error(), "attribute index -1") {
		t.Errorf("DecodeResult on a bad attribute: err = %v", err)
	}
	// So is a result whose log or Changed does not fit the job.
	for _, c := range lyingResults(job) {
		if _, err := dist.DecodeResult(c.res, job); err == nil {
			t.Errorf("DecodeResult accepted a lying result: %s", c.name)
		}
	}
}

// FuzzDecodeJob feeds arbitrary bytes through the worker's whole
// boundary — JSON decode, DecodeJob, and a budget-capped local solve —
// which must reject or solve every input, never panic.
func FuzzDecodeJob(f *testing.F) {
	good, err := dist.EncodeJob(1, fixtureSubproblem(f))
	if err != nil {
		f.Fatal(err)
	}
	seeds := []*dist.Job{good}
	for _, c := range malformedJobs(f) {
		seeds = append(seeds, c.job)
	}
	for _, job := range seeds {
		raw, err := json.Marshal(job)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var job dist.Job
		if json.Unmarshal(raw, &job) != nil {
			return
		}
		sub, err := dist.DecodeJob(&job)
		if err != nil {
			return
		}
		sub.Options.MaxNodes = 50
		sub.Options.TimeLimit = 200 * time.Millisecond
		sub.Options.TotalTimeLimit = time.Second
		_, _ = sub.SolveLocal()
	})
}

// FuzzDecodeResult feeds arbitrary bytes through the coordinator's
// result boundary — JSON decode and DecodeResult against the fixture
// job. Every accepted repair must be safe to merge: its log as long as
// the job's and every Changed entry an index into it.
func FuzzDecodeResult(f *testing.F) {
	sub := fixtureSubproblem(f)
	job, err := dist.EncodeJob(1, sub)
	if err != nil {
		f.Fatal(err)
	}
	rep, err := sub.SolveLocal()
	if err != nil {
		f.Fatal(err)
	}
	good, err := dist.EncodeResult(1, rep, nil)
	if err != nil {
		f.Fatal(err)
	}
	seeds := []*dist.Result{good}
	for _, c := range lyingResults(job) {
		seeds = append(seeds, c.res)
	}
	for _, res := range seeds {
		raw, err := json.Marshal(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var res dist.Result
		if json.Unmarshal(raw, &res) != nil {
			return
		}
		rep, err := dist.DecodeResult(&res, job)
		if err != nil {
			return
		}
		if len(rep.Log) != len(job.Log) {
			t.Fatalf("accepted a %d-query log for a %d-query job", len(rep.Log), len(job.Log))
		}
		for _, qi := range rep.Changed {
			if qi < 0 || qi >= len(rep.Log) {
				t.Fatalf("accepted Changed entry %d outside the %d-query log", qi, len(rep.Log))
			}
		}
	})
}

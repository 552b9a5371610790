package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/encode"
	"repro/internal/milp"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sched"
)

// Diagnose runs QFix: it analyzes the log and the complaint set and
// returns a log repair. A nil error with Repair.Resolved=false means the
// search completed without finding a verified repair (the paper reports
// these runs as infeasible/timeout); hard failures (malformed inputs)
// return an error.
func Diagnose(d0 *relation.Table, log []query.Query, complaints []Complaint, opt Options) (*Repair, error) {
	opt = opt.withDefaults()
	if len(log) == 0 {
		return nil, fmt.Errorf("core: empty query log")
	}
	width := d0.Schema().Width()
	for _, c := range complaints {
		if c.Exists && len(c.Values) != width {
			return nil, fmt.Errorf("core: complaint on tuple %d has %d values, schema width %d",
				c.TupleID, len(c.Values), width)
		}
	}

	span := opt.Trace.Start("diagnose")
	span.SetAttr("algorithm", opt.Algorithm.String())
	span.SetAttr("queries", len(log))
	span.SetAttr("complaints", len(complaints))
	defer span.End()

	rp := startPhase(span, "replay")
	dirtyFinal, err := query.Replay(log, d0)
	replayTime := rp.stop()
	if err != nil {
		return nil, fmt.Errorf("core: replaying log: %w", err)
	}
	if len(complaints) == 0 {
		// Nothing to diagnose: the identity repair is optimal.
		mDiagnoses.Inc()
		mDiagnosesResolved.Inc()
		return &Repair{Log: query.CloneLog(log), Resolved: true,
			Stats: Stats{RelevantQueries: len(log), LastStatus: "trivial",
				PlanTime: replayTime}}, nil
	}

	d := &diagnoser{
		opt: opt, d0: d0, log: log, complaints: complaints,
		width: width, dirtyFinal: dirtyFinal, span: span,
	}
	d.stats.PlanTime += replayTime
	if opt.WarmStart {
		d.seeds = newSeedBoard()
	}
	d.plan()
	if opt.TotalTimeLimit > 0 {
		d.deadline = time.Now().Add(opt.TotalTimeLimit)
	}

	rep, err := d.dispatch()
	mDiagnoses.Inc()
	if rep != nil {
		if rep.Resolved {
			mDiagnosesResolved.Inc()
		}
		mPlanSeconds.Observe(rep.Stats.PlanTime.Seconds())
		mEncodeSeconds.Observe(rep.Stats.EncodeTime.Seconds())
		mSolveSeconds.Observe(rep.Stats.SolveTime.Seconds())
	}
	return rep, err
}

// dispatch routes the planned diagnosis to the partitioned or joint
// solve path.
func (d *diagnoser) dispatch() (*Repair, error) {
	if d.opt.Partition > 0 {
		if rep, handled, err := d.partitioned(); handled {
			return rep, err
		}
	}
	return d.solveJoint()
}

// solveJoint runs the configured algorithm over the whole complaint set
// (the solve stage when partition planning is off or found a single
// component, and the fallback when partition merging detects a
// conflict or cross-partition interference).
func (d *diagnoser) solveJoint() (*Repair, error) {
	switch d.opt.Algorithm {
	case Incremental:
		return d.incremental()
	default:
		return d.basic()
	}
}

type diagnoser struct {
	opt        Options
	d0         *relation.Table
	log        []query.Query
	complaints []Complaint
	width      int
	dirtyFinal *relation.Table
	deadline   time.Time
	seeds      *seedBoard // warm-start seed sharing (nil unless WarmStart)
	span       *obs.Span  // phase spans hang here (nil = tracing off)

	// planning products
	candidates []int // repair candidates (query slicing or all)
	attrs      []int // encoded attributes (attr slicing or nil)
	tupleIDs   []int64
	full       []query.AttrSet     // full impact F(q) per query (nil unless needed)
	dirtyVals  map[int64][]float64 // dirty final state by tuple id
	ac         query.AttrSet       // complaint attributes A(C)

	stats Stats
}

// plan computes the slicing sets (§5.2–5.3) and the tuple slice (§5.1).
// Its products stay on the diagnoser: the partition planner reuses the
// full-impact sets and per-tuple dirty values to build the
// complaint–query interaction graph without recomputing them, and
// partition subproblems adopt them wholesale (adoptPlan) so only the
// coordinating diagnosis pays for the FullImpact closure.
func (d *diagnoser) plan() {
	d.stats.PlanPasses++
	pp := startPhase(d.span, "plan")
	d.dirtyVals = make(map[int64][]float64, d.dirtyFinal.Len())
	d.dirtyFinal.Rows(func(t relation.Tuple) {
		d.dirtyVals[t.ID] = append([]float64(nil), t.Values...)
	})
	if d.opt.QuerySlicing || d.opt.AttrSlicing || d.opt.Partition > 0 {
		ip := startPhase(pp.sp, "impact")
		if d.opt.ImpactCache != nil {
			d.full = d.opt.ImpactCache.fullImpact(d.log, d.d0.Schema(), d.width, d.opt.LogDigest, &d.stats)
		} else {
			d.full = FullImpact(d.log, d.width)
		}
		d.stats.ImpactTime += ip.stop()
	}
	d.planSlices()
	d.stats.PlanTime += pp.stop()
}

// adoptPlan initializes a partition sub-diagnoser from its parent's
// planning products: the replayed dirty state and FullImpact closure are
// shared read-only, so the sub-diagnosis derives its slices by cheap set
// arithmetic instead of a planning pass of its own (Stats.PlanPasses
// stays at the parent's single pass). The derived candidate set is
// provably the one a fresh plan would compute: Options.Candidates is
// pinned to the partition's candidates, and relevantQueries over the
// shared impact sets is deterministic.
func (sub *diagnoser) adoptPlan(parent *diagnoser) {
	sub.dirtyVals = parent.dirtyVals
	sub.full = parent.full
	sub.planSlices()
}

// planSlices derives the per-diagnosis slicing sets from the (computed
// or adopted) dirty values and impact closure.
func (d *diagnoser) planSlices() {
	d.ac = complaintAttrs(d.complaints, d.dirtyVals, d.width)
	if d.opt.QuerySlicing {
		d.candidates = relevantQueries(d.full, d.ac, d.opt.SingleCorruption)
	} else {
		d.candidates = make([]int, len(d.log))
		for i := range d.log {
			d.candidates[i] = i
		}
	}
	if d.opt.AttrSlicing {
		d.attrs = relevantAttrs(d.log, d.full, d.candidates, d.ac)
	}
	if d.opt.Candidates != nil {
		allowed := make(map[int]bool, len(d.opt.Candidates))
		for _, i := range d.opt.Candidates {
			allowed[i] = true
		}
		var kept []int
		for _, i := range d.candidates {
			if allowed[i] {
				kept = append(kept, i)
			}
		}
		d.candidates = kept
	}
	d.stats.RelevantQueries = len(d.candidates)

	if d.opt.TupleSlicing {
		d.tupleIDs = make([]int64, 0, len(d.complaints))
		for _, c := range d.complaints {
			d.tupleIDs = append(d.tupleIDs, c.TupleID)
		}
	}
}

// encComplaints converts to the encoder's complaint type.
func (d *diagnoser) encComplaints() []encode.Complaint {
	out := make([]encode.Complaint, len(d.complaints))
	for i, c := range d.complaints {
		out[i] = encode.Complaint{TupleID: c.TupleID, Exists: c.Exists, Values: c.Values}
	}
	return out
}

// attempt encodes the given parameter set over the given log and solves,
// returning the repaired log when the solver finds a solution. Solver
// statistics accumulate into st (per batch under the Inc_k scan, shared
// under Basic); encode/seed/solve spans hang under sp (typically a
// per-batch span).
func (d *diagnoser) attempt(baseLog []query.Query, paramSet map[int]bool, soft []int64, st *Stats, sp *obs.Span) ([]query.Query, bool, error) {
	eo := d.opt.encOptions()
	eo.ParamQueries = paramSet
	eo.TupleIDs = d.tupleIDs
	eo.Attrs = d.attrs
	eo.FixNonComplaints = !d.opt.TupleSlicing
	eo.SoftTupleIDs = soft

	ep := startPhase(sp, "encode")
	res, err := encode.Encode(d.d0, baseLog, d.encComplaints(), eo)
	st.EncodeTime += ep.stop()
	if err != nil {
		return nil, false, err
	}
	ep.sp.SetAttr("rows", res.Stats.Rows)
	ep.sp.SetAttr("vars", res.Stats.Vars)
	st.Rows += res.Stats.Rows
	st.Vars += res.Stats.Vars
	st.Binaries += res.Stats.Binaries
	st.BatchesTried++

	limit := d.opt.TimeLimit
	if !d.deadline.IsZero() {
		remain := time.Until(d.deadline)
		if remain <= 0 {
			st.LastStatus = "total-time-limit"
			return nil, false, nil
		}
		if remain < limit {
			limit = remain
		}
	}
	mopt := milp.Options{
		TimeLimit:  limit,
		MaxNodes:   d.opt.MaxNodes,
		ColdLP:     d.opt.ColdLP,
		Parallel:   d.opt.SolverParallel,
		NoPresolve: d.opt.NoPresolve,
	}
	var warmKey uint64
	if d.opt.WarmStart {
		sdp := startPhase(sp, "seed")
		if d.opt.SolutionCache != nil {
			// The key digests D0, the log SQL, and the complaint set —
			// only worth computing when there is a cache to consult.
			warmKey = d.solveKey(baseLog, paramSet, soft)
		}
		d.seedSolve(res, warmKey, &mopt, st)
		st.SolveTime += sdp.stop()
		if !d.deadline.IsZero() {
			// The seed completion spent wall clock; re-clamp the main
			// solve so seeding can never stretch the shared deadline.
			remain := time.Until(d.deadline)
			if remain <= 0 {
				st.LastStatus = "total-time-limit"
				return nil, false, nil
			}
			if remain < mopt.TimeLimit {
				mopt.TimeLimit = remain
			}
		}
	}
	svp := startPhase(sp, "solve")
	mopt.Trace = svp.sp
	mres, vals := res.SolveOpts(mopt)
	st.SolveTime += svp.stop()
	svp.sp.SetAttr("status", mres.Status.String())
	svp.sp.SetAttr("nodes", mres.Nodes)
	svp.sp.SetAttr("lp_iters", mres.LPIters)
	st.Nodes += mres.Nodes
	st.LPIters += mres.LPIters
	st.Refactorizations += mres.Refactorizations
	st.PresolvedRows += mres.PresolvedRows
	if mres.SeedUsed {
		st.WarmSeeds++
		mWarmSeeds.Inc()
	}
	st.LastStatus = mres.Status.String()
	if !mres.HasSolution {
		return nil, false, nil
	}
	if d.opt.WarmStart {
		// Publish the accepted assignment for related solves (refinement
		// rounds, sibling partitions) and cache the full solution and
		// basis for repeat diagnoses of this exact history.
		d.seeds.publish(res.Params, vals)
		d.opt.SolutionCache.put(warmKey, res, mres)
	}

	repaired := query.CloneLog(baseLog)
	byQuery := map[int][]float64{}
	for qi := range repaired {
		byQuery[qi] = repaired[qi].Params()
	}
	for i, ref := range res.Params {
		byQuery[ref.Query][ref.Index] = vals[i]
	}
	for qi, q := range repaired {
		if err := q.SetParams(byQuery[qi]); err != nil {
			return nil, false, fmt.Errorf("core: applying repair to query %d: %w", qi, err)
		}
	}
	return repaired, true, nil
}

// basic runs Algorithm 1: one MILP parameterizing every candidate query.
func (d *diagnoser) basic() (*Repair, error) {
	paramSet := make(map[int]bool, len(d.candidates))
	for _, i := range d.candidates {
		paramSet[i] = true
	}
	bsp := d.span.Start("batch")
	bsp.SetAttr("queries", len(paramSet))
	defer bsp.End()
	repaired, ok, err := d.attempt(d.log, paramSet, nil, &d.stats, bsp)
	if err != nil {
		return nil, err
	}
	if !ok {
		return d.finish(nil), nil
	}
	repaired = d.maybeRefine(repaired, paramSet, &d.stats, bsp)
	return d.finish(repaired), nil
}

// incremental runs Algorithm 3: batches of K consecutive candidates,
// newest first. A verified repair that leaves every non-complaint tuple
// at its dirty value ends the scan. A repair that resolves the
// complaints but disturbs other tuples is kept as a fallback while older
// batches are scanned — without tuple slicing this cannot happen (hard
// constraints forbid disturbance, as in the paper's Basic_params), and
// with tuple slicing this gate is what keeps repair precision high when
// a newer query admits a spurious fix. Among fallbacks the least damage,
// then the least distance, wins. An encode error or the TotalTimeLimit
// deadline also ends the scan.
//
// With Options.Parallel > 1 the batches, which are independent MILPs,
// solve concurrently on the shared scheduler (an extension beyond the
// paper, after its closing "additional methods of scaling the constraint
// analysis" direction); otherwise each runs inline on this goroutine.
// Either way one adjudication consumes the batch outcomes in newest-first
// order and stops at the same decisive batch, whose status is pinned as
// Stats.LastStatus, so the repair and status do not depend on Parallel.
// Only the statistics of work started behind the decisive batch differ:
// the inline scan never starts it, the parallel scan skips or abandons
// it.
func (d *diagnoser) incremental() (*Repair, error) {
	// Candidates sorted most to least recent, cut into batches of K.
	cands := append([]int(nil), d.candidates...)
	slices.Reverse(cands)
	var batches [][]int
	for start := 0; start < len(cands); start += d.opt.K {
		batches = append(batches, cands[start:min(start+d.opt.K, len(cands))])
	}

	// stop is raised once the decisive batch is adjudicated; batches not
	// yet started then need not run.
	var stop atomic.Bool
	// solve is the per-batch body. sp is the batch's span; nil makes it
	// open one of its own once it knows the batch will run, so the inline
	// scan traces exactly the batches it solves.
	solve := func(bi int, sp *obs.Span) batchOutcome {
		var out batchOutcome
		if stop.Load() {
			out.stats.LastStatus = "skipped"
			return out
		}
		if !d.deadline.IsZero() && time.Now().After(d.deadline) {
			out.stats.LastStatus = "total-time-limit"
			return out
		}
		if sp == nil {
			sp = d.span.Start("batch")
			sp.SetAttr("queries", len(batches[bi]))
			defer sp.End()
		}
		paramSet := make(map[int]bool, len(batches[bi]))
		for _, qi := range batches[bi] {
			paramSet[qi] = true
		}
		repaired, ok, err := d.attempt(d.log, paramSet, nil, &out.stats, sp)
		if err != nil || !ok {
			out.err = err
			return out
		}
		out.repaired = d.maybeRefine(repaired, paramSet, &out.stats, sp)
		return out
	}

	var adj incAdjudicator
	if d.opt.Parallel <= 1 {
		for bi := range batches {
			if adj.take(d, solve(bi, nil)) {
				break
			}
		}
	} else {
		// Batch spans are pre-created in index order by this
		// (coordinating) goroutine, so the trace's top-level shape is
		// fixed before any job runs; each job fills in only its own
		// subtree. Which batches end up skipped still depends on timing
		// — the determinism pin covers -solver-parallel, not the batch
		// scan.
		bspans := make([]*obs.Span, len(batches))
		for bi := range batches {
			bspans[bi] = d.span.Start("batch")
			bspans[bi].SetAttr("queries", len(batches[bi]))
		}
		results, wait := sched.Schedule(d.opt.Scheduler, d.opt.Parallel, len(batches), nil, func(bi int) batchOutcome {
			defer bspans[bi].End()
			return solve(bi, bspans[bi])
		})
		// Every scheduled job delivers exactly one outcome into its own
		// 1-buffered channel, even when skipped, so each receive
		// completes; cancellation lives in the jobs (stop flag + deadline
		// checks) and the merge MUST drain all of them for deterministic
		// stats.
		//qfix:ctx-ok receives always complete: jobs deliver even when skipped; jobs own cancellation
		for bi := range batches {
			if adj.take(d, <-results[bi]) {
				stop.Store(true)
			}
		}
		wait()
	}
	return adj.result(d)
}

// batchOutcome is one Inc_k batch's result: the refined repaired log
// (nil when the batch found no solution), an encode error, and the
// batch's own statistics.
type batchOutcome struct {
	repaired []query.Query
	err      error
	stats    Stats
}

// incAdjudicator consumes batch outcomes in newest-first order and
// decides the Inc_k scan: the first clean repair wins; the least-damage,
// then least-distance, resolved repair is the fallback; an error or an
// expired deadline ends the scan too.
type incAdjudicator struct {
	decided  bool
	status   string // LastStatus of the latest batch adjudicated up to the decision
	err      error
	winner   *Repair
	fallback *Repair
	damage   int // the fallback's non-complaint damage
}

// take merges one outcome's statistics and, until the scan is decided,
// adjudicates it. It reports whether the scan is decided; outcomes taken
// after that (work abandoned behind the decisive batch) only add their
// statistics.
func (a *incAdjudicator) take(d *diagnoser, out batchOutcome) bool {
	d.mergeStats(out.stats)
	if a.decided {
		return true
	}
	if out.stats.LastStatus != "" {
		a.status = out.stats.LastStatus
	}
	if out.err != nil {
		a.err, a.decided = out.err, true
		return true
	}
	if out.repaired != nil {
		if rep := d.finish(out.repaired); rep.Resolved {
			damage := d.nonComplaintDamage(rep.Log)
			if damage == 0 {
				a.winner, a.decided = rep, true
				return true
			}
			if a.fallback == nil || damage < a.damage ||
				(damage == a.damage && rep.Distance < a.fallback.Distance) {
				a.fallback, a.damage = rep, damage
			}
		}
	}
	// The deadline has passed: every older batch would be skipped.
	a.decided = out.stats.LastStatus == "total-time-limit"
	return a.decided
}

// result packages the decision, pinning the decisive batch's status over
// whatever abandoned batches merged after it.
func (a *incAdjudicator) result(d *diagnoser) (*Repair, error) {
	if a.status != "" {
		d.stats.LastStatus = a.status
	}
	if a.err != nil {
		return nil, a.err
	}
	rep := a.winner
	if rep == nil {
		rep = a.fallback
	}
	if rep == nil {
		return d.finish(nil), nil
	}
	rep.Stats = d.stats
	return rep, nil
}

// mergeStats folds a batch's or partition's statistics into the shared
// totals. Called only from the adjudicating goroutine.
func (d *diagnoser) mergeStats(st Stats) {
	d.stats.Rows += st.Rows
	d.stats.Vars += st.Vars
	d.stats.Binaries += st.Binaries
	d.stats.BatchesTried += st.BatchesTried
	d.stats.Nodes += st.Nodes
	d.stats.LPIters += st.LPIters
	d.stats.Refactorizations += st.Refactorizations
	d.stats.PresolvedRows += st.PresolvedRows
	d.stats.EncodeTime += st.EncodeTime
	d.stats.SolveTime += st.SolveTime
	d.stats.PlanTime += st.PlanTime
	d.stats.MergeTime += st.MergeTime
	d.stats.PlanPasses += st.PlanPasses
	d.stats.RemoteJobs += st.RemoteJobs
	d.stats.StreamedResults += st.StreamedResults
	d.stats.WarmSeeds += st.WarmSeeds
	d.stats.ImpactCacheHits += st.ImpactCacheHits
	d.stats.ImpactCacheExtends += st.ImpactCacheExtends
	d.stats.WorkerCacheHits += st.WorkerCacheHits
	d.stats.ImpactTime += st.ImpactTime
	if st.Refined {
		d.stats.Refined = true
	}
	if st.Partitions > d.stats.Partitions {
		d.stats.Partitions = st.Partitions
	}
	if st.PartitionFallback {
		d.stats.PartitionFallback = true
	}
	if st.LastStatus != "" {
		d.stats.LastStatus = st.LastStatus
	}
}

// nonComplaintDamage counts non-complaint tuples whose replayed final
// state differs from the dirty final state under the repair.
func (d *diagnoser) nonComplaintDamage(repaired []query.Query) int {
	final, err := query.Replay(repaired, d.d0)
	if err != nil {
		return int(^uint(0) >> 1)
	}
	complaintIDs := make(map[int64]bool, len(d.complaints))
	for _, c := range d.complaints {
		complaintIDs[c.TupleID] = true
	}
	n := 0
	for _, df := range relation.DiffTables(d.dirtyFinal, final, 1e-9) {
		if !complaintIDs[df.ID] {
			n++
		}
	}
	return n
}

// maybeRefine runs the §5.1 step-2 refinement: if the step-1 repair
// touches non-complaint tuples, re-solve with those tuples soft and an
// objective that minimizes how many stay affected. The step iterates (up
// to a small bound) because excluding one batch of non-complaint tuples
// can move the repaired clause onto previously untouched tuples the
// earlier soft set did not cover; the soft set accumulates across rounds.
func (d *diagnoser) maybeRefine(repaired []query.Query, paramSet map[int]bool, st *Stats, sp *obs.Span) []query.Query {
	if !d.opt.TupleSlicing || d.opt.SkipRefine {
		return repaired
	}
	complaintIDs := make(map[int64]bool, len(d.complaints))
	for _, c := range d.complaints {
		complaintIDs[c.TupleID] = true
	}
	// The paper's refinement MILP is "significantly smaller" than step 1
	// (§5.1); if the step-1 repair disturbed a huge set of tuples, a full
	// re-encode would dwarf it. Cap how many NEW soft tuples each round
	// may add (a global cap would starve later rounds and fake
	// convergence); the incremental loop's damage gate re-checks the
	// final replay regardless.
	const maxSoftPerRound = 60
	const maxRounds = 3

	softSet := make(map[int64]bool)
	var soft []int64
	for round := 0; round < maxRounds; round++ {
		repairedFinal, err := query.Replay(repaired, d.d0)
		if err != nil {
			return repaired
		}
		fresh := 0
		for _, df := range relation.DiffTables(d.dirtyFinal, repairedFinal, 1e-9) {
			if complaintIDs[df.ID] || softSet[df.ID] {
				continue
			}
			if fresh >= maxSoftPerRound {
				break
			}
			softSet[df.ID] = true
			soft = append(soft, df.ID)
			fresh++
		}
		if fresh == 0 {
			return repaired // converged: no newly affected tuples
		}
		st.Refined = true
		// Re-encode over the *repaired* log so distance is measured from
		// the current solution, parameterizing only the repaired queries.
		rsp := sp.Start("refine")
		rsp.SetAttr("soft", len(soft))
		refined, ok, err := d.attempt(repaired, paramSet, soft, st, rsp)
		rsp.End()
		if err != nil || !ok {
			return repaired
		}
		repaired = refined
	}
	return repaired
}

// finish verifies and packages the repair.
func (d *diagnoser) finish(repaired []query.Query) *Repair {
	if repaired == nil {
		return &Repair{Log: query.CloneLog(d.log), Resolved: false, Stats: d.stats}
	}
	rep := &Repair{Log: repaired, Stats: d.stats}
	rep.Distance = query.Distance(d.log, repaired)
	origParams := make([][]float64, len(d.log))
	for i, q := range d.log {
		origParams[i] = q.Params()
	}
	for i, q := range repaired {
		rp := q.Params()
		for j := range rp {
			if math.Abs(rp[j]-origParams[i][j]) > 1e-9 {
				rep.Changed = append(rep.Changed, i)
				break
			}
		}
	}
	rep.Resolved = d.verify(repaired)
	return rep
}

// verify replays the repaired log and checks every complaint against the
// resulting final state.
func (d *diagnoser) verify(repaired []query.Query) bool {
	final, err := query.Replay(repaired, d.d0)
	if err != nil {
		return false
	}
	return ComplaintsResolved(final, d.complaints, 1e-6)
}

// ComplaintsResolved checks a final state against a complaint set.
func ComplaintsResolved(final *relation.Table, complaints []Complaint, eps float64) bool {
	for _, c := range complaints {
		t, ok := final.Get(c.TupleID)
		if c.Exists != ok {
			return false
		}
		if !c.Exists {
			continue
		}
		for a, want := range c.Values {
			if math.Abs(t.Values[a]-want) > eps {
				return false
			}
		}
	}
	return true
}

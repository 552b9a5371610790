package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// cliOptions are the qfix CLI's default diagnosis options.
func cliOptions() core.Options {
	return core.Options{
		Algorithm:      core.Incremental,
		K:              1,
		Parallel:       1,
		TupleSlicing:   true,
		QuerySlicing:   true,
		SolverParallel: 1,
		TimeLimit:      60 * time.Second,
	}
}

// instance is one diagnosis problem as a user hands it to the engine:
// the initial state, the dirty log as SQL text, and the complaints,
// plus the generator's truth for scoring.
type instance struct {
	name       string
	sch        *relation.Schema
	d0         *relation.Table
	log        []query.Query // the dirty log, parsed (probes and checks)
	text       string        // the dirty log as SQL text
	complaints []core.Complaint
	dirtyFinal *relation.Table
	truthFinal *relation.Table
}

func newInstance(name string, sch *relation.Schema, d0 *relation.Table, dirty []query.Query,
	truthFinal *relation.Table) (*instance, error) {
	dirtyFinal, err := query.Replay(dirty, d0)
	if err != nil {
		return nil, fmt.Errorf("%s: replay: %w", name, err)
	}
	return &instance{name: name, sch: sch, d0: d0, log: dirty, text: renderSQL(sch, dirty),
		complaints: core.ComplaintsFromDiff(dirtyFinal, truthFinal, 1e-9),
		dirtyFinal: dirtyFinal, truthFinal: truthFinal}, nil
}

func fromGenerated(name string, in *workload.Instance) *instance {
	return &instance{name: name, sch: in.W.Schema, d0: in.W.D0, log: in.Dirty,
		text: renderSQL(in.W.Schema, in.Dirty), complaints: in.Complaints,
		dirtyFinal: in.DirtyFinal, truthFinal: in.TruthFinal}
}

func renderSQL(sch *relation.Schema, log []query.Query) string {
	var b bytes.Buffer
	for _, q := range log {
		b.WriteString(q.String(sch))
		b.WriteString(";\n")
	}
	return b.String()
}

// checkParsed is the benchmark's own verdict on a repaired log, given
// as parsed from its SQL: the log's structure kept, every complaint
// resolved on replay from D0, and the F1 score against the generator's
// truth.
func (in *instance) checkParsed(parsed []query.Query) (f1 float64, err error) {
	if len(parsed) != len(in.log) {
		return 0, fmt.Errorf("repair has %d statements, the log %d", len(parsed), len(in.log))
	}
	for i := range parsed {
		if !query.SameStructure(parsed[i], in.log[i]) {
			return 0, fmt.Errorf("repair changed the structure of statement %d", i)
		}
	}
	final, err := query.Replay(parsed, in.d0)
	if err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	if !core.ComplaintsResolved(final, in.complaints, 1e-6) {
		return 0, fmt.Errorf("replayed repair leaves complaints unresolved")
	}
	return workload.Score(in.dirtyFinal, in.truthFinal, final).F1, nil
}

// batchEnv is a set-up batch workload.
type batchEnv struct {
	pool   []*instance
	opts   core.Options
	coord  *dist.Coordinator // fleet: the coordinator over the workers
	addrs  []string          // fleet: worker addresses
	sizes  string
	stop   []func()
	subsMu sync.Mutex
	subs   []core.Subproblem // fleet, traced: partition subproblems seen

	repairs   []repairRecord // distinct repaired logs, for the checks
	repairIdx map[repairKey]int
}

func (e *batchEnv) close() {
	for i := len(e.stop) - 1; i >= 0; i-- {
		e.stop[i]()
	}
	e.stop = nil
}

// oldestRange is a fixed stream: the first poolSize generator seeds
// whose corruption of the oldest query changes the final state. Solver
// work on these instances spans three orders of magnitude from one
// generator seed to the next, so a seed-drawn stream would make the
// workload seed, not the code, decide the figures; --seed permutes the
// visiting order instead.
func buildOldestRange(cfg *config) (*batchEnv, error) {
	poolSize := 24
	if cfg.toy {
		poolSize = 3
	}
	const nd, na, nq, rng = 20, 10, 20, 20.0
	env := &batchEnv{opts: cliOptions(),
		sizes: fmt.Sprintf("fixed stream of %d generator instances (seeds from 1): ND=%d Na=%d Nq=%d Vd=200 range WHERE r=%g, oldest query corrupted; CLI-default options", poolSize, nd, na, nq, rng)}
	for s := int64(1); len(env.pool) < poolSize; s++ {
		w, err := workload.Generate(workload.Config{ND: nd, Na: na, Nq: nq, Vd: 200,
			Where: workload.RangeWhere, Range: rng, Seed: s})
		if err != nil {
			return nil, err
		}
		in, err := w.MakeInstance(0)
		if err != nil {
			return nil, err
		}
		if len(in.Complaints) > 0 {
			env.pool = append(env.pool, fromGenerated(fmt.Sprintf("gen-seed-%d", s), in))
		}
	}
	// Warm-up: diagnose the stream's first instance once.
	if err := env.warmUp(env.pool[0]); err != nil {
		return nil, err
	}
	return env, nil
}

// longLog is a fixed stream over three long point-update histories
// (generator seeds 1..3): one instance per corruption age 0..29 among
// the newest statements, age a corrupting history a mod 3. The seed
// permutes the visiting order only: with one history drawn from the
// seed, how costly a diagnosis was moved by 20% from one seed to the
// next.
func buildLongLog(cfg *config) (*batchEnv, error) {
	nd, nq, histories, instances := 1000, 1000, 3, 30
	if cfg.toy {
		nd, nq, histories, instances = 300, 60, 1, 1
	}
	env := &batchEnv{opts: cliOptions(),
		sizes: fmt.Sprintf("fixed stream over %d histories (generator seeds from 1) of ND=%d Na=10 Nq=%d point WHERE, %d instances corrupted at ages 0..%d (statements from the newest); CLI-default options", histories, nd, nq, instances, instances-1)}
	ws := make([]*workload.Workload, histories)
	truths := make([]*relation.Table, histories)
	for h := range ws {
		w, err := workload.Generate(workload.Config{ND: nd, Na: 10, Nq: nq, Where: workload.PointWhere, Seed: int64(h + 1)})
		if err != nil {
			return nil, err
		}
		if truths[h], err = query.Replay(w.Log, w.D0); err != nil {
			return nil, err
		}
		ws[h] = w
	}
	for age := 0; age < instances; age++ {
		h := age % histories
		w := ws[h]
		// A corruption that happens to leave the final state unchanged
		// gives nothing to diagnose; the next older statement is used.
		for a := age; a < nq; a++ {
			dirty, err := w.Corrupt(nq - 1 - a)
			if err != nil {
				return nil, err
			}
			in, err := newInstance(fmt.Sprintf("history-%d-age-%d", h+1, a), w.Schema, w.D0, dirty, truths[h])
			if err != nil {
				return nil, err
			}
			if len(in.complaints) > 0 {
				env.pool = append(env.pool, in)
				break
			}
		}
	}
	return env, nil
}

// fleet diagnoses many-cluster instances with partitioned Basic, every
// partition dispatched over mux connections to two loopback workers.
// One partition is in flight at a time: with two, both CPUs of the
// development host were busy and the run-to-run spread exceeded the
// benchmark's bounds. Like oldest-range it is a fixed stream, the
// instances of generator seeds 1..poolSize, which --seed visits in its
// own order: with 32 seed-drawn instances the median latency still moved
// by 25% from one seed to the next.
func buildFleet(cfg *config) (*batchEnv, error) {
	clusters, rowsPer, queriesPer, poolSize := 8, 4, 2, 32
	if cfg.toy {
		clusters, poolSize = 4, 2
	}
	opts := cliOptions()
	opts.Algorithm = core.Basic
	opts.Partition = 1
	env := &batchEnv{opts: opts,
		sizes: fmt.Sprintf("fixed stream of %d instances (generator seeds from 1) of %d clusters x %d rows x %d queries, one corruption per cluster; Basic, Partition=1, mux coordinator over 2 loopback workers", poolSize, clusters, rowsPer, queriesPer)}
	for i := 0; i < poolSize; i++ {
		w, idx, err := bench.PartitionClusters(clusters, rowsPer, queriesPer, int64(i+1))
		if err != nil {
			return nil, err
		}
		in, err := w.MakeInstance(idx...)
		if err != nil {
			return nil, err
		}
		env.pool = append(env.pool, fromGenerated(fmt.Sprintf("clusters-%d", i), in))
	}
	addrs, stop, err := startWorkers(2)
	if err != nil {
		return nil, err
	}
	env.stop = append(env.stop, stop)
	env.addrs = addrs
	env.coord = dist.Connect(dist.Config{Mux: true}, addrs...)
	env.stop = append(env.stop, func() { env.coord.Close() })

	// Warm-up: one diagnosis, which also opens both mux connections, of
	// an instance that does not depend on the seed, so setup_s measures
	// the same work on every seed.
	w, idx, err := bench.PartitionClusters(clusters, rowsPer, queriesPer, 0)
	if err != nil {
		env.close()
		return nil, err
	}
	warm, err := w.MakeInstance(idx...)
	if err != nil {
		env.close()
		return nil, err
	}
	if err := env.warmUp(fromGenerated("warm-up", warm)); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// warmUp runs one untimed diagnosis as part of set-up.
func (e *batchEnv) warmUp(in *instance) error {
	opt := e.opts
	if e.coord != nil {
		opt.PartitionSolver = e.coord.Solver()
	}
	if _, err := core.Diagnose(in.d0, in.log, in.complaints, opt); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// startWorkers serves n dist workers on loopback ports; stop closes
// them and waits for their accept loops to return.
func startWorkers(n int) (addrs []string, stop func(), err error) {
	var servers []*dist.Server
	var wg sync.WaitGroup
	stop = func() {
		for _, s := range servers {
			s.Close()
		}
		wg.Wait()
	}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		srv := &dist.Server{}
		servers = append(servers, srv)
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Serve(l) // returns once Close stops the listener
		}()
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, stop, nil
}

// capturing records the partition subproblems a traced diagnosis
// dispatches, so the wire codec can be timed on them afterwards.
type capturing struct {
	inner core.PartitionSolver
	env   *batchEnv
}

func (c *capturing) SolvePartition(sub core.Subproblem) (*core.Repair, error) {
	c.env.subsMu.Lock()
	if len(c.env.subs) < 64 {
		c.env.subs = append(c.env.subs, sub)
	}
	c.env.subsMu.Unlock()
	return c.inner.SolvePartition(sub)
}

// diag is one timed diagnosis. It keeps the repair's Stats and a
// reference to its repaired log among the distinct logs seen, so memory
// does not grow with the number of diagnoses a run fits.
type diag struct {
	inst     int
	pass     int
	traced   bool
	total    time.Duration // ParseLog + Diagnose
	parse    time.Duration
	wall     time.Duration // the Diagnose call
	err      error
	stats    core.Stats
	resolved bool
	changed  []int
	repair   int // index into batchEnv.repairs
}

// repairRecord is one distinct repaired log of one instance.
type repairRecord struct {
	inst int
	log  []query.Query
}

// remember returns the index of the repaired log among the distinct
// ones seen for the instance, adding it if new.
func (e *batchEnv) remember(inst int, log []query.Query) int {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range query.LogParams(log) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
		h.Write(b[:])
	}
	key := repairKey{inst, h.Sum64()}
	if i, ok := e.repairIdx[key]; ok {
		return i
	}
	if e.repairIdx == nil {
		e.repairIdx = map[repairKey]int{}
	}
	e.repairIdx[key] = len(e.repairs)
	e.repairs = append(e.repairs, repairRecord{inst: inst, log: log})
	return len(e.repairs) - 1
}

type repairKey struct {
	inst   int
	digest uint64
}

// diagnose runs one diagnosis from SQL text, the way a user calls the
// engine: ParseLog, then Diagnose.
func (e *batchEnv) diagnose(root *obs.Span, k, pass int, traced bool) diag {
	in := e.pool[k]
	opt := e.opts
	var sp *obs.Span
	if traced {
		sp = root.Start("diagnose")
		sp.SetAttr("instance", in.name)
		defer sp.End()
	}
	if e.coord != nil {
		var ps core.PartitionSolver = e.coord.Solver()
		if traced {
			ps = &capturing{inner: ps, env: e}
		}
		opt.PartitionSolver = ps
	}
	d := diag{inst: k, pass: pass, traced: traced}
	t0 := time.Now()
	psp := sp.Start("sqlparse.ParseLog")
	log, err := sqlparse.ParseLog(in.sch, in.text)
	psp.End()
	t1 := time.Now()
	d.parse = t1.Sub(t0)
	if err != nil {
		d.err = err
		return d
	}
	dsp := sp.Start("core.Diagnose")
	opt.Trace = dsp
	rep, err := core.Diagnose(in.d0, log, in.complaints, opt)
	t2 := time.Now()
	if d.err = err; err == nil {
		d.stats, d.resolved, d.changed = rep.Stats, rep.Resolved, rep.Changed
		d.repair = e.remember(k, rep.Log)
	}
	dsp.End()
	d.wall = t2.Sub(t1)
	d.total = t2.Sub(t0)
	return d
}

var batchSetups = map[string]func(*config) (*batchEnv, error){
	"oldest-range": buildOldestRange,
	"long-log":     buildLongLog,
	"fleet":        buildFleet,
}

func runBatch(cfg *config) (*outcome, error) {
	build := batchSetups[cfg.workload]
	var env *batchEnv
	var setups []float64
	for r := 0; r < cfg.setupReps(); r++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		e, err := build(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	defer env.close()
	fallbacks0 := 0
	if env.coord != nil {
		fallbacks0 = env.coord.LocalFallbacks()
	}

	// The timed window: one caller, one diagnosis at a time, cycling
	// through the stream in a seed-permuted order. Only whole passes are
	// run, so every instance weighs the same in every figure; the window
	// closes at the pass boundary nearest the requested duration. A
	// traced run makes at least two passes, alternating untraced and
	// traced ones so the overhead compares like with like.
	k := len(env.pool)
	order := rand.New(rand.NewSource(cfg.seed)).Perm(k)
	minPasses := 1
	if cfg.trace {
		minPasses = 2
	}
	// Before each diagnosis, untimed by it, one slice of the reference
	// kernel samples the host's speed (refkernel.go).
	ref := newRefKernel()
	for r := 0; r < 5; r++ {
		ref.run()
	}
	var diags []diag
	var refs []float64
	start := time.Now()
	for pass := 0; ; pass++ {
		traced := cfg.trace && pass%2 == 1
		for _, i := range order {
			// Every diagnosis starts from a collected heap, as a fresh
			// CLI process would, so the garbage one instance leaves does
			// not bill the next; the collection is outside the timing.
			runtime.GC()
			refs = append(refs, ms(ref.run()))
			diags = append(diags, env.diagnose(cfg.root, i, pass, traced))
		}
		el := time.Since(start)
		if pass+1 >= minPasses && el+el/time.Duration(2*(pass+1)) >= cfg.duration() {
			break
		}
	}
	elapsed := time.Since(start)
	fallbacks := 0
	if env.coord != nil {
		fallbacks = env.coord.LocalFallbacks() - fallbacks0
	}

	out := &outcome{sizes: env.sizes}
	f1s := checkBatch(cfg, env, diags, out)

	// End-to-end timings are scaled to the reference speed; the wall
	// figures they come from go to the report.
	scale := ms(refNominal) / median(refs)
	wall := latencies(diags, k, 1)
	lat := latencies(diags, k, scale)
	refNote := fmt.Sprintf("scaled x%.3f to the reference speed", scale)
	out.e2e = []metric{
		{Name: "setup_s", Value: median(setups) * scale, Unit: "s", Samples: len(setups), Spread: spread(setups),
			Note: refNote},
		{Name: "diagnose_p50_ms", Value: lat.p50, Unit: "ms", Samples: lat.n, Spread: lat.spread,
			Note: fmt.Sprintf("median over %d instances of each one's median; %s", lat.instances, refNote)},
		{Name: "diagnose_tail_ms", Value: lat.tail, Unit: "ms", Samples: lat.n, Spread: -1,
			Note: fmt.Sprintf("p%g, %d samples beyond; %s", lat.level, beyond(lat.n, lat.level), refNote)},
		{Name: "diagnoses_per_s", Value: lat.perS, Unit: "1/s", Samples: lat.n, Spread: passSpread(diags, k),
			Note: fmt.Sprintf("one pass at median latencies; %d diagnoses in %.1fs; %s", len(diags), elapsed.Seconds(), refNote)},
		{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB", Spread: -1},
	}
	out.extra = append(out.extra,
		metric{Name: "ref_kernel_ms", Value: median(refs), Unit: "ms", Samples: len(refs), Spread: spread(refs),
			Note: fmt.Sprintf("median reference-kernel slice; nominal %.0f ms", ms(refNominal))},
		metric{Name: "wall.setup_s", Value: median(setups), Unit: "s", Samples: len(setups), Spread: spread(setups)},
		metric{Name: "wall.diagnose_p50_ms", Value: wall.p50, Unit: "ms", Samples: wall.n, Spread: wall.spread},
		metric{Name: "wall.diagnose_tail_ms", Value: wall.tail, Unit: "ms", Samples: wall.n, Spread: -1},
		metric{Name: "wall.diagnoses_per_s", Value: wall.perS, Unit: "1/s", Samples: wall.n, Spread: -1},
	)
	out.extra = append(out.extra,
		metric{Name: "failed_frac", Value: float64(out.failed) / float64(max(out.attempted, 1)), Unit: "ratio",
			Samples: out.attempted, Spread: -1},
		metric{Name: "repair_f1", Value: mean(f1s), Unit: "ratio", Samples: len(f1s), Spread: -1},
	)
	out.counters = batchCounters(diags)

	if cfg.trace {
		var err error
		if out.layer, err = batchLayers(cfg, env, diags, fallbacks, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// latencyFigures are a batch run's latency figures, every diagnosis
// time multiplied by one scale factor.
type latencyFigures struct {
	p50, tail, level, perS float64
	n, instances           int
	spread                 float64 // within-run spread of the latencies
}

// latencies weighs every instance of the stream the same: the median
// and the throughput come from each instance's median over the passes,
// which also keeps one disturbed pass from moving them.
func latencies(diags []diag, k int, scale float64) latencyFigures {
	var lat []float64
	perInst := make([][]float64, k)
	for _, d := range diags {
		if d.err == nil && d.resolved {
			v := ms(d.total) * scale
			lat = append(lat, v)
			perInst[d.inst] = append(perInst[d.inst], v)
		}
	}
	var instMed []float64
	passMS := 0.0
	for _, l := range perInst {
		if len(l) > 0 {
			instMed = append(instMed, median(l))
			passMS += median(l)
		}
	}
	f := latencyFigures{p50: median(instMed), n: len(lat), instances: len(instMed), spread: spread(lat)}
	f.tail, f.level = tail(lat)
	if passMS > 0 {
		f.perS = float64(len(instMed)) / (passMS / 1000)
	}
	return f
}

// beyond is how many of n samples lie above the level-percentile.
func beyond(n int, level float64) int {
	return int(float64(n) * (1 - level/100))
}

// passSpread is the spread of per-pass throughput over the complete
// passes of the stream.
func passSpread(diags []diag, k int) float64 {
	byPass := map[int]time.Duration{}
	count := map[int]int{}
	for _, d := range diags {
		byPass[d.pass] += d.total
		count[d.pass]++
	}
	var rates []float64
	for p, n := range count {
		if n == k && byPass[p] > 0 {
			rates = append(rates, float64(n)/byPass[p].Seconds())
		}
	}
	return spread(rates)
}

// checkBatch applies the independent checks outside the timed window,
// once per distinct repaired log; diagnoses that returned the same log
// share its verdict.
func checkBatch(cfg *config, env *batchEnv, diags []diag, out *outcome) []float64 {
	sp := cfg.root.Start("check")
	defer sp.End()
	type verdict struct {
		f1  float64
		err error
	}
	verdicts := make([]*verdict, len(env.repairs))
	var f1s []float64
	for _, d := range diags {
		out.attempted++
		in := env.pool[d.inst]
		switch {
		case d.err != nil:
			out.fail("%s: %v", in.name, d.err)
			continue
		case !d.resolved:
			out.fail("%s: repair not resolved (status %s)", in.name, d.stats.LastStatus)
			continue
		case d.stats.LastStatus != "optimal":
			out.fail("%s: solver stopped with status %s", in.name, d.stats.LastStatus)
			continue
		}
		v := verdicts[d.repair]
		if v == nil {
			v = &verdict{}
			parsed, err := sqlparse.ParseLog(in.sch, renderSQL(in.sch, env.repairs[d.repair].log))
			if err != nil {
				v.err = fmt.Errorf("re-parse: %w", err)
			} else {
				v.f1, v.err = in.checkParsed(parsed)
			}
			verdicts[d.repair] = v
		}
		if v.err != nil {
			out.incorrect++
			out.fail("%s: independent check: %v", in.name, v.err)
			continue
		}
		f1s = append(f1s, v.f1)
	}
	return f1s
}

// batchCounters totals the solver's deterministic work counters over
// the first pass, which covers every instance of the stream once.
func batchCounters(diags []diag) []counter {
	var st core.Stats
	var n int64
	for _, d := range diags {
		if d.pass != 0 || d.err != nil {
			continue
		}
		s := d.stats
		n++
		st.Rows += s.Rows
		st.Binaries += s.Binaries
		st.BatchesTried += s.BatchesTried
		st.Nodes += s.Nodes
		st.LPIters += s.LPIters
		st.Refactorizations += s.Refactorizations
		st.PresolvedRows += s.PresolvedRows
	}
	return []counter{
		{"diagnoses", n},
		{"rows", int64(st.Rows)},
		{"binaries", int64(st.Binaries)},
		{"batches", int64(st.BatchesTried)},
		{"nodes", int64(st.Nodes)},
		{"lp_iters", int64(st.LPIters)},
		{"refactors", int64(st.Refactorizations)},
		{"presolved_rows", int64(st.PresolvedRows)},
	}
}

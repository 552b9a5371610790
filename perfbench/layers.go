package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/encode"
	"repro/internal/histstore"
	"repro/internal/obs"
	"repro/internal/qfixd"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlparse"
)

// sample is one diagnosis's Stats, with the engine wall time and parse
// time where the caller knows them.
type sample struct {
	st    core.Stats
	wall  time.Duration
	parse time.Duration
}

// layerFigures collects what a traced run measured per layer; every
// workload fills the same fields, so every traced run reports the same
// metric names.
type layerFigures struct {
	parseMS, replayMS, impactMS, extendUS float64
	samples                               []sample // Stats of the workload's own diagnoses
	walled                                []sample // diagnoses with a known engine wall time
	decisiveEncodeMS                      float64
	jobEncodeUS, jobDecodeUS, jobBytes    float64
	fallbacksPerDiag                      float64
	appendUS, histDiagnoseMS              float64
	serviceMS, wireMS                     float64
	busy                                  float64
	overheadPct                           float64
}

// layerMetrics turns the figures into the per-layer metrics named in
// BENCHMARK.json, plus workload-specific figures for the report.
func layerMetrics(f layerFigures) (layer, extra []metric) {
	n := float64(len(f.samples))
	per := func(get func(core.Stats) float64) float64 {
		if n == 0 {
			return 0
		}
		sum := 0.0
		for _, s := range f.samples {
			sum += get(s.st)
		}
		return sum / n
	}
	dur := func(get func(core.Stats) time.Duration) float64 {
		return per(func(s core.Stats) float64 { return ms(get(s)) })
	}
	count := func(get func(core.Stats) int) float64 {
		return per(func(s core.Stats) float64 { return float64(get(s)) })
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var other []float64
	for _, s := range f.walled {
		st := s.st
		other = append(other, ms(s.wall-st.PlanTime-st.EncodeTime-st.SolveTime-st.MergeTime))
	}
	batches := count(func(s core.Stats) int { return s.BatchesTried })
	nodes := count(func(s core.Stats) int { return s.Nodes })
	lpIters := count(func(s core.Stats) int { return s.LPIters })
	refactors := count(func(s core.Stats) int { return s.Refactorizations })
	solveMS := dur(func(s core.Stats) time.Duration { return s.SolveTime })
	partitions := count(func(s core.Stats) int { return s.Partitions })
	var queueWait, partSolve []float64
	for _, s := range f.samples {
		var qw time.Duration
		for _, p := range s.st.PartitionStats {
			qw += p.QueueWait
			partSolve = append(partSolve, ms(p.Solve))
		}
		queueWait = append(queueWait, ms(qw))
	}
	m := func(name string, v float64, unit string) metric {
		return metric{Name: name, Value: v, Unit: unit, Samples: len(f.samples), Spread: -1}
	}
	layer = []metric{
		m("sqlparse.parse_ms", f.parseMS, "ms"),
		m("query.replay_ms", f.replayMS, "ms"),
		m("core.impact_ms", f.impactMS, "ms"),
		m("core.impact_extend_us", f.extendUS, "us"),
		m("core.plan_ms", dur(func(s core.Stats) time.Duration { return s.PlanTime }), "ms"),
		{Name: "core.other_ms", Value: mean(other), Unit: "ms", Samples: len(other), Spread: -1},
		m("core.batches", batches, "count"),
		m("core.batch_yield", ratio(1, batches), "ratio"),
		m("core.candidates", count(func(s core.Stats) int { return s.RelevantQueries }), "count"),
		m("core.impact_cache_hit_ratio", count(func(s core.Stats) int { return s.ImpactCacheHits }), "ratio"),
		m("core.partitions", partitions, "count"),
		m("encode.encode_ms", dur(func(s core.Stats) time.Duration { return s.EncodeTime }), "ms"),
		m("encode.decisive_batch_ms", f.decisiveEncodeMS, "ms"),
		m("encode.rows", count(func(s core.Stats) int { return s.Rows }), "count"),
		m("encode.binaries", count(func(s core.Stats) int { return s.Binaries }), "count"),
		m("milp.solve_ms", solveMS, "ms"),
		m("milp.nodes", nodes, "count"),
		m("milp.lp_iters", lpIters, "count"),
		m("milp.presolved_rows", count(func(s core.Stats) int { return s.PresolvedRows }), "count"),
		m("simplex.refactors", refactors, "count"),
		m("simplex.refactors_per_node", ratio(refactors, nodes), "ratio"),
		m("simplex.us_per_lp_iter", ratio(solveMS*1000, lpIters), "us"),
		m("dist.job_encode_us", f.jobEncodeUS, "us"),
		m("dist.job_decode_us", f.jobDecodeUS, "us"),
		m("dist.job_bytes", f.jobBytes, "bytes"),
		m("dist.remote_ratio", ratio(count(func(s core.Stats) int { return s.RemoteJobs }), partitions), "ratio"),
		m("dist.local_fallbacks", f.fallbacksPerDiag, "count"),
		m("dist.worker_cache_hits", count(func(s core.Stats) int { return s.WorkerCacheHits }), "count"),
		m("histstore.append_us", f.appendUS, "us"),
		m("histstore.diagnose_ms", f.histDiagnoseMS, "ms"),
		m("qfixd.service_diagnose_ms", f.serviceMS, "ms"),
		m("qfixd.wire_ms", f.wireMS, "ms"),
		m("qfixd.busy", f.busy, "count"),
		m("bench.trace_overhead_pct", f.overheadPct, "%"),
	}
	extra = []metric{
		m("core.merge_ms", dur(func(s core.Stats) time.Duration { return s.MergeTime }), "ms"),
		{Name: "sched.queue_wait_ms", Value: mean(queueWait), Unit: "ms", Samples: len(queueWait), Spread: -1},
		{Name: "dist.partition_solve_ms", Value: mean(partSolve), Unit: "ms", Samples: len(partSolve), Spread: -1},
	}
	return layer, extra
}

// timed runs f under a bench-side span and returns its duration.
func timed(root *obs.Span, name string, f func() error) (time.Duration, error) {
	sp := root.Start(name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	sp.End()
	return d, err
}

// probeLog times ParseLog, Replay from D0 to Dn, the FullImpact closure
// and a one-statement ExtendFullImpact on one history.
func probeLog(root *obs.Span, sch *relation.Schema, d0 *relation.Table, log []query.Query) (parseMS, replayMS, impactMS, extendUS float64, err error) {
	text := renderSQL(sch, log)
	d, err := timed(root, "sqlparse.ParseLog", func() error {
		_, err := sqlparse.ParseLog(sch, text)
		return err
	})
	if err != nil {
		return
	}
	parseMS = ms(d)
	d, err = timed(root, "query.Replay", func() error {
		_, err := query.Replay(log, d0)
		return err
	})
	if err != nil {
		return
	}
	replayMS = ms(d)
	width := sch.Width()
	d, _ = timed(root, "core.FullImpact", func() error {
		core.FullImpact(log, width)
		return nil
	})
	impactMS = ms(d)
	if len(log) > 1 {
		prev := core.FullImpact(log[:len(log)-1], width)
		d, _ = timed(root, "core.ExtendFullImpact", func() error {
			core.ExtendFullImpact(prev, log, width)
			return nil
		})
		extendUS = us(d)
	}
	return
}

// probeDecisiveEncode times encode.Encode on the batch a repair
// changed: its changed statements parameterized, complaint tuples only.
func probeDecisiveEncode(root *obs.Span, d0 *relation.Table, log []query.Query, complaints []core.Complaint, changed []int) (float64, error) {
	params := make(map[int]bool, len(changed))
	for _, i := range changed {
		params[i] = true
	}
	ecs := make([]encode.Complaint, len(complaints))
	ids := make([]int64, len(complaints))
	for i, c := range complaints {
		ecs[i] = encode.Complaint{TupleID: c.TupleID, Exists: c.Exists, Values: c.Values}
		ids[i] = c.TupleID
	}
	d, err := timed(root, "encode.Encode", func() error {
		_, err := encode.Encode(d0, log, ecs, encode.Options{ParamQueries: params, TupleIDs: ids})
		return err
	})
	return ms(d), err
}

// probeCodec times the dist job codec (EncodeJob + JSON marshal, JSON
// unmarshal + DecodeJob) on each subproblem, median of three each, and
// returns the means over subproblems and the mean marshalled size.
func probeCodec(root *obs.Span, subs []core.Subproblem) (encUS, decUS, bytes float64, err error) {
	var encs, decs, sizes []float64
	for i, sub := range subs {
		var raw []byte
		var e, dcd []float64
		for r := 0; r < 3; r++ {
			d, err := timed(root, "dist.EncodeJob", func() error {
				job, err := dist.EncodeJob(uint64(i+1), sub)
				if err != nil {
					return err
				}
				raw, err = json.Marshal(job)
				return err
			})
			if err != nil {
				return 0, 0, 0, err
			}
			e = append(e, us(d))
			d, err = timed(root, "dist.DecodeJob", func() error {
				var job dist.Job
				if err := json.Unmarshal(raw, &job); err != nil {
					return err
				}
				_, err := dist.DecodeJob(&job)
				return err
			})
			if err != nil {
				return 0, 0, 0, err
			}
			dcd = append(dcd, us(d))
		}
		encs = append(encs, median(e))
		decs = append(decs, median(dcd))
		sizes = append(sizes, float64(len(raw)))
	}
	return mean(encs), mean(decs), mean(sizes), nil
}

// probeHiststore loads a history into a scratch store, timing each
// durable Append (fsync included), then times Store.Diagnose.
func probeHiststore(root *obs.Span, dir string, d0 *relation.Table, log []query.Query,
	complaints []core.Complaint, opts core.Options) (appendUS, diagnoseMS float64, rep *core.Repair, err error) {
	st, err := histstore.Create(dir, d0)
	if err != nil {
		return 0, 0, nil, err
	}
	defer st.Close()
	var apps []float64
	for _, q := range log {
		d, err := timed(root, "histstore.Append", func() error { return st.Append(q) })
		if err != nil {
			return 0, 0, nil, err
		}
		apps = append(apps, us(d))
	}
	d, err := timed(root, "histstore.Diagnose", func() error {
		var err error
		rep, err = st.Diagnose(complaints, opts)
		return err
	})
	return median(apps), ms(d), rep, err
}

// daemon is an in-process qfixd server on a loopback port.
type daemon struct {
	svc  *qfixd.Service
	addr string
	srv  *qfixd.Server
	wg   sync.WaitGroup
}

func startDaemon(cfg qfixd.Config) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{svc: qfixd.NewService(cfg), addr: l.Addr().String()}
	d.srv = qfixd.NewServer(d.svc)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.srv.Serve(l) // returns once Shutdown closes the listener
	}()
	return d, nil
}

// stop drains the server, closes the service and waits for the accept
// loop to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx) // a timeout cuts the remaining connections, which is what stop wants
	d.svc.Close()
	d.wg.Wait()
}

// tenantSpec is what the create op needs to rebuild a table.
func tenantSpec(sch *relation.Schema, d0 *relation.Table) (key string, attrs []string, rows [][]float64) {
	if k := sch.Key(); k >= 0 {
		key = sch.Attr(k)
	}
	d0.Rows(func(t relation.Tuple) { rows = append(rows, append([]float64(nil), t.Values...)) })
	return key, sch.Attrs(), rows
}

// createTenant creates a tenant holding d0 and log, with the complaints
// staged.
func createTenant(cl *qfixd.Client, name string, sch *relation.Schema, d0 *relation.Table,
	log []query.Query, complaints []core.Complaint) error {
	key, attrs, rows := tenantSpec(sch, d0)
	if err := cl.Create(name, sch.Name(), key, attrs, rows); err != nil {
		return err
	}
	stmts := make([]string, len(log))
	for i, q := range log {
		stmts[i] = q.String(sch)
	}
	if err := cl.Append(name, stmts...); err != nil {
		return err
	}
	return cl.Complain(name, complaints)
}

// serviceTimes times reps in-process Service.Diagnose calls and reps
// client round trips of the same request; the wire share is the
// difference of their medians.
func serviceTimes(root *obs.Span, d *daemon, cl *qfixd.Client, tenant string,
	wopt *qfixd.DiagnoseOptions, reps int) (svcMS, wireMS float64, walled []sample, err error) {
	var svc, rtt []float64
	for r := 0; r < reps; r++ {
		var rep *core.Repair
		dd, err := timed(root, "qfixd.Service.Diagnose", func() error {
			var err error
			rep, err = d.svc.Diagnose(context.Background(), tenant, nil, wopt)
			return err
		})
		if err != nil {
			return 0, 0, nil, err
		}
		svc = append(svc, ms(dd))
		walled = append(walled, sample{st: rep.Stats, wall: dd})
		dd, err = timed(root, "qfixd.Client.Diagnose", func() error {
			_, err := cl.Diagnose(tenant, nil, wopt)
			return err
		})
		if err != nil {
			return 0, 0, nil, err
		}
		rtt = append(rtt, ms(dd))
	}
	return median(svc), median(rtt) - median(svc), walled, nil
}

// probeService serves one instance from a fresh in-process daemon and
// times the service and wire layers on it.
func probeService(cfg *config, in *instance, wopt *qfixd.DiagnoseOptions, workers []string) (svcMS, wireMS float64, err error) {
	d, err := startDaemon(qfixd.Config{Dir: filepath.Join(cfg.scratch, "qfixd-probe"),
		Workers: workers, Mux: len(workers) > 0})
	if err != nil {
		return 0, 0, err
	}
	defer d.stop()
	cl, err := qfixd.DialDaemon(d.addr)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	if err := createTenant(cl, "probe", in.sch, in.d0, in.log, in.complaints); err != nil {
		return 0, 0, err
	}
	svcMS, wireMS, _, err = serviceTimes(cfg.root, d, cl, "probe", wopt, 3)
	return svcMS, wireMS, err
}

// traceOverhead compares, instance by instance, the median traced and
// untraced latencies, and returns the median ratio as a percentage
// overhead.
func traceOverhead(diags []diag) float64 {
	untraced := map[int][]float64{}
	traced := map[int][]float64{}
	for _, d := range diags {
		if d.err != nil {
			continue
		}
		if d.traced {
			traced[d.inst] = append(traced[d.inst], ms(d.total))
		} else {
			untraced[d.inst] = append(untraced[d.inst], ms(d.total))
		}
	}
	var ratios []float64
	for k, t := range traced {
		if u := untraced[k]; len(u) > 0 && median(u) > 0 {
			ratios = append(ratios, median(t)/median(u))
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return (median(ratios) - 1) * 100
}

// batchLayers measures the per-layer figures of a traced batch run: the
// Stats of the complete traced passes, then probes of each layer on the
// stream's own instances.
func batchLayers(cfg *config, env *batchEnv, diags []diag, fallbacks int, out *outcome) ([]metric, error) {
	k := len(env.pool)
	perPass := map[int]int{}
	for _, d := range diags {
		if d.traced {
			perPass[d.pass]++
		}
	}
	var f layerFigures
	changed := map[int][]int{}
	for _, d := range diags {
		if d.err != nil {
			continue
		}
		if _, ok := changed[d.inst]; !ok {
			changed[d.inst] = d.changed
		}
		if d.traced && perPass[d.pass] == k {
			s := sample{st: d.stats, wall: d.wall, parse: d.parse}
			f.samples = append(f.samples, s)
			f.walled = append(f.walled, s)
		}
	}
	var parse []float64
	for _, s := range f.samples {
		parse = append(parse, ms(s.parse))
	}
	f.parseMS = mean(parse)
	if len(f.samples) > 0 {
		f.fallbacksPerDiag = float64(fallbacks) / float64(len(diags))
	}
	f.overheadPct = traceOverhead(diags)

	probes := cfg.root.Start("probes")
	defer probes.End()
	var replay, impact, extend, enc []float64
	for i, in := range env.pool {
		_, r, im, ex, err := probeLog(probes, in.sch, in.d0, in.log)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		replay, impact, extend = append(replay, r), append(impact, im), append(extend, ex)
		if c := changed[i]; len(c) > 0 {
			e, err := probeDecisiveEncode(probes, in.d0, in.log, in.complaints, c)
			if err != nil {
				return nil, fmt.Errorf("%s: encode: %w", in.name, err)
			}
			enc = append(enc, e)
		}
	}
	f.replayMS, f.impactMS, f.extendUS, f.decisiveEncodeMS = mean(replay), mean(impact), mean(extend), mean(enc)

	subs := env.subs
	if env.coord == nil {
		for _, in := range env.pool {
			subs = append(subs, core.Subproblem{D0: in.d0, Log: in.log, Complaints: in.complaints, Options: env.opts})
		}
	}
	var err error
	if f.jobEncodeUS, f.jobDecodeUS, f.jobBytes, err = probeCodec(probes, subs); err != nil {
		return nil, fmt.Errorf("dist codec: %w", err)
	}

	// The store and service probes diagnose again, so they run on the
	// cheapest instances of the stream only.
	cheap := cheapest(diags, k)
	opts := env.opts
	var apps, hdiag []float64
	for j, i := range cheap[:min(2, len(cheap))] {
		in := env.pool[i]
		if env.coord != nil {
			opts.PartitionSolver = env.coord.Solver()
		}
		a, dm, rep, err := probeHiststore(probes, filepath.Join(cfg.scratch, fmt.Sprintf("hist-%d", j)),
			in.d0, in.log, in.complaints, opts)
		out.attempted++
		if err != nil || !rep.Resolved {
			out.fail("%s: histstore probe: resolved=%v err=%v", in.name, rep != nil && rep.Resolved, err)
			continue
		}
		apps, hdiag = append(apps, a), append(hdiag, dm)
	}
	f.appendUS, f.histDiagnoseMS = mean(apps), mean(hdiag)

	wopt := &qfixd.DiagnoseOptions{}
	if env.opts.Algorithm == core.Basic {
		wopt.Algorithm = "basic"
		wopt.Partition = env.opts.Partition
	}
	in := env.pool[cheap[0]]
	out.attempted++
	if f.serviceMS, f.wireMS, err = probeService(cfg, in, wopt, env.addrs); err != nil {
		out.fail("%s: service probe: %v", in.name, err)
	}

	layer, extra := layerMetrics(f)
	out.extra = append(out.extra, extra...)
	return layer, nil
}

// cheapest orders instance indices by their median untraced latency.
func cheapest(diags []diag, k int) []int {
	lat := map[int][]float64{}
	for _, d := range diags {
		if !d.traced && d.err == nil {
			lat[d.inst] = append(lat[d.inst], ms(d.total))
		}
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return median(lat[idx[a]]) < median(lat[idx[b]]) })
	return idx
}

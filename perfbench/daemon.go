package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qfixd"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// Daemon workload shape. Rates are offered diagnoses per second; each
// step offers the same rate of appends beside them.
var (
	daemonRates   = []float64{4, 8, 12, 16}
	daemonTenants = 4
)

// daemonLimitMS is the latency limit on diagnose_tail_ms that a rate
// step must meet to count towards max_ok_rate.
const daemonLimitMS = 250.0

// tenantState is one tenant's generated history and what the
// benchmark needs to check answers about it.
type tenantState struct {
	name     string
	in       *instance     // the history as created: D0, dirty log, complaints
	clean    []query.Query // the generator's true log
	free     []int         // attributes no complaint involves
	targets  []float64     // keys of tuples no complaint names
	oracle   []string      // CLI-default repair of the created history
	warmResp *qfixd.Response
}

type daemonEnv struct {
	d       *daemon
	clients []*qfixd.Client
	tenants []*tenantState
}

func (e *daemonEnv) close() {
	for _, c := range e.clients {
		c.Close()
	}
	e.d.stop()
}

func buildDaemon(cfg *config, rep int) (*daemonEnv, error) {
	nd, nq := 1000, 400
	if cfg.toy {
		nd, nq = 200, 40
	}
	d, err := startDaemon(qfixd.Config{Dir: filepath.Join(cfg.scratch, fmt.Sprintf("qfixd-%d", rep))})
	if err != nil {
		return nil, err
	}
	env := &daemonEnv{d: d}
	for i := 0; i < 2; i++ {
		cl, err := qfixd.DialDaemon(d.addr)
		if err != nil {
			env.close()
			return nil, err
		}
		env.clients = append(env.clients, cl)
	}
	for t := 0; t < daemonTenants; t++ {
		w, err := workload.Generate(workload.Config{ND: nd, Na: 10, Nq: nq,
			Where: workload.PointWhere, Seed: cfg.seed*100 + int64(t)})
		if err != nil {
			env.close()
			return nil, err
		}
		truth, err := query.Replay(w.Log, w.D0)
		if err != nil {
			env.close()
			return nil, err
		}
		var in *instance
		for a := t; a < nq && in == nil; a++ { // newest statements, one age per tenant
			dirty, err := w.Corrupt(nq - 1 - a)
			if err != nil {
				env.close()
				return nil, err
			}
			if c, err := newInstance(fmt.Sprintf("tenant-%d", t), w.Schema, w.D0, dirty, truth); err != nil {
				env.close()
				return nil, err
			} else if len(c.complaints) > 0 {
				in = c
			}
		}
		ts := &tenantState{name: in.name, in: in, clean: w.Log}
		ts.free, ts.targets = appendTargets(in)
		if err := createTenant(env.clients[0], ts.name, in.sch, in.d0, in.log, in.complaints); err != nil {
			env.close()
			return nil, err
		}
		// Warm-up: the first diagnosis materializes the tenant's impact
		// closure, which later appends extend eagerly.
		if ts.warmResp, err = env.clients[0].Diagnose(ts.name, nil, nil); err != nil {
			env.close()
			return nil, fmt.Errorf("%s warm-up: %w", ts.name, err)
		}
		env.tenants = append(env.tenants, ts)
	}
	return env, nil
}

// appendTargets picks what appends may touch without moving the
// diagnosis: attributes outside every complaint's difference, and
// tuples no complaint names.
func appendTargets(in *instance) (free []int, targets []float64) {
	busy := map[int]bool{}
	named := map[int64]bool{}
	for _, c := range in.complaints {
		named[c.TupleID] = true
		t, ok := in.dirtyFinal.Get(c.TupleID)
		for a := range c.Values {
			if !ok || t.Values[a] != c.Values[a] {
				busy[a] = true
			}
		}
	}
	for a := 1; a < in.sch.Width(); a++ {
		if !busy[a] {
			free = append(free, a)
		}
	}
	for _, id := range in.d0.IDs() {
		if !named[id] {
			t, _ := in.d0.Get(id)
			targets = append(targets, t.Values[0])
		}
	}
	return free, targets
}

// op is one scheduled request.
type op struct {
	due    time.Duration
	step   int
	tenant int
	stmt   string // append: the statement; "" for a diagnose
	traced bool
}

// result is what happened to one op.
type result struct {
	late time.Duration // send time minus due time
	done time.Duration // completion, from the schedule start
	resp *qfixd.Response
	err  error
}

// schedule lays the ops of one rate step out evenly with seeded jitter,
// appends offset half an interval from diagnoses. With alternate set,
// every second diagnosis and append is traced.
func schedule(rng *rand.Rand, env *daemonEnv, step int, rate float64, from, length time.Duration, alternate bool) []op {
	n := int(rate * length.Seconds())
	if n < 1 {
		n = 1
	}
	interval := length / time.Duration(n)
	var ops []op
	for i := 0; i < n; i++ {
		for _, isAppend := range []bool{false, true} {
			off := 0.25 + rng.Float64()*0.5
			if isAppend {
				off += 0.5
			}
			o := op{due: from + time.Duration((float64(i)+off)*float64(interval)), step: step,
				tenant: rng.Intn(len(env.tenants)), traced: alternate && i%2 == 1}
			if isAppend {
				ts := env.tenants[o.tenant]
				q := query.NewUpdate(
					[]query.SetClause{{Attr: ts.free[rng.Intn(len(ts.free))], Expr: query.ConstExpr(float64(rng.Intn(201)))}},
					query.AttrPred(0, query.EQ, ts.targets[rng.Intn(len(ts.targets))]))
				o.stmt = q.String(ts.in.sch)
			}
			ops = append(ops, o)
		}
	}
	return ops
}

// runSchedule plays the ops open-loop: each diagnose is sent at its due
// time whatever is still in flight; appends go through one sequential
// writer so each tenant's log grows in schedule order.
func runSchedule(root *obs.Span, env *daemonEnv, ops []op) []result {
	res := make([]result, len(ops))
	appendCh := make(chan int, len(ops)) // sized to every append: the scheduler never blocks on it
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range appendCh {
			o := ops[i]
			var sp *obs.Span
			if o.traced {
				sp = root.Start("qfixd.Client.Append")
			}
			res[i].err = env.clients[0].Append(env.tenants[o.tenant].name, o.stmt)
			sp.End()
			res[i].done = time.Since(start)
		}
	}()
	for i, o := range ops {
		if wait := o.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		res[i].late = time.Since(start) - o.due
		if o.stmt != "" {
			appendCh <- i
			continue
		}
		wg.Add(1)
		go func(i int, o op) {
			defer wg.Done()
			var sp *obs.Span
			if o.traced {
				sp = root.Start("qfixd.Client.Diagnose")
				sp.SetAttr("tenant", env.tenants[o.tenant].name)
			}
			res[i].resp, res[i].err = env.clients[i%len(env.clients)].Diagnose(env.tenants[o.tenant].name, nil, nil)
			sp.End()
			res[i].done = time.Since(start)
		}(i, o)
	}
	close(appendCh)
	wg.Wait()
	return res
}

func runDaemon(cfg *config) (*outcome, error) {
	var env *daemonEnv
	var setups []float64
	for r := 0; r < cfg.setupReps(); r++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		e, err := buildDaemon(cfg, r)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	defer env.close()
	out := &outcome{sizes: fmt.Sprintf("%d tenants, ND=%d Na=10 Nq=%d point WHERE, one recent corruption each; "+
		"open loop, diagnose rates %v/s each with as many appends, latency limit %gms; default qfixd Config, 2 client connections",
		daemonTenants, len(env.tenants[0].in.d0.IDs()), len(env.tenants[0].in.log), rates(cfg), daemonLimitMS)}

	// The oracle and the checks of the warm-up answers run outside every
	// timed window.
	for _, ts := range env.tenants {
		rep, err := core.Diagnose(ts.in.d0, ts.in.log, ts.in.complaints, cliOptions())
		if err != nil {
			return nil, fmt.Errorf("%s oracle: %w", ts.name, err)
		}
		ts.oracle = make([]string, len(rep.Log))
		for i, q := range rep.Log {
			ts.oracle[i] = q.String(ts.in.sch)
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	var ops []op
	steps := rates(cfg)
	if cfg.trace {
		// One step at the middle rate, alternating untraced and traced
		// requests so the overhead compares requests over the same logs.
		steps = steps[len(steps)/2 : len(steps)/2+1]
		ops = schedule(rng, env, 0, steps[0], 0, cfg.duration(), true)
	} else {
		stepLen := cfg.duration() / time.Duration(len(steps))
		for s, rate := range steps {
			ops = append(ops, schedule(rng, env, s, rate, time.Duration(s)*stepLen, stepLen, false)...)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	res := runSchedule(cfg.root, env, ops)

	f1s := checkDaemon(cfg, env, ops, res, out)

	var diagLat, appLat, late []float64
	perStep := make([][]float64, len(steps))
	stepFailed := make([]bool, len(steps))
	okDiag := 0
	var last time.Duration
	for i, o := range ops {
		r := res[i]
		late = append(late, ms(r.late))
		if r.err != nil {
			stepFailed[o.step] = true
			continue
		}
		lat := ms(r.done - o.due)
		if o.stmt != "" {
			appLat = append(appLat, lat)
			continue
		}
		diagLat = append(diagLat, lat)
		perStep[o.step] = append(perStep[o.step], lat)
		if r.resp.Resolved && r.resp.Stats != nil && r.resp.Stats.LastStatus == "optimal" {
			okDiag++
		}
		if r.done > last {
			last = r.done
		}
	}
	if last <= 0 {
		last = cfg.duration()
	}
	maxOK := 0.0
	for s, lat := range perStep {
		tv, _ := tail(lat)
		if !stepFailed[s] && len(lat) > 0 && tv <= daemonLimitMS && !growing(lat) {
			maxOK = steps[s]
		}
		out.extra = append(out.extra, metric{Name: fmt.Sprintf("step%d.diagnose_tail_ms", s), Value: tv, Unit: "ms",
			Samples: len(lat), Spread: -1, Note: fmt.Sprintf("offered %g/s, growing=%v", steps[s], growing(lat))})
	}
	tv, tl := tail(diagLat)
	atv, atl := tail(appLat)
	ltv, ltl := tail(late)
	out.e2e = []metric{
		{Name: "setup_s", Value: median(setups), Unit: "s", Samples: len(setups), Spread: spread(setups)},
		{Name: "diagnose_p50_ms", Value: percentile(diagLat, 50), Unit: "ms", Samples: len(diagLat), Spread: spread(diagLat)},
		{Name: "diagnose_tail_ms", Value: tv, Unit: "ms", Samples: len(diagLat), Spread: -1,
			Note: fmt.Sprintf("p%g, %d samples beyond", tl, beyond(len(diagLat), tl))},
		{Name: "diagnoses_per_s", Value: float64(okDiag) / last.Seconds(), Unit: "1/s", Samples: okDiag, Spread: -1,
			Note: "completed diagnoses over the schedule's span, open loop"},
		{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB", Spread: -1},
	}
	out.extra = append(out.extra,
		metric{Name: "append_p50_ms", Value: percentile(appLat, 50), Unit: "ms", Samples: len(appLat), Spread: spread(appLat)},
		metric{Name: "append_tail_ms", Value: atv, Unit: "ms", Samples: len(appLat), Spread: -1,
			Note: fmt.Sprintf("p%g, %d samples beyond", atl, beyond(len(appLat), atl))},
		metric{Name: "max_ok_rate", Value: maxOK, Unit: "1/s", Spread: -1,
			Note: fmt.Sprintf("highest step with diagnose tail <= %gms and no growing backlog", daemonLimitMS)},
		metric{Name: "gen.late_tail_ms", Value: ltv, Unit: "ms", Samples: len(late), Spread: -1,
			Note: fmt.Sprintf("p%g", ltl)},
		metric{Name: "failed_frac", Value: float64(out.failed) / float64(max(out.attempted, 1)), Unit: "ratio",
			Samples: out.attempted, Spread: -1},
		metric{Name: "repair_f1", Value: mean(f1s), Unit: "ratio", Samples: len(f1s), Spread: -1},
	)
	if cfg.trace {
		var err error
		if out.layer, err = daemonLayers(cfg, env, ops, res, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func rates(cfg *config) []float64 {
	if cfg.toy {
		return []float64{8}
	}
	return daemonRates
}

// growing reports a backlog that builds up within a step: the median
// latency of its last third is more than twice that of its first third.
func growing(lat []float64) bool {
	n := len(lat) / 3
	if n == 0 {
		return false
	}
	return median(lat[len(lat)-n:]) > 2*median(lat[:n])
}

// checkDaemon checks every answer outside the timed window: each
// diagnosis's repaired SQL is re-parsed, replayed from D0 over the
// history the daemon saw, and scored; answers about a history that has
// not moved must equal the CLI-default oracle byte for byte.
func checkDaemon(cfg *config, env *daemonEnv, ops []op, res []result, out *outcome) []float64 {
	sp := cfg.root.Start("check")
	defer sp.End()
	// applied[t] lists tenant t's appended statements in log order.
	applied := make([][]query.Query, len(env.tenants))
	for i, o := range ops {
		if o.stmt == "" || res[i].err != nil {
			continue
		}
		ts := env.tenants[o.tenant]
		q, err := sqlparse.Parse(ts.in.sch, o.stmt)
		if err != nil {
			out.fail("%s: append statement does not parse: %v", ts.name, err)
			continue
		}
		applied[o.tenant] = append(applied[o.tenant], q)
	}
	type key struct{ t, n int }
	views := map[key]*instance{}
	view := func(t, n int) (*instance, error) {
		if v, ok := views[key{t, n}]; ok {
			return v, nil
		}
		ts := env.tenants[t]
		extra := n - len(ts.in.log)
		if extra < 0 || extra > len(applied[t]) {
			return nil, fmt.Errorf("daemon answered over %d statements; the log had %d..%d",
				n, len(ts.in.log), len(ts.in.log)+len(applied[t]))
		}
		if extra == 0 {
			views[key{t, n}] = ts.in
			return ts.in, nil
		}
		dirty := append(append([]query.Query(nil), ts.in.log...), applied[t][:extra]...)
		clean := append(append([]query.Query(nil), ts.clean...), applied[t][:extra]...)
		truth, err := query.Replay(clean, ts.in.d0)
		if err != nil {
			return nil, err
		}
		v, err := newInstance(ts.name, ts.in.sch, ts.in.d0, dirty, truth)
		if err != nil {
			return nil, err
		}
		v.complaints = ts.in.complaints // the staged complaints, unchanged by appends
		views[key{t, n}] = v
		return v, nil
	}
	var f1s []float64
	verify := func(t int, resp *qfixd.Response, err error) {
		out.attempted++
		ts := env.tenants[t]
		switch {
		case errors.Is(err, qfixd.ErrBusy):
			out.fail("%s: busy refusal", ts.name)
			return
		case err != nil:
			out.fail("%s: %v", ts.name, err)
			return
		case !resp.Resolved:
			out.fail("%s: repair not resolved", ts.name)
			return
		case resp.Stats == nil || resp.Stats.LastStatus != "optimal":
			out.fail("%s: solver did not stop optimal", ts.name)
			return
		}
		v, err := view(t, len(resp.Log))
		if err == nil {
			var parsed []query.Query
			if parsed, err = sqlparse.ParseLog(ts.in.sch, strings.Join(resp.Log, ";\n")); err == nil {
				var f1 float64
				if f1, err = v.checkParsed(parsed); err == nil {
					f1s = append(f1s, f1)
				}
			}
		}
		if err == nil && v == ts.in && !equalStrings(resp.Log, ts.oracle) {
			err = errors.New("answer differs from the CLI-default oracle on an unmoved log")
		}
		if err != nil {
			out.incorrect++
			out.fail("%s: independent check: %v", ts.name, err)
		}
	}
	for t, ts := range env.tenants {
		verify(t, ts.warmResp, nil)
	}
	for i, o := range ops {
		if o.stmt == "" {
			verify(o.tenant, res[i].resp, res[i].err)
			continue
		}
		out.attempted++
		if res[i].err != nil {
			out.fail("%s: append: %v", env.tenants[o.tenant].name, res[i].err)
		}
	}
	return f1s
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// daemonLayers measures the per-layer figures of a traced daemon run:
// the Stats of the traced half's response frames, then probes of each
// layer on the tenants' histories and the live service.
func daemonLayers(cfg *config, env *daemonEnv, ops []op, res []result, out *outcome) ([]metric, error) {
	var f layerFigures
	var untraced, traced []float64
	for i, o := range ops {
		r := res[i]
		if o.stmt != "" {
			continue
		}
		if errors.Is(r.err, qfixd.ErrBusy) && o.traced {
			f.busy++
		}
		if r.err != nil {
			continue
		}
		lat := ms(r.done - o.due)
		if !o.traced {
			untraced = append(untraced, lat)
			continue
		}
		traced = append(traced, lat)
		if r.resp.Stats != nil {
			f.samples = append(f.samples, sample{st: *r.resp.Stats})
		}
	}
	if m := median(untraced); m > 0 {
		f.overheadPct = (median(traced)/m - 1) * 100
	}

	probes := cfg.root.Start("probes")
	defer probes.End()
	var parse, replay, impact, extend, enc, apps, hdiag, svc, wire []float64
	var subs []core.Subproblem
	for t, ts := range env.tenants {
		in := ts.in
		p, r, im, ex, err := probeLog(probes, in.sch, in.d0, in.log)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ts.name, err)
		}
		parse, replay, impact, extend = append(parse, p), append(replay, r), append(impact, im), append(extend, ex)
		if ts.warmResp != nil && len(ts.warmResp.Changed) > 0 {
			e, err := probeDecisiveEncode(probes, in.d0, in.log, in.complaints, ts.warmResp.Changed)
			if err != nil {
				return nil, fmt.Errorf("%s: encode: %w", ts.name, err)
			}
			enc = append(enc, e)
		}
		subs = append(subs, core.Subproblem{D0: in.d0, Log: in.log, Complaints: in.complaints, Options: cliOptions()})
		a, dm, rep, err := probeHiststore(probes, filepath.Join(cfg.scratch, fmt.Sprintf("hist-%d", t)),
			in.d0, in.log, in.complaints, cliOptions())
		out.attempted++
		if err != nil || !rep.Resolved {
			out.fail("%s: histstore probe: resolved=%v err=%v", ts.name, rep != nil && rep.Resolved, err)
		} else {
			apps, hdiag = append(apps, a), append(hdiag, dm)
		}
		s, w, walled, err := serviceTimes(probes, env.d, env.clients[0], ts.name, nil, 2)
		out.attempted++
		if err != nil {
			out.fail("%s: service probe: %v", ts.name, err)
			continue
		}
		svc, wire = append(svc, s), append(wire, w)
		f.walled = append(f.walled, walled...)
	}
	f.parseMS, f.replayMS, f.impactMS, f.extendUS = mean(parse), mean(replay), mean(impact), mean(extend)
	f.decisiveEncodeMS, f.appendUS, f.histDiagnoseMS = mean(enc), mean(apps), mean(hdiag)
	f.serviceMS, f.wireMS = mean(svc), mean(wire)
	var err error
	if f.jobEncodeUS, f.jobDecodeUS, f.jobBytes, err = probeCodec(probes, subs); err != nil {
		return nil, fmt.Errorf("dist codec: %w", err)
	}
	layer, extra := layerMetrics(f)
	out.extra = append(out.extra, extra...)
	return layer, nil
}

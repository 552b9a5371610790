// Command perfbench is the repository's benchmark. It drives the
// diagnosis engine through its public packages on one of four
// workloads, checks every repair it times with an independent replay,
// and prints every end-to-end metric by name and unit; with -trace 1 it
// instead prints the per-layer metrics, writes the bench-side span tree
// and optionally a CPU profile.
//
//	perfbench --workload oldest-range --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it are the
// human-readable report and one "report" JSON line carrying the host
// stamp, deterministic counter totals, sample counts and spreads.
// README.md in this directory documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
)

// config is one invocation.
type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	toy        bool   // toy sizes for the smoke test
	outDir     string // trace files, profiles and scratch stores
	cpuProfile string
	commit     string

	root    *obs.Span // bench-side span tree; nil when untraced
	scratch string    // per-run scratch directory under outDir
}

func (c *config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// setupReps is how many times each run sets its workload up; setup_s
// reports the median. Only the last set-up is kept and measured.
func (c *config) setupReps() int {
	if c.toy {
		return 1
	}
	return 5
}

// metric is one reported figure.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	// Spread is the within-run interquartile range over the median of
	// the samples behind the figure; -1 when not applicable.
	Spread float64 `json:"spread"`
	Note   string  `json:"note,omitempty"`
}

// counter is one deterministic work total.
type counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// outcome is everything one run measured.
type outcome struct {
	attempted, failed int
	incorrect         int      // outputs that failed an independent check
	failures          []string // the first few failure reasons
	e2e               []metric // end-to-end metrics (BENCHMARK.json)
	layer             []metric // per-layer metrics (BENCHMARK.json)
	extra             []metric // workload-specific figures, report only
	counters          []counter
	sizes             string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*config) (*outcome, error){
	"oldest-range": runBatch,
	"long-log":     runBatch,
	"fleet":        runBatch,
	"daemon-mixed": runDaemon,
}

func main() {
	cfg := &config{}
	flag.StringVar(&cfg.workload, "workload", "", "oldest-range | long-log | daemon-mixed | fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "how long the timed window runs")
	traceFlag := flag.Int("trace", 0, "1 = traced run: per-layer metrics, span file, optional profile")
	flag.BoolVar(&cfg.toy, "toy", false, "toy input sizes (smoke test)")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans, profiles and scratch stores")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "traced run: write a CPU profile to this file")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit the binary was built from, for the stamp")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok || (*traceFlag != 0 && *traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n",
			cfg.workload, *traceFlag, cfg.seconds)
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload run: set-up, the timed window, the
// independent checks, and (traced) the layer probes and span export.
func run(cfg *config) (*outcome, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.outDir, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	cfg.scratch = scratch

	if cfg.trace {
		cfg.root = obs.NewTrace("perfbench")
		cfg.root.SetAttr("workload", cfg.workload)
		cfg.root.SetAttr("seed", cfg.seed)
		if cfg.cpuProfile != "" {
			f, err := os.Create(cfg.cpuProfile)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return nil, err
			}
			defer pprof.StopCPUProfile()
		}
	}
	out, err := workloads[cfg.workload](cfg)
	if err != nil {
		return nil, err
	}
	if cfg.root != nil {
		cfg.root.End()
		if err := writeSpans(cfg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// writeSpans flushes the bench-side span tree in both formats qfix
// -trace writes: JSONL span lines and Chrome trace_event JSON.
func writeSpans(cfg *config) error {
	base := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d", cfg.workload, cfg.seed))
	for _, name := range []string{base + ".jsonl", base + ".json"} {
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := obs.WriteTrace(f, cfg.root, name); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// stamp identifies the host and build that produced a result.
type stamp struct {
	Host       string  `json:"host"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Toy        bool    `json:"toy,omitempty"`
	Sizes      string  `json:"sizes"`
}

func printReport(w io.Writer, cfg *config, out *outcome) error {
	host, _ := os.Hostname() // the stamp says "" when the host has no name
	st := stamp{Host: host, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: cfg.commit, Workload: cfg.workload,
		Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Toy: cfg.toy, Sizes: out.sizes}

	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g trace=%v host=%s cpus=%d gomaxprocs=%d %s commit=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, st.Host, st.NumCPU, st.GOMAXPROCS, st.GoVersion, cfg.commit)
	fmt.Fprintf(w, "# sizes: %s\n", out.sizes)
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "# %s\n", title)
		for _, m := range ms {
			line := fmt.Sprintf("  %-28s %14.4f %-6s", m.Name, m.Value, m.Unit)
			if m.Samples > 0 {
				line += fmt.Sprintf(" n=%d", m.Samples)
			}
			if m.Spread >= 0 {
				line += fmt.Sprintf(" spread=%.3f", m.Spread)
			}
			if m.Note != "" {
				line += " " + m.Note
			}
			fmt.Fprintln(w, line)
		}
	}
	if cfg.trace {
		section("per-layer metrics", out.layer)
	} else {
		section("end-to-end metrics", out.e2e)
	}
	section("workload figures (report only)", out.extra)
	if len(out.counters) > 0 {
		fmt.Fprintln(w, "# deterministic counter totals over the instance stream (must repeat exactly)")
		for _, c := range out.counters {
			fmt.Fprintf(w, "  %-28s %d\n", c.Name, c.Value)
		}
	}
	for _, f := range out.failures {
		fmt.Fprintf(w, "# FAILURE: %s\n", f)
	}

	report := struct {
		Stamp     stamp     `json:"stamp"`
		EndToEnd  []metric  `json:"end_to_end,omitempty"`
		PerLayer  []metric  `json:"per_layer,omitempty"`
		Extra     []metric  `json:"workload_figures,omitempty"`
		Counters  []counter `json:"counters,omitempty"`
		Failures  []string  `json:"failures,omitempty"`
		Incorrect int       `json:"incorrect"`
	}{st, out.e2e, out.layer, out.extra, out.counters, out.failures, out.incorrect}
	if cfg.trace {
		report.EndToEnd = nil
	} else {
		report.PerLayer = nil
	}
	rj, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "report %s\n", rj)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := out.e2e
	if cfg.trace {
		ms = out.layer
	}
	metrics := make(map[string]value, len(ms))
	for _, m := range ms {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a number", m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.incorrect == 0 && out.attempted > 0, out.attempted, out.failed, metrics}
	j, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", j)
	return err
}

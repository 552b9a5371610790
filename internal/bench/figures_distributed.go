package bench

import (
	"fmt"
	"net"

	"repro/internal/core"
	"repro/internal/dist"
)

// FigDistributed measures the coordinator/worker subsystem against local
// partitioned diagnosis on the independent-cluster workloads: the same
// partition plan, but every subproblem serialized and shipped to a
// loopback-TCP worker fleet over persistent multiplexed connections
// with streamed results (mux-2) instead of the in-process pool
// (local-4). The fleet series must match the local series' Resolved
// outcome exactly (the coordinator merges through the same verification
// path); the gap between them is the price of the wire protocol.
func (r *Runner) FigDistributed() (*Table, error) {
	var clusterCounts []int
	var rowsPer, queriesPer int
	switch r.Scale {
	case Quick:
		clusterCounts, rowsPer, queriesPer = []int{8}, 5, 2
	case Large:
		clusterCounts, rowsPer, queriesPer = []int{8, 16, 32, 64}, 8, 3
	default:
		clusterCounts, rowsPer, queriesPer = []int{8, 16, 32}, 6, 3
	}
	t := &Table{ID: "distributed", Title: "distributed diagnosis: local partitioned vs loopback worker fleet",
		XLabel: "clusters",
		Caption: fmt.Sprintf("rows/cluster=%d queries/cluster=%d; one corrupted query per cluster; "+
			"mux-2 multiplexes jobs over one persistent loopback-TCP connection to each of "+
			"2 qfix-worker processes, streaming results",
			rowsPer, queriesPer)}

	// Two real workers on loopback: the full serialize → TCP → solve →
	// deserialize path, in-process only in the sense of sharing the OS.
	workers, stop, err := startLoopbackWorkers(2)
	if err != nil {
		return nil, err
	}
	defer stop()

	series := []struct {
		name string
		dist bool
	}{
		{"local-4", false},
		{"mux-2", true},
	}
	for _, nc := range clusterCounts {
		for _, s := range series {
			opts := core.Options{
				Algorithm:    core.Basic,
				TupleSlicing: true,
				QuerySlicing: true,
				Partition:    4,
			}
			var coord *dist.Coordinator
			if s.dist {
				coord = dist.Connect(dist.Config{}, workers...)
				opts.PartitionSolver = coord
			}
			var pts []point
			for rep := 0; rep < r.reps(); rep++ {
				w, corruptIdx, err := PartitionClusters(nc, rowsPer, queriesPer,
					r.Seed+int64(rep)*353+int64(nc))
				if err != nil {
					return nil, err
				}
				in, err := w.MakeInstance(corruptIdx...)
				if err != nil {
					return nil, err
				}
				pts = append(pts, r.measure(in, in.Complaints, opts))
			}
			if coord != nil {
				coord.Close()
			}
			ms, acc, ok := avg(pts)
			t.Rows = append(t.Rows, withPhases(Row{Series: s.name, X: fmt.Sprint(nc),
				TimeMS: ms, Precision: acc.Precision, Recall: acc.Recall, F1: acc.F1, Solved: ok,
				Note: distributedNote(pts)}, pts))
			r.logf("distributed %s clusters=%d: %.1fms solved=%.2f", s.name, nc, ms, ok)
		}
	}
	return t, nil
}

// startLoopbackWorkers launches n diagnosis workers on 127.0.0.1
// ephemeral ports, returning their addresses and a teardown func.
func startLoopbackWorkers(n int) (addrs []string, stop func(), err error) {
	var servers []*dist.Server
	stop = func() {
		for _, s := range servers {
			s.Close()
		}
	}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		srv := &dist.Server{}
		servers = append(servers, srv)
		go srv.Serve(l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, stop, nil
}

// distributedNote reports how much of the work actually went remote,
// and how much of that streamed back over persistent mux connections.
func distributedNote(pts []point) string {
	remote, parts, streamed := 0, 0, 0
	for _, p := range pts {
		remote += p.stats.RemoteJobs
		parts += p.stats.Partitions
		streamed += p.stats.StreamedResults
	}
	if parts == 0 {
		return ""
	}
	if streamed > 0 {
		return fmt.Sprintf("remote=%d/%d jobs, %d streamed", remote, parts, streamed)
	}
	return fmt.Sprintf("remote=%d/%d jobs", remote, parts)
}

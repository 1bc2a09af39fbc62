package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"apspark"
	"apspark/internal/graph"
	"apspark/internal/obs"
	"apspark/internal/serve"
	"apspark/internal/store"
)

// serve-cold: graphgen (ER, average degree 16, integer weights,
// connected) -> dij solve streamed into an ivarint store -> open ->
// serve mixed HTTP traffic with Zipf-distributed sources. The decoded
// matrix is many times the tile and row cache budgets, so the store read
// path (IO, CRC, decode, cache) dominates the queries; the streamed solve
// and the store write make up set-up.

type coldConfig struct {
	n, block      int
	tileMB, rowMB int64
	zipfS         float64
	rate          float64 // open-loop queries/s
	setups        int
	batchPairs    int
}

func coldParams(tiny bool) coldConfig {
	if tiny {
		return coldConfig{n: 256, block: 64, tileMB: 1, rowMB: 1, zipfS: 1.2, rate: 200, setups: 1, batchPairs: 8}
	}
	return coldConfig{n: 4096, block: 256, tileMB: 16, rowMB: 8, zipfS: 1.2, rate: coldRate, setups: 3, batchPairs: 64}
}

// coldRate is fixed at a fourth to a fifth of the wall-clock
// closed-loop rate (loadgen.qps_wall) measured when the benchmark was
// defined, on a 2-core machine, so the open-loop phases of a 20 s run
// collect at least 1000 queries. It sits well below half of saturation
// on purpose: there the host's steal turned queueing into 2-5x swings
// of the latency percentiles between runs.
const coldRate = 170

const (
	avgDegree = 16
	maxWeight = 100
)

// servingSetup is what one set-up leaves behind for the measured phase.
type servingSetup struct {
	g     *graph.Graph
	st    *store.Store
	sw    *serve.Swapper
	stack *stack
	path  string
}

func (s *servingSetup) close() error {
	var err error
	if s.stack != nil {
		err = s.stack.close()
	}
	if s.sw != nil {
		s.sw.Close()
	}
	if s.path != "" {
		os.Remove(s.path)
	}
	return err
}

// firstAnswer asks the fresh stack one query: set-up ends at the first
// servable answer.
func (st *stack) firstAnswer() error {
	resp, err := st.client.Get(st.base + "/dist?from=0&to=1")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("first query: status %d", resp.StatusCode)
	}
	return nil
}

// solveToStore solves g with the dij host solver into a store at path
// through Session.SolveToStore and returns the call's CPU seconds. In
// traced runs the call becomes a span, split by the telemetry the solve
// registers in obs.Default: the summed panel solve time
// (apsp_sparse_solve_wall_seconds) is the sparse layer, and the rest of
// the call — the emit callback, which is PanelWriter.WritePanel
// (apsp_sparse_panel_emit_seconds), then PanelWriter.Close — is the
// store write. The panels interleave solve and write, so the write span
// is placed at the end of the call with the summed duration.
func (r *run) solveToStore(g *graph.Graph, path string, block int, codec string, parent int64) (float64, error) {
	s, err := apspark.New(apspark.WithSolver(apspark.SolverDijkstra))
	if err != nil {
		return 0, err
	}
	opts := []apspark.SolveOption{apspark.WithBlockSize(block)}
	if codec != "raw" {
		opts = append(opts, apspark.WithCodec(codec))
	}
	c0, t0 := cpuNow(), time.Now()
	if _, err := s.SolveToStore(context.Background(), g, path, opts...); err != nil {
		return 0, err
	}
	cpuS, t1 := cpuSince(c0), time.Now()
	if r.tr != nil {
		solveS, err := promValue("apsp_sparse_solve_wall_seconds")
		if err != nil {
			return 0, err
		}
		writeS := t1.Sub(t0).Seconds() - solveS
		id := r.tr.add("sparse.solve", parent, t0, t1)
		r.tr.add("store.write", id, t1.Add(-time.Duration(writeS*1e9)), t1)
		r.layer["sparse.solve_s"] = solveS
		r.layer["sparse.rows_per_s"] = float64(g.N) / solveS
		r.layer["store.panel_write_s"] = writeS
	}
	return cpuS, nil
}

// promValue reads one sample from obs.Default's Prometheus exposition.
func promValue(name string) (float64, error) {
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		return 0, err
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("metric %s is not registered in obs.Default", name)
}

// storeLayers records the file-shape metrics of a store.
func (r *run) storeLayers(path string, n int) {
	if fi, err := os.Stat(path); err == nil {
		r.layer["store.file_mb"] = float64(fi.Size()) / (1 << 20)
		r.layer["store.bytes_per_entry"] = float64(fi.Size()) / float64(n) / float64(n)
	}
}

// storeReadLayers records the read-path counters of the stores that
// served the measured phase, summed.
func (r *run) storeReadLayers(codec string, stores ...*store.Store) {
	var tiles, rows store.CacheStats
	var rowSpan, rowCoal, decodes int64
	var dec obs.Distribution
	for _, st := range stores {
		snap := st.Snapshot()
		tiles.Hits += snap.Tiles.Hits
		tiles.Misses += snap.Tiles.Misses
		tiles.Coalesced += snap.Tiles.Coalesced
		rows.Hits += snap.Rows.Hits
		rows.Misses += snap.Rows.Misses
		rowCoal += snap.Rows.Coalesced
		rowSpan += snap.Rows.SpanReads
		if h := st.DecodeHistogram(codec); h != nil {
			dec.Merge(h.Snapshot())
		}
	}
	decodes = int64(dec.Count())
	ratio := func(h, m int64) float64 {
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}
	r.layer["store.tile_hit_ratio"] = ratio(tiles.Hits, tiles.Misses)
	r.layer["store.row_hit_ratio"] = ratio(rows.Hits, rows.Misses)
	r.layer["store.coalesced"] = float64(tiles.Coalesced + rowCoal)
	r.layer["store.span_reads"] = float64(rowSpan)
	r.layer["store.decode_p50_us"] = float64(dec.Quantile(0.5)) / 1e3
	r.layer["store.decode_count"] = float64(decodes)
	r.notef("store: tiles %d hit / %d miss, rows %d hit / %d miss, %d span reads, %d coalesced, %d %s decodes",
		tiles.Hits, tiles.Misses, rows.Hits, rows.Misses, rowSpan, tiles.Coalesced+rowCoal, decodes, codec)
}

// servingPhases splits the measured window into forty units: a
// closed-loop warm-up of four that lets the caches fill, then four
// rounds of a closed-loop phase of six units, read in two windows, for
// qps_sat and an open-loop phase of three at rate for the latency
// percentiles. The host's speed swings over tens of seconds; closed-loop
// phases spread over the whole run meet more of its swings than one
// block would. At 20 s a window is 1.5 s, serve-churn's cadence, so each
// window there holds one batch's work.
func (r *run) servingPhases(rate float64) []phase {
	u := time.Duration(r.seconds*float64(time.Second)) / 40
	ps := []phase{{dur: 4 * u}}
	for range 4 {
		ps = append(ps, phase{dur: 6 * u, windows: 2}, phase{dur: 3 * u, rate: rate})
	}
	return ps
}

func runServeCold(r *run) error {
	cfg := coldParams(r.tiny)
	heap := startHeapSampler(&r.logBytes)
	var setups, solves []float64
	var cur *servingSetup
	for rep := 0; rep < cfg.setups; rep++ {
		if cur != nil {
			if err := cur.close(); err != nil {
				return err
			}
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		root := r.tr.begin("bench.setup", 0, 0)
		c0 := cpuNow()
		s := &servingSetup{path: filepath.Join(r.work, fmt.Sprintf("cold-%d.apsp", rep))}
		cur = s
		var err error
		genS, err := r.timed("graph.gen", root.ID, func() error {
			s.g, err = graph.ErdosRenyiConnected(cfg.n, graph.AvgDegreeProb(cfg.n, avgDegree), graph.IntegerWeights(maxWeight), r.seed)
			return err
		})
		if err != nil {
			return err
		}
		solveS, err := r.solveToStore(s.g, s.path, cfg.block, "ivarint", root.ID)
		if err != nil {
			return err
		}
		openS, err := r.timed("store.open", root.ID, func() error {
			s.st, err = store.OpenWithOptions(s.path, storeOptions(cfg.tileMB<<20, cfg.rowMB<<20))
			return err
		})
		if err != nil {
			return err
		}
		var bad *badEntry
		if r.corrupt {
			bad = corruptTarget(s.g, newZipf(cfg.n, cfg.zipfS, r.seed).hot(0))
		}
		eng, err := serve.NewWithOptions(r.source(s.st, "store", bad), s.g, serve.EngineOptions{})
		if err != nil {
			s.st.Close()
			return err
		}
		s.st.RegisterMetrics(obs.Default)
		eng.RegisterMetrics(obs.Default)
		s.sw = serve.NewSwapper(serve.NewEpoch("", eng, s.st))
		if s.stack, err = r.startStack(s.sw, filepath.Base(s.path)); err != nil {
			return err
		}
		if err := s.stack.firstAnswer(); err != nil {
			return err
		}
		setups = append(setups, cpuSince(c0))
		r.tr.finish(root)
		solves = append(solves, solveS)
		r.layer["graph.gen_s"] = genS
		r.layer["store.open_ms"] = openS * 1e3
	}
	defer cur.close()
	r.e2e["setup_s"] = median(setups)
	r.e2e["solve_s"] = median(solves)
	r.storeLayers(cur.path, cfg.n)
	r.notef("setup: %d x (graph n=%d, dij solve -> ivarint store b=%d, open) median %.3fs, solve+write median %.3fs, store %.1f MiB",
		len(setups), cfg.n, cfg.block, r.e2e["setup_s"], r.e2e["solve_s"], r.layer["store.file_mb"])

	z := newZipf(cfg.n, cfg.zipfS, r.seed)
	gen := func(p int, i int64) query {
		rr := newRNG(r.seed, uint64(p+1)<<40|uint64(i))
		u := rr.intn(100)
		q := query{from: z.draw(&rr), to: rr.intn(cfg.n)}
		switch {
		case u < 60:
			q.kind = qDist
		case u < 75:
			q.kind = qRow
		case u < 85:
			q.kind, q.k = qKNN, 10
		case u < 95:
			q.kind = qPath
		default:
			// One origin, many destinations: a batch reads one row.
			q.kind = qBatch
			q.pairs = make([][2]int, cfg.batchPairs)
			for j := range q.pairs {
				q.pairs[j] = [2]int{q.from, rr.intn(cfg.n)}
			}
		}
		return q
	}
	res := cur.stack.drive(r.servingPhases(cfg.rate), gen)
	r.e2e["peak_heap_mb"] = heap.Stop()
	r.storeReadLayers("ivarint", cur.st)
	return r.verifySingleGraph(res, cur.g)
}

// verifySingleGraph checks every answer against reference rows of g for
// the sources the answers touch, then folds the answers into metrics.
func (r *run) verifySingleGraph(res []phaseResult, g *graph.Graph) error {
	seen := map[int]bool{}
	var srcs []int
	for _, pr := range res {
		for _, a := range pr.answers {
			a.sources(func(v int) {
				if !seen[v] {
					seen[v] = true
					srcs = append(srcs, v)
				}
			})
		}
	}
	rg := newRefGraph(g)
	t0 := time.Now()
	rows := rg.refRows(srcs, r.nproc)
	r.verifyAnswers(res, func(v int) []float64 { return rows[v] }, rg)
	r.notef("verify: %d reference rows in %.2fs", len(srcs), sinceS(t0))
	return r.summarize(res)
}

// corruptTarget picks the entry the self-test corrupts: from the hottest
// source to its nearest neighbour, so /dist, /row, /knn and /path all
// have a chance to serve it.
func corruptTarget(g *graph.Graph, hot int) *badEntry {
	row := newRefGraph(g).refRows([]int{hot}, 1)[hot]
	best := -1
	for v, d := range row {
		if v != hot && (best < 0 || d < row[best]) {
			best = v
		}
	}
	return &badEntry{i: hot, j: best}
}

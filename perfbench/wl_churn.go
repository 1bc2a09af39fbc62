package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"apspark/internal/generation"
	"apspark/internal/graph"
	"apspark/internal/obs"
	"apspark/internal/serve"
	"apspark/internal/store"
)

// serve-churn: a raw store whose caches hold the working set serves
// uniform /dist and /path traffic while seeded delta batches (edge
// re-weightings plus new edges) arrive at a fixed cadence. Each batch
// goes through generation.Manager.ApplyDeltas, then a new epoch, then
// Swapper.Swap — the apsp-serve admin path. Store reads are rare between
// swaps, so the engine, HTTP and the generation lifecycle dominate.
// solve_s comes from a separate fixed sequence of seeded batches applied
// back to back with no load before serving starts, so the CPU time of
// each ApplyDeltas is the update path's own and not the load's.

type churnConfig struct {
	n, block     int
	cadence      time.Duration
	batch        int
	quietBatches int // applied back to back before serving, for solve_s
	pathPercent  int
	rate         float64
	setups       int
}

func churnParams(tiny bool) churnConfig {
	if tiny {
		return churnConfig{n: 256, block: 64, cadence: 300 * time.Millisecond, batch: 4, quietBatches: 2, pathPercent: 20, rate: 300, setups: 1}
	}
	return churnConfig{n: 1024, block: 128, cadence: 1500 * time.Millisecond, batch: 8, quietBatches: 8, pathPercent: 20, rate: churnRate, setups: 7}
}

// churnRate is fixed at about a ninth of the wall-clock closed-loop
// rate (loadgen.qps_wall) measured when the benchmark was defined, on a
// 2-core machine, well below half of saturation for the reason given at
// coldRate.
const churnRate = 2000

// quietStream offsets the delta streams of the quiet batches from those
// of the batches applied under load.
const quietStream = 1 << 20

// genRecord is one generation of the run: its graph, an extra store
// handle kept open for verification, and the interval in which requests
// could have been answered from it (zero when it served none).
type genRecord struct {
	id       string
	g        *graph.Graph
	st       *store.Store
	from, to time.Time
	res      *generation.UpdateResult
}

// churnSetup is one set-up of the churn workload.
type churnSetup struct {
	servingSetup
	mgr *generation.Manager
	dir string
}

func (s *churnSetup) close() error {
	err := s.servingSetup.close()
	os.RemoveAll(s.dir)
	return err
}

func runServeChurn(r *run) error {
	cfg := churnParams(r.tiny)
	heap := startHeapSampler(&r.logBytes)
	var setups []float64
	var cur *churnSetup
	for rep := 0; rep < cfg.setups; rep++ {
		if cur != nil {
			if err := cur.close(); err != nil {
				return err
			}
		}
		s, d, err := r.churnSetup(cfg, rep)
		if err != nil {
			return err
		}
		cur = s
		setups = append(setups, d)
	}
	defer cur.close()
	r.e2e["setup_s"] = median(setups)
	r.storeLayers(filepath.Join(r.work, "churn-seed.apsp"), cfg.n)
	r.notef("setup: %d x (graph n=%d, dij solve -> raw store b=%d, import, open) median %.3fs",
		len(setups), cfg.n, cfg.block, r.e2e["setup_s"])

	// The set-up generation and those promoted before serving starts
	// answer no measured request; the correctness gate still checks
	// their stores.
	seedGen, err := r.openGen(cur.mgr)
	if err != nil {
		return err
	}
	gens := []*genRecord{seedGen}
	defer func() {
		for _, g := range gens {
			g.st.Close()
		}
	}()
	var quiet []float64
	serving := cur.st // the store of the epoch the swapper serves
	for k := 0; k < cfg.quietBatches; k++ {
		runtime.GC()
		deltas := churnDeltas(cur.mgr.Graph(), cfg, r.seed, quietStream+k)
		c0 := cpuNow()
		res, err := cur.mgr.ApplyDeltas(context.Background(), deltas)
		d := cpuSince(c0)
		if errors.Is(err, generation.ErrBadDelta) {
			continue
		}
		if err != nil {
			return fmt.Errorf("apply quiet batch %d: %w", k, err)
		}
		ep, st, err := r.promoted(cur.mgr)
		if err != nil {
			return err
		}
		cur.sw.Swap(ep)
		serving = st
		rec, err := r.openGen(cur.mgr)
		if err != nil {
			return err
		}
		rec.res = res
		gens = append(gens, rec)
		quiet = append(quiet, d)
	}
	if len(quiet) == 0 {
		return errors.New("no quiet delta batch was promoted")
	}
	r.e2e["solve_s"] = median(quiet)
	loaded := len(gens) // gens[loaded:] are promoted under load
	gens[loaded-1].from = time.Now()

	// The mutator: batch k is due at start + (k+1/2)*cadence, so a fixed
	// number of batches falls into each phase; a batch still building
	// when the next falls due delays it.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mutErr error
	var applies, opens, swaps, stale []float64
	served := []*store.Store{serving}
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			due := start.Add(cfg.cadence/2 + time.Duration(k)*cfg.cadence)
			select {
			case <-stop:
				return
			case <-time.After(time.Until(due)):
			}
			deltas := churnDeltas(cur.mgr.Graph(), cfg, r.seed, k)
			root := r.tr.begin("bench.batch", 0, 0)
			t0 := time.Now()
			var res *generation.UpdateResult
			applyS, err := r.timed("generation.apply", root.ID, func() error {
				var err error
				res, err = cur.mgr.ApplyDeltas(context.Background(), deltas)
				return err
			})
			if errors.Is(err, generation.ErrBadDelta) {
				r.tr.finish(root)
				continue
			}
			if err != nil {
				mutErr = fmt.Errorf("apply batch %d: %w", k, err)
				r.tr.finish(root)
				return
			}
			var ep *serve.Epoch
			openS, err := r.timed("store.open", root.ID, func() error {
				var err error
				var st *store.Store
				if ep, st, err = r.promoted(cur.mgr); err == nil {
					served = append(served, st)
				}
				return err
			})
			if err != nil {
				mutErr = err
				r.tr.finish(root)
				return
			}
			swStart := time.Now()
			swapS, _ := r.timed("serve.swap", root.ID, func() error {
				cur.sw.Swap(ep)
				return nil
			})
			swEnd := time.Now()
			r.tr.finish(root)
			stale = append(stale, swEnd.Sub(t0).Seconds()*1e3)
			applies = append(applies, applyS)
			opens = append(opens, openS*1e3)
			swaps = append(swaps, swapS*1e3)
			// Outside the staleness interval: keep a handle on the promoted
			// generation for the correctness gate.
			rec, err := r.openGen(cur.mgr)
			if err != nil {
				mutErr = err
				return
			}
			rec.from, rec.res = swStart, res
			gens[len(gens)-1].to = swEnd
			gens = append(gens, rec)
		}
	}()

	z := cfg.n
	gen := func(p int, i int64) query {
		rr := newRNG(r.seed, uint64(p+1)<<40|uint64(i))
		q := query{kind: qDist, from: rr.intn(z), to: rr.intn(z)}
		if rr.intn(100) < cfg.pathPercent {
			q.kind = qPath
		}
		return q
	}
	res := cur.stack.drive(r.servingPhases(cfg.rate), gen)
	close(stop)
	wg.Wait()
	r.e2e["peak_heap_mb"] = heap.Stop()
	if mutErr != nil {
		return mutErr
	}
	gens[len(gens)-1].to = time.Now()
	if len(applies) == 0 {
		return errors.New("no delta batch was promoted during the run")
	}
	r.layer["generation.apply_ms"] = median(applies) * 1e3
	r.layer["store.open_ms"] = median(opens)
	r.layer["serve.swap_ms"] = median(swaps)
	r.layer["generation.staleness_p50_ms"] = median(stale)
	r.layer["generation.staleness_tail_ms"] = quantile(stale, tailQuantile(len(stale), 0.9))
	var build, validate, dRows, dPanels []float64
	for _, g := range gens[loaded:] {
		build = append(build, float64(g.res.BuildMs))
		validate = append(validate, float64(g.res.ValidateMs))
		dRows = append(dRows, float64(g.res.DirtyRows))
		dPanels = append(dPanels, float64(g.res.DirtyPanels))
	}
	r.layer["generation.build_ms"] = median(build)
	r.layer["generation.validate_ms"] = median(validate)
	r.layer["generation.dirty_rows"] = median(dRows)
	r.layer["generation.dirty_panels"] = median(dPanels)
	r.storeReadLayers("raw", served...)
	r.notef("churn: %d batches promoted every %v, apply median %.1fms, staleness median %.1fms (p%.0f %.1fms over %d), dirty rows median %.0f of %d",
		len(applies), cfg.cadence, r.layer["generation.apply_ms"], r.layer["generation.staleness_p50_ms"],
		100*tailQuantile(len(stale), 0.9), r.layer["generation.staleness_tail_ms"], len(stale), r.layer["generation.dirty_rows"], cfg.n)

	if err := r.verifyGenerations(res, gens); err != nil {
		return err
	}
	return r.summarize(res)
}

// churnSetup builds one serving stack over a fresh generation directory
// and returns it with its set-up time.
func (r *run) churnSetup(cfg churnConfig, rep int) (*churnSetup, float64, error) {
	runtime.GC() // the previous set-up's garbage is not this one's cost
	root := r.tr.begin("bench.setup", 0, 0)
	defer r.tr.finish(root)
	c0 := cpuNow()
	s := &churnSetup{dir: filepath.Join(r.work, fmt.Sprintf("gens-%d", rep))}
	seedPath := filepath.Join(r.work, "churn-seed.apsp")
	var err error
	genS, err := r.timed("graph.gen", root.ID, func() error {
		s.g, err = graph.ErdosRenyiConnected(cfg.n, graph.AvgDegreeProb(cfg.n, avgDegree), graph.IntegerWeights(maxWeight), r.seed)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	r.layer["graph.gen_s"] = genS
	if _, err := r.solveToStore(s.g, seedPath, cfg.block, "raw", root.ID); err != nil {
		return nil, 0, err
	}
	if _, err := r.timed("generation.import", root.ID, func() error {
		_, err := generation.Import(s.dir, seedPath, s.g)
		return err
	}); err != nil {
		return nil, 0, err
	}
	budget := int64(cfg.n)*int64(cfg.n)*8 + 1<<20
	var id string
	var gg *graph.Graph
	if _, err := r.timed("store.open", root.ID, func() error {
		s.mgr, err = generation.Open(s.dir, generation.Options{
			Store:  storeOptions(budget, budget),
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			return err
		}
		s.st, gg, id, err = s.mgr.OpenCurrent()
		return err
	}); err != nil {
		return nil, 0, err
	}
	eng, err := serve.NewWithOptions(r.source(s.st, "store", nil), gg, serve.EngineOptions{Generation: id})
	if err != nil {
		s.st.Close()
		return nil, 0, err
	}
	s.st.RegisterMetrics(obs.Default)
	eng.RegisterMetrics(obs.Default)
	s.mgr.RegisterMetrics(obs.Default)
	s.sw = serve.NewSwapper(serve.NewEpoch(id, eng, s.st))
	if s.stack, err = r.startStack(s.sw, filepath.Base(s.dir)); err != nil {
		return nil, 0, err
	}
	if err := s.stack.firstAnswer(); err != nil {
		return nil, 0, err
	}
	return s, cpuSince(c0), nil
}

// promoted opens the manager's current generation as a serving epoch, the
// way the apsp-serve admin path does after a promotion.
func (r *run) promoted(m *generation.Manager) (*serve.Epoch, *store.Store, error) {
	st, g, id, err := m.OpenCurrent()
	if err != nil {
		return nil, nil, err
	}
	eng, err := serve.NewWithOptions(r.source(st, "store", nil), g, serve.EngineOptions{Generation: id})
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	st.RegisterMetrics(obs.Default)
	eng.RegisterMetrics(obs.Default)
	return serve.NewEpoch(id, eng, st), st, nil
}

// openGen keeps a handle on the manager's current generation.
func (r *run) openGen(m *generation.Manager) (*genRecord, error) {
	st, _, id, err := m.OpenCurrent()
	if err != nil {
		return nil, err
	}
	return &genRecord{id: id, g: m.Graph(), st: st}, nil
}

// churnDeltas makes batch k from the seed: mostly re-weightings of
// existing edges to another integer weight, plus new edges.
func churnDeltas(g *graph.Graph, cfg churnConfig, seed int64, k int) []generation.Delta {
	rr := newRNG(seed, 0xde17a<<32|uint64(k))
	edges := g.Edges()
	out := make([]generation.Delta, cfg.batch)
	for i := range out {
		if rr.intn(4) > 0 && len(edges) > 0 {
			e := edges[rr.intn(len(edges))]
			w := float64(1 + rr.intn(maxWeight))
			out[i] = generation.Delta{U: e.U, V: e.V, W: w}
			continue
		}
		u := rr.intn(cfg.n)
		v := rr.intn(cfg.n - 1)
		if v >= u {
			v++
		}
		out[i] = generation.Delta{U: u, V: v, W: float64(1 + rr.intn(maxWeight))}
	}
	return out
}

// verifyGenerations checks every promoted generation's store against a
// fresh reference solve of its graph, computes dirty precision, and
// checks each answer against the generations that served while it was in
// flight.
func (r *run) verifyGenerations(res []phaseResult, gens []*genRecord) error {
	t0 := time.Now()
	lastErr := map[*answer]error{}
	var prev [][]float64
	var changed, dirty int
	all := make([]int, gens[0].g.N)
	for i := range all {
		all[i] = i
	}
	for gi, gr := range gens {
		rg := newRefGraph(gr.g)
		rows := rg.refRows(all, r.nproc)
		ref := make([][]float64, len(all))
		for i := range ref {
			ref[i] = rows[i]
		}
		buf := make([]float64, 0, len(all))
		for i := range ref {
			got, err := gr.st.RowInto(context.Background(), i, buf)
			if err != nil {
				return fmt.Errorf("read generation %s row %d: %w", gr.id, i, err)
			}
			if !sameRow(got, ref[i]) {
				r.wrongf("generation %s: row %d differs from a fresh solve of its graph", gr.id, i)
				break
			}
		}
		if gi > 0 {
			for i := range ref {
				if !sameRow(ref[i], prev[i]) {
					changed++
				}
			}
			dirty += gr.res.DirtyRows
		}
		prev = ref
		refRow := func(v int) []float64 { return ref[v] }
		for _, pr := range res {
			for _, a := range pr.answers {
				if a.ok || a.err != "" || a.done.Before(gr.from) || a.sent.After(gr.to) {
					continue
				}
				if err := a.check(refRow, rg); err != nil {
					lastErr[a] = err
					continue
				}
				a.ok = true
			}
		}
	}
	for _, pr := range res {
		for _, a := range pr.answers {
			if a.ok || a.err != "" {
				continue
			}
			err := lastErr[a]
			if err == nil {
				err = errors.New("no generation was serving while the request was in flight")
			}
			r.wrongf("%s: %v", qnames[a.q.kind], err)
		}
	}
	if dirty > 0 {
		r.layer["generation.dirty_precision"] = float64(changed) / float64(dirty)
	}
	r.notef("verify: %d generations against fresh solves in %.2fs, %d of %d recomputed rows changed",
		len(gens), sinceS(t0), changed, dirty)
	return nil
}

package main

import (
	"context"
	"runtime"

	"apspark/internal/graph"
	"apspark/internal/hierarchy"
	"apspark/internal/obs"
	"apspark/internal/serve"
)

// oracle: a planted-community sparse graph too large for an n^2 store.
// Set-up is hierarchy.Build; the load is open-loop /dist and /row served
// by the oracle on demand, with sources drawn from a seeded pool so the
// correctness gate's reference rows stay affordable. It is the only
// workload for internal/hierarchy and the bounded sparse solves.

type oracleConfig struct {
	n, communities int
	cacheMB        int64
	pool           int // distinct query sources
	rowPercent     int
	rate           float64
	setups         int
}

func oracleParams(tiny bool) oracleConfig {
	if tiny {
		return oracleConfig{n: 1024, communities: 8, cacheMB: 4, pool: 8, rowPercent: 10, rate: 100, setups: 1}
	}
	return oracleConfig{n: 8192, communities: 8, cacheMB: 64, pool: 512, rowPercent: 10, rate: oracleRate, setups: 15}
}

// oracleRate is fixed at about a third of the wall-clock closed-loop
// rate (loadgen.qps_wall) measured when the benchmark was defined, on a
// 2-core machine, below half of saturation for the reason given at
// coldRate.
const oracleRate = 170

// plantedProbs mirrors cmd/graphgen's planted defaults: about 90% of a
// vertex's expected edges stay inside its community.
func plantedProbs(n, k int, deg float64) (pin, pout float64) {
	size := float64(n) / float64(k)
	pin = min(0.9*deg/(size-1), 1)
	pout = min(0.1*deg/(float64(n)-size), 1)
	return pin, pout
}

func runOracle(r *run) error {
	cfg := oracleParams(r.tiny)
	heap := startHeapSampler(&r.logBytes)
	var setups, builds, buildWalls []float64
	var cur *servingSetup
	var oracle *hierarchy.Oracle
	for rep := 0; rep < cfg.setups; rep++ {
		if cur != nil {
			if err := cur.close(); err != nil {
				return err
			}
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		root := r.tr.begin("bench.setup", 0, 0)
		c0 := cpuNow()
		s := &servingSetup{}
		cur = s
		var err error
		pin, pout := plantedProbs(cfg.n, cfg.communities, avgDegree)
		genS, err := r.timed("graph.gen", root.ID, func() error {
			s.g, err = graph.PlantedPartitionConnected(cfg.n, cfg.communities, pin, pout, graph.IntegerWeights(maxWeight), repSeed(r.seed, rep))
			return err
		})
		if err != nil {
			return err
		}
		var buildS float64
		buildWall, err := r.timed("hierarchy.build", root.ID, func() error {
			b0 := cpuNow()
			oracle, err = hierarchy.Build(context.Background(), s.g, hierarchy.BuildOptions{CacheBytes: cfg.cacheMB << 20})
			buildS = cpuSince(b0)
			return err
		})
		if err != nil {
			return err
		}
		var bad *badEntry
		if r.corrupt {
			bad = corruptTarget(s.g, oraclePool(cfg, r.seed)[0])
		}
		eng, err := serve.NewWithOptions(r.source(oracle, "hierarchy", bad), s.g, serve.EngineOptions{})
		if err != nil {
			return err
		}
		oracle.RegisterMetrics(obs.Default)
		eng.RegisterMetrics(obs.Default)
		s.sw = serve.NewSwapper(serve.NewEpoch("", eng))
		if s.stack, err = r.startStack(s.sw, "oracle"); err != nil {
			return err
		}
		if err := s.stack.firstAnswer(); err != nil {
			return err
		}
		setups = append(setups, cpuSince(c0))
		r.tr.finish(root)
		builds = append(builds, buildS)
		buildWalls = append(buildWalls, buildWall)
		r.layer["graph.gen_s"] = genS
	}
	defer cur.close()
	r.e2e["setup_s"] = median(setups)
	r.e2e["solve_s"] = median(builds)
	st := oracle.Stats()
	r.layer["hierarchy.build_s"] = median(buildWalls)
	r.layer["hierarchy.boundary_frac"] = float64(st.BoundaryVerts) / float64(cfg.n)
	r.layer["hierarchy.parts"] = float64(st.Parts)
	r.layer["hierarchy.overlay_edges"] = float64(st.OverlayEdges)
	r.notef("setup: %d x (planted graph n=%d, hierarchy.Build) median %.3fs, build median %.3fs: %d parts, %d of %d vertices on the boundary, %d overlay edges",
		len(setups), cfg.n, r.e2e["setup_s"], r.e2e["solve_s"], st.Parts, st.BoundaryVerts, cfg.n, st.OverlayEdges)

	pool := oraclePool(cfg, r.seed)
	gen := func(p int, i int64) query {
		rr := newRNG(r.seed, uint64(p+1)<<40|uint64(i))
		q := query{kind: qDist, from: pool[rr.intn(len(pool))], to: rr.intn(cfg.n)}
		if rr.intn(100) < cfg.rowPercent {
			q.kind = qRow
		}
		return q
	}
	res := cur.stack.drive(r.servingPhases(cfg.rate), gen)
	r.e2e["peak_heap_mb"] = heap.Stop()
	cs := oracle.CacheStats()
	if cs.Hits+cs.Misses > 0 {
		r.layer["hierarchy.cache_hit_ratio"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}
	r.notef("oracle: local-row cache %d hit / %d miss", cs.Hits, cs.Misses)
	return r.verifySingleGraph(res, cur.g)
}

// repSeed is the graph seed of set-up rep: each set-up builds its own
// graph, so the set-up and build medians average over the variation of
// the hierarchy's shape between graphs; the last one is served.
func repSeed(seed int64, rep int) int64 { return seed + int64(rep)*0x9e3779b9 }

// oraclePool draws the query sources from the seed.
func oraclePool(cfg oracleConfig, seed int64) []int {
	rr := newRNG(seed, 0x0a11)
	seen := map[int]bool{}
	var pool []int
	for len(pool) < cfg.pool {
		v := rr.intn(cfg.n)
		if !seen[v] {
			seen[v] = true
			pool = append(pool, v)
		}
	}
	return pool
}

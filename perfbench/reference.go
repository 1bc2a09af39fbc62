package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"apspark/internal/graph"
)

// The correctness gate: every answer is compared with an independent
// host solve of the same graph. The reference is a plain Dijkstra with
// Dial's bucket queue written here, sharing no code with the program's
// solvers. Every workload uses integer weights, so every distance is an
// exact float64 sum and the comparison is bit-exact.

// maxRefWeight bounds the weights the reference accepts: Dial keeps one
// bucket per weight value.
const maxRefWeight = 1 << 16

// refGraph is an immutable adjacency view of a graph for the reference
// solver and the path checks.
type refGraph struct {
	n      int
	ptr    []int32
	to     []int32
	w      []float64
	sorted bool
	maxW   int // largest edge weight, at least 1
}

// newRefGraph builds the reference view of g. It panics unless every
// weight is an integer in [0, maxRefWeight): the workloads make only
// such graphs.
func newRefGraph(g *graph.Graph) *refGraph {
	ptr, to, w := g.CSR()
	rg := &refGraph{n: g.N, ptr: ptr, to: to, w: w, sorted: true, maxW: 1}
	for _, x := range w {
		if x < 0 || x >= maxRefWeight || x != math.Trunc(x) {
			panic(fmt.Sprintf("reference solver: edge weight %v is not an integer in [0, %d)", x, maxRefWeight))
		}
		rg.maxW = max(rg.maxW, int(x))
	}
	for u := 0; u < g.N && rg.sorted; u++ {
		for p := ptr[u] + 1; p < ptr[u+1]; p++ {
			if to[p-1] >= to[p] {
				rg.sorted = false
				break
			}
		}
	}
	return rg
}

// edge returns the weight of edge (u, v), ok=false when absent.
func (g *refGraph) edge(u, v int) (float64, bool) {
	lo, hi := int(g.ptr[u]), int(g.ptr[u+1])
	if g.sorted {
		k := lo + sort.Search(hi-lo, func(i int) bool { return int(g.to[lo+i]) >= v })
		if k < hi && int(g.to[k]) == v {
			return g.w[k], true
		}
		return 0, false
	}
	best, ok := math.Inf(1), false
	for k := lo; k < hi; k++ {
		if int(g.to[k]) == v && g.w[k] < best {
			best, ok = g.w[k], true
		}
	}
	return best, ok
}

// dijkstra fills row with the distances from src (+Inf when unreachable)
// over a circular array of maxW+1 buckets: every tentative distance lies
// within maxW of the current minimum. buckets is reused scratch (nil
// allocates); it is returned for reuse.
func (g *refGraph) dijkstra(src int, row []float64, buckets [][]int32) [][]int32 {
	for i := range row {
		row[i] = math.Inf(1)
	}
	row[src] = 0
	nb := g.maxW + 1
	if len(buckets) != nb {
		buckets = make([][]int32, nb)
	}
	buckets[0] = append(buckets[0], int32(src))
	pending := 1
	for d := 0; pending > 0; d++ {
		b := d % nb
		for len(buckets[b]) > 0 {
			last := len(buckets[b]) - 1
			u := buckets[b][last]
			buckets[b] = buckets[b][:last]
			pending--
			if row[u] != float64(d) {
				continue // stale entry
			}
			for p := g.ptr[u]; p < g.ptr[u+1]; p++ {
				v := g.to[p]
				nd := float64(d) + g.w[p]
				if nd < row[v] {
					row[v] = nd
					k := int(nd) % nb
					buckets[k] = append(buckets[k], v)
					pending++
				}
			}
		}
	}
	return buckets
}

// refRows computes reference rows for a set of sources with `workers`
// goroutines; the result maps source -> row.
func (g *refGraph) refRows(sources []int, workers int) map[int][]float64 {
	rows := make([][]float64, len(sources))
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buckets [][]int32
			for i := int(next.Add(1) - 1); i < len(sources); i = int(next.Add(1) - 1) {
				rows[i] = make([]float64, g.n)
				buckets = g.dijkstra(sources[i], rows[i], buckets)
			}
		}()
	}
	wg.Wait()
	out := make(map[int][]float64, len(sources))
	for i, s := range sources {
		out[s] = rows[i]
	}
	return out
}

// rowHash fingerprints a distance row bit-exactly (FNV-1a over the
// float64 bit patterns).
func rowHash(row []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range row {
		u := math.Float64bits(v)
		for i := 0; i < 64; i += 8 {
			h ^= (u >> i) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// sameRow reports whether two rows are bit-identical.
func sameRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// refKNN returns the k nearest reachable targets of from in the serving
// layer's documented order: distance ascending, vertex id breaking ties,
// from itself excluded.
func refKNN(row []float64, from, k int) []knnItem {
	var all []knnItem
	for v, d := range row {
		if v != from && !math.IsInf(d, 1) {
			all = append(all, knnItem{To: v, Dist: d})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].To < all[b].To
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

type knnItem struct {
	To   int
	Dist float64
}

// checkPath verifies a served path: it starts at from, ends at to, every
// hop is an edge of g, and the hop weights sum exactly to the reference
// distance (which the served distance must equal too).
func checkPath(g *refGraph, from, to int, dist float64, hops []int, want float64) error {
	if dist != want {
		return fmt.Errorf("path %d->%d: dist %v, want %v", from, to, dist, want)
	}
	if len(hops) == 0 || hops[0] != from || hops[len(hops)-1] != to {
		return fmt.Errorf("path %d->%d: hops %v do not run from %d to %d", from, to, short(hops), from, to)
	}
	var sum float64
	for i := 1; i < len(hops); i++ {
		w, ok := g.edge(hops[i-1], hops[i])
		if !ok {
			return fmt.Errorf("path %d->%d: hop %d-%d is not an edge", from, to, hops[i-1], hops[i])
		}
		sum += w
	}
	if sum != want {
		return fmt.Errorf("path %d->%d: hop weights sum to %v, want %v", from, to, sum, want)
	}
	return nil
}

func short(h []int) []int {
	if len(h) > 8 {
		return h[:8]
	}
	return h
}

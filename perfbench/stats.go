package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (q in [0, 1]),
// 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest percentile with at least ten samples
// beyond it, capped at want (with 1000 samples that is p99) and never
// below the median.
func tailQuantile(n int, want float64) float64 {
	q := float64(n-10) / float64(max(n, 1))
	return min(max(q, 0.5), want)
}

// rng is a splitmix64 stream: tiny, allocation-free and deterministic,
// so query i of a workload is the same whichever client sends it.
type rng uint64

func newRNG(seed int64, stream uint64) rng {
	r := rng(uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9)
	r.next()
	return r
}

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws vertex ids whose popularity follows a Zipf law of exponent
// s over a seeded permutation of the vertices, so the hot vertices are
// scattered over the id space (and the store's tiles) rather than
// clustered at id 0.
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(n int, s float64, seed int64) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: make([]int, n)}
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	r := newRNG(seed, 0x21bf)
	for i := range z.perm {
		z.perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		z.perm[i], z.perm[j] = z.perm[j], z.perm[i]
	}
	return z
}

func (z *zipf) draw(r *rng) int {
	u := r.float()
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.perm) {
		k = len(z.perm) - 1
	}
	return z.perm[k]
}

// hot returns the i-th most popular vertex.
func (z *zipf) hot(i int) int { return z.perm[i] }

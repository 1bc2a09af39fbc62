package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"apspark/internal/bench"
	"apspark/internal/costmodel"
	"apspark/internal/obs"
	"apspark/internal/serve"
)

// serveQueries measures the serving engine end to end: solve a graph
// once, persist it as a tiled store, then measure
//
//   - single-query latency of dist/row/knn/path with the caches sized
//     at an eighth of the dense matrix each;
//   - steady-state latency and allocs/op of row-cache-hit queries
//     (row cache large enough for every row, hot working set) — the
//     regime the amortize-the-solve workloads (Isomap, graph kernels)
//     live in, expected 0 allocs/op;
//   - concurrent-client throughput of a mixed workload;
//   - per-query cost through the /batch HTTP endpoint, JSON round-trip
//     included.
//
// Everything lands in BENCH.json as serve_query entries so serving-path
// regressions are as visible across PRs as kernel regressions.
func serveQueries(_ costmodel.KernelModel, quick bool, rep *report) error {
	n, bs := 2048, 256
	if quick {
		n, bs = 512, 64
	}
	dir, err := os.MkdirTemp("", "apsp-bench-serve-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fx, err := bench.BuildServeFixture(dir, n, bs, 42)
	if err != nil {
		return err
	}

	small := int64(n) * int64(n)     // dense matrix bytes / 8, the old store-target budget
	dense := 8 * int64(n) * int64(n) // everything fits

	add := func(name string, tileC, rowC int64, clients, batch int, r testing.BenchmarkResult, lat obs.Distribution) {
		perOp := r.NsPerOp()
		allocs := r.AllocsPerOp()
		p50, p99, p999 := lat.Quantile(0.5), lat.Quantile(0.99), lat.Quantile(0.999)
		if batch > 1 {
			perOp /= int64(batch)
			allocs /= int64(batch)
			// Percentiles are measured around the whole batched op; report
			// them per query like NsPerOp so entries stay comparable.
			p50 /= int64(batch)
			p99 /= int64(batch)
			p999 /= int64(batch)
		}
		qps := 0.0
		if perOp > 0 {
			qps = 1e9 / float64(perOp)
		}
		rep.ServeQuery = append(rep.ServeQuery, serveQueryResult{
			Query: name, N: n, BlockSize: bs,
			TileCacheBytes: tileC, RowCacheBytes: rowC,
			Clients: clients, Batch: batch,
			NsPerOp: perOp, AllocsPerOp: allocs, QPS: qps,
			P50Ns: p50, P99Ns: p99, P999Ns: p999,
		})
		fmt.Printf("  %-10s %10d ns/op %6d allocs/op %12.0f queries/sec  p50 %d p99 %d p999 %d ns\n",
			name, perOp, allocs, qps, p50, p99, p999)
	}
	// measure wraps each op with an obs histogram record; the returned
	// distribution covers the final (largest b.N) benchmark run, whose
	// per-op timings dominate the reported mean anyway.
	measure := func(query func() error) (testing.BenchmarkResult, obs.Distribution, error) {
		var failed error
		var lat obs.Distribution
		r := testing.Benchmark(func(b *testing.B) {
			h := obs.NewHistogram()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opStart := time.Now()
				err := query()
				h.RecordSince(opStart)
				if err != nil {
					failed = err
					// b.Fatal logs through machinery a detached
					// testing.Benchmark B does not have; FailNow just
					// unwinds.
					b.FailNow()
				}
			}
			b.StopTimer()
			lat = h.Snapshot()
		})
		return r, lat, failed
	}
	ctx := context.Background()

	// --- uniform-random single queries, store-target-comparable caches ---
	st, eng, err := fx.Open(small, small)
	if err != nil {
		return err
	}
	fmt.Printf("serve query throughput (n=%d b=%d, tile cache %.1f MiB + row cache %.1f MiB of %.1f MiB dense):\n",
		n, bs, float64(small)/(1<<20), float64(small)/(1<<20), float64(dense)/(1<<20))
	rng := rand.New(rand.NewSource(1))
	rowBuf := make([]float64, 0, n)
	knnBuf := make([]serve.Target, 0, 16)
	hopsBuf := make([]int, 0, 64)
	runSet := func(eng *serve.Engine, tileC, rowC int64, suffix string, pick func() int) error {
		r, lat, err := measure(func() error {
			_, err := eng.Dist(ctx, pick(), pick())
			return err
		})
		if err != nil {
			return err
		}
		add("dist"+suffix, tileC, rowC, 0, 0, r, lat)
		if r, lat, err = measure(func() error {
			var err error
			rowBuf, err = eng.RowInto(ctx, pick(), rowBuf)
			return err
		}); err != nil {
			return err
		}
		add("row"+suffix, tileC, rowC, 0, 0, r, lat)
		if r, lat, err = measure(func() error {
			var err error
			knnBuf, err = eng.KNNInto(ctx, pick(), 10, knnBuf)
			return err
		}); err != nil {
			return err
		}
		add("knn"+suffix, tileC, rowC, 0, 0, r, lat)
		if r, lat, err = measure(func() error {
			p, err := eng.PathInto(ctx, pick(), pick(), hopsBuf)
			if err == serve.ErrNoPath {
				err = nil // disconnected pair: still a served query
			}
			if p.Hops != nil {
				hopsBuf = p.Hops[:0]
			}
			return err
		}); err != nil {
			return err
		}
		add("path"+suffix, tileC, rowC, 0, 0, r, lat)
		return nil
	}
	if err := runSet(eng, small, small, "", func() int { return rng.Intn(n) }); err != nil {
		st.Close()
		return err
	}
	st.Close()

	// --- steady-state row-cache hits: hot working set, everything cached ---
	st2, eng2, err := fx.Open(small, dense)
	if err != nil {
		return err
	}
	defer st2.Close()
	hot := make([]int, 64)
	hrng := rand.New(rand.NewSource(2))
	for i := range hot {
		hot[i] = hrng.Intn(n)
	}
	for _, i := range hot { // pre-warm
		if rowBuf, err = eng2.RowInto(ctx, i, rowBuf); err != nil {
			return err
		}
	}
	fmt.Printf("steady-state row-cache hits (row cache %.1f MiB, hot set %d rows):\n",
		float64(dense)/(1<<20), len(hot))
	var cursor int
	if err := runSet(eng2, small, dense, "_hit", func() int {
		cursor++
		return hot[cursor%len(hot)]
	}); err != nil {
		return err
	}

	// --- concurrent clients, mixed workload ---
	const clients = 8
	fmt.Printf("concurrent mixed workload (%d clients):\n", clients)
	var (
		concMu  sync.Mutex
		concErr error
	)
	setConcErr := func(err error) {
		concMu.Lock()
		if concErr == nil {
			concErr = err
		}
		concMu.Unlock()
	}
	var concLat obs.Distribution
	rc := testing.Benchmark(func(b *testing.B) {
		// One shared lock-free histogram per run; every client records
		// into it concurrently, so the percentiles cover the real mixed
		// contention, not a single client in isolation.
		h := obs.NewHistogram()
		b.ReportAllocs()
		b.SetParallelism(clients)
		b.RunParallel(func(pb *testing.PB) {
			lrng := rand.New(rand.NewSource(3))
			lrow := make([]float64, 0, n)
			lknn := make([]serve.Target, 0, 16)
			lhops := make([]int, 0, 64)
			var it int
			for pb.Next() {
				it++
				i := hot[lrng.Intn(len(hot))]
				var err error
				opStart := time.Now()
				switch it % 4 {
				case 0:
					_, err = eng2.Dist(ctx, i, lrng.Intn(n))
				case 1:
					lrow, err = eng2.RowInto(ctx, i, lrow)
				case 2:
					lknn, err = eng2.KNNInto(ctx, i, 10, lknn)
				default:
					var p serve.Path
					p, err = eng2.PathInto(ctx, i, lrng.Intn(n), lhops)
					if err == serve.ErrNoPath {
						err = nil
					}
					if p.Hops != nil {
						lhops = p.Hops[:0]
					}
				}
				h.RecordSince(opStart)
				if err != nil {
					setConcErr(err)
					b.FailNow()
				}
			}
		})
		b.StopTimer()
		concLat = h.Snapshot()
	})
	if concErr != nil {
		return concErr
	}
	add("mixed_conc", small, dense, clients, 0, rc, concLat)

	// --- /batch HTTP endpoint: many queries per JSON round-trip ---
	srv := httptest.NewServer(serve.Handler(eng2))
	defer srv.Close()
	brng := rand.New(rand.NewSource(4))
	var breq serve.BatchRequest
	for i := 0; i < 48; i++ {
		breq.Dist = append(breq.Dist, serve.PairQuery{From: brng.Intn(n), To: brng.Intn(n)})
	}
	for i := 0; i < 8; i++ {
		breq.KNN = append(breq.KNN, serve.KNNQuery{From: brng.Intn(n), K: 10})
	}
	for i := 0; i < 8; i++ {
		breq.Path = append(breq.Path, serve.PairQuery{From: hot[i], To: brng.Intn(n)})
	}
	batchN := len(breq.Dist) + len(breq.KNN) + len(breq.Path)
	body, err := json.Marshal(&breq)
	if err != nil {
		return err
	}
	client := srv.Client()
	fmt.Printf("/batch endpoint (%d queries per request):\n", batchN)
	rb, blat, err := measure(func() error {
		resp, err := client.Post(srv.URL+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("batch: status %d", resp.StatusCode)
		}
		return nil
	})
	if err != nil {
		return err
	}
	add("batch_http", small, dense, 1, batchN, rb, blat)
	return nil
}

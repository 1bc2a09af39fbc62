// Command apsp-bench regenerates the paper's tables and figures on the
// virtual cluster.
//
// Usage:
//
//	apsp-bench fig2              # Figure 2: kernel time vs block size
//	apsp-bench fig3              # Figure 3: IM/CB sweep + partition census
//	apsp-bench table2            # Table 2: block size / partitioner sweep
//	apsp-bench table3            # Table 3 + Figure 5: weak scaling
//	apsp-bench kernels           # fused vs unfused min-plus microbenchmarks
//	apsp-bench serve             # serving-engine throughput (single, hot, concurrent, batch)
//	apsp-bench sparse            # host-native CSR Dijkstra vs dense Blocked-CB
//	apsp-bench hierarchy         # partition+shortcut hierarchy: build cost + on-demand query latency
//	apsp-bench churn             # serving QPS + p99 + staleness under live delta ingestion
//	apsp-bench codec             # store tile codecs: on-disk density vs cold-read latency
//	apsp-bench all               # everything
//
// Flags scale the experiments down for quick runs (-quick) or swap in a
// live-calibrated kernel model (-calibrate). Unless -json is set to "",
// a run that produced measurements also updates a machine-readable
// BENCH.json with the host kernel microbenchmarks (wall ns/op,
// allocs/op), the virtual seconds of each regenerated experiment, and the
// serving-layer throughput numbers, so the performance trajectory can be
// tracked across PRs. The update is a section-level merge: only the
// sections the selected target produced are replaced, everything else in
// an existing BENCH.json is preserved, so refreshing one target never
// clobbers the others.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"apspark/internal/bench"
	"apspark/internal/costmodel"
	"apspark/internal/matrix"
)

// kernelResult is one host microbenchmark line in BENCH.json.
type kernelResult struct {
	Name        string `json:"name"`
	BlockSize   int    `json:"block_size"`
	Quick       bool   `json:"quick,omitempty"`
	GoMaxProcs  int    `json:"gomaxprocs,omitempty"`
	CPUs        int    `json:"cpus,omitempty"`
	Workers     int    `json:"workers,omitempty"`
	NsPerOp     int64  `json:"wall_ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

// experimentResult is one virtual-cluster measurement in BENCH.json.
type experimentResult struct {
	Experiment string  `json:"experiment"`
	Label      string  `json:"label"`
	Quick      bool    `json:"quick,omitempty"`
	GoMaxProcs int     `json:"gomaxprocs,omitempty"`
	CPUs       int     `json:"cpus,omitempty"`
	VirtualSec float64 `json:"virtual_sec"`
}

// serveQueryResult is one serving-engine measurement: single-query
// latency, steady-state row-cache-hit latency + allocs, concurrent-client
// throughput, or per-query cost through the /batch HTTP endpoint.
type serveQueryResult struct {
	Query          string  `json:"query"`
	N              int     `json:"n"`
	Quick          bool    `json:"quick,omitempty"`
	GoMaxProcs     int     `json:"gomaxprocs,omitempty"`
	CPUs           int     `json:"cpus,omitempty"`
	BlockSize      int     `json:"block_size"`
	TileCacheBytes int64   `json:"tile_cache_bytes"`
	RowCacheBytes  int64   `json:"row_cache_bytes"`
	Clients        int     `json:"clients,omitempty"`
	Batch          int     `json:"batch,omitempty"`
	NsPerOp        int64   `json:"wall_ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	QPS            float64 `json:"queries_per_sec"`
	// Latency percentiles over the individual operations of the final
	// (largest b.N) benchmark run, from an obs histogram recorded around
	// each op; for batch entries they are divided by the batch size, like
	// NsPerOp. The mean (NsPerOp) hides tail stalls — a row-cache miss
	// storm or a GC pause shows up here first.
	P50Ns  int64 `json:"p50_ns,omitempty"`
	P99Ns  int64 `json:"p99_ns,omitempty"`
	P999Ns int64 `json:"p999_ns,omitempty"`
}

// report aggregates everything a run produced.
type report struct {
	GoMaxProcs  int                 `json:"gomaxprocs"`
	Quick       bool                `json:"quick"`
	Kernels     []kernelResult      `json:"kernels,omitempty"`
	Experiments []experimentResult  `json:"experiments,omitempty"`
	ServeQuery  []serveQueryResult  `json:"serve_query,omitempty"`
	SparseSolve []sparseSolveResult `json:"sparse_solve,omitempty"`
	Hierarchy   []hierarchyResult   `json:"hierarchy,omitempty"`
	Churn       []churnResult       `json:"churn,omitempty"`
	Codec       []codecResult       `json:"codec,omitempty"`
}

func main() {
	quick := flag.Bool("quick", false, "scaled-down configurations (seconds instead of minutes)")
	calibrate := flag.Bool("calibrate", false, "calibrate the kernel model on this machine first")
	jsonPath := flag.String("json", "BENCH.json", "write a machine-readable report here (empty to disable)")
	flag.Parse()

	model := costmodel.PaperKernels()
	if *calibrate {
		model = costmodel.Calibrate(256)
		fmt.Printf("calibrated kernel model: FW %.2f Gops, min-plus %.2f Gops\n\n",
			model.FWRateIn/1e9, model.MPRateIn/1e9)
	}

	rep := &report{GoMaxProcs: runtime.GOMAXPROCS(0), Quick: *quick}

	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}
	run := func(name string, f func(costmodel.KernelModel, bool, *report) error) {
		if what != "all" && what != name {
			return
		}
		if err := f(model, *quick, rep); err != nil {
			fmt.Fprintf(os.Stderr, "apsp-bench %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	run("fig2", fig2)
	run("fig3", fig3)
	run("table2", table2)
	run("table3", table3)
	run("kernels", kernels)
	run("serve", serveQueries)
	run("sparse", sparseSolve)
	run("hierarchy", hierarchySolve)
	run("churn", churnBench)
	run("codec", codecBench)
	switch what {
	case "all", "fig2", "fig3", "table2", "table3", "kernels", "serve", "sparse", "hierarchy", "churn", "codec":
	default:
		fmt.Fprintf(os.Stderr, "apsp-bench: unknown target %q (want fig2|fig3|table2|table3|kernels|serve|sparse|hierarchy|churn|codec|all)\n", what)
		os.Exit(2)
	}

	// Every entry carries its own quick/gomaxprocs/cpus stamp: the merged
	// report mixes sections from different runs (and potentially different
	// machines or -cpu settings), so file-global flags cannot label them
	// truthfully.
	cpus := runtime.NumCPU()
	for i := range rep.Kernels {
		rep.Kernels[i].Quick = rep.Quick
		rep.Kernels[i].GoMaxProcs, rep.Kernels[i].CPUs = rep.GoMaxProcs, cpus
	}
	for i := range rep.Experiments {
		rep.Experiments[i].Quick = rep.Quick
		rep.Experiments[i].GoMaxProcs, rep.Experiments[i].CPUs = rep.GoMaxProcs, cpus
	}
	for i := range rep.ServeQuery {
		rep.ServeQuery[i].Quick = rep.Quick
		rep.ServeQuery[i].GoMaxProcs, rep.ServeQuery[i].CPUs = rep.GoMaxProcs, cpus
	}
	for i := range rep.SparseSolve {
		rep.SparseSolve[i].Quick = rep.Quick
		rep.SparseSolve[i].GoMaxProcs, rep.SparseSolve[i].CPUs = rep.GoMaxProcs, cpus
	}
	for i := range rep.Hierarchy {
		rep.Hierarchy[i].Quick = rep.Quick
		rep.Hierarchy[i].GoMaxProcs, rep.Hierarchy[i].CPUs = rep.GoMaxProcs, cpus
	}
	for i := range rep.Churn {
		rep.Churn[i].Quick = rep.Quick
		rep.Churn[i].GoMaxProcs, rep.Churn[i].CPUs = rep.GoMaxProcs, cpus
	}
	for i := range rep.Codec {
		rep.Codec[i].Quick = rep.Quick
		rep.Codec[i].GoMaxProcs, rep.Codec[i].CPUs = rep.GoMaxProcs, cpus
	}
	if *jsonPath != "" && (len(rep.Kernels) > 0 || len(rep.Experiments) > 0 || len(rep.ServeQuery) > 0 || len(rep.SparseSolve) > 0 || len(rep.Hierarchy) > 0 || len(rep.Churn) > 0 || len(rep.Codec) > 0) {
		if err := writeReport(*jsonPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "apsp-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// writeReport merge-updates the JSON report at path: only the sections
// this run produced are replaced; sections written by earlier runs of
// other targets survive. (A whole-file overwrite silently discarded e.g.
// the kernels section every time another target was refreshed.)
func writeReport(path string, rep *report) error {
	sections := map[string]json.RawMessage{}
	if old, err := os.ReadFile(path); err == nil {
		// Best-effort: a corrupt or foreign file starts the report over.
		_ = json.Unmarshal(old, &sections)
	}
	put := func(key string, v any) error {
		buf, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("marshal report section %s: %w", key, err)
		}
		sections[key] = buf
		return nil
	}
	if err := put("gomaxprocs", rep.GoMaxProcs); err != nil {
		return err
	}
	// No file-global quick flag: the merged report mixes sections from
	// different runs, so quick-ness lives on each entry instead (a stale
	// key from an older format is dropped).
	delete(sections, "quick")
	if len(rep.Kernels) > 0 {
		if err := put("kernels", rep.Kernels); err != nil {
			return err
		}
	}
	if len(rep.Experiments) > 0 {
		if err := put("experiments", rep.Experiments); err != nil {
			return err
		}
	}
	if len(rep.ServeQuery) > 0 {
		if err := put("serve_query", rep.ServeQuery); err != nil {
			return err
		}
	}
	if len(rep.SparseSolve) > 0 {
		if err := put("sparse_solve", rep.SparseSolve); err != nil {
			return err
		}
	}
	if len(rep.Hierarchy) > 0 {
		if err := put("hierarchy", rep.Hierarchy); err != nil {
			return err
		}
	}
	if len(rep.Churn) > 0 {
		if err := put("churn", rep.Churn); err != nil {
			return err
		}
	}
	if len(rep.Codec) > 0 {
		if err := put("codec", rep.Codec); err != nil {
			return err
		}
	}
	buf, err := json.MarshalIndent(sections, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal report: %w", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func fig2(model costmodel.KernelModel, quick bool, _ *report) error {
	cfg := bench.Fig2Config{Model: model, Measure: true}
	if quick {
		cfg.Sizes = []int{256, 512, 1024, 2048, 4096}
		cfg.MeasureCap = 256
	}
	fmt.Println(bench.Figure2Table(bench.Figure2(cfg)))
	return nil
}

func fig3(model costmodel.KernelModel, quick bool, rep *report) error {
	cfg := bench.Fig3Config{Model: model}
	if quick {
		cfg.N = 32768
		cfg.BlockSizes = []int{512, 1024, 2048}
		cfg.MaxUnits = 4
	}
	pts, err := bench.Figure3(cfg)
	if err != nil {
		return err
	}
	fmt.Println(bench.Figure3Table(pts))
	for _, p := range pts {
		rep.Experiments = append(rep.Experiments, experimentResult{
			Experiment: "fig3",
			Label:      fmt.Sprintf("%s b=%d", p.Solver, p.BlockSize),
			VirtualSec: p.Seconds,
		})
	}

	n, sizes := 131072, []int(nil)
	if quick {
		n, sizes = 32768, []int{512, 1024, 2048}
	}
	census, err := bench.Figure3Partitions(n, 1024, 2, sizes)
	if err != nil {
		return err
	}
	fmt.Println(bench.Figure3PartitionsTable(census))
	return nil
}

func table2(model costmodel.KernelModel, quick bool, rep *report) error {
	cfg := bench.Table2Config{Model: model}
	if quick {
		cfg.N = 32768
		cfg.BlockSizes = []int{256, 512, 1024}
		cfg.UnitsToRun = 2
	}
	rows, err := bench.Table2(cfg)
	if err != nil {
		return err
	}
	fmt.Println(bench.Table2Table(rows))
	for _, r := range rows {
		if r.Err != "" {
			continue
		}
		rep.Experiments = append(rep.Experiments, experimentResult{
			Experiment: "table2",
			Label:      fmt.Sprintf("%s b=%d %s", r.Solver, r.BlockSize, r.Partitioner),
			VirtualSec: r.SingleSec,
		})
	}
	return nil
}

func table3(model costmodel.KernelModel, quick bool, rep *report) error {
	cfg := bench.Table3Config{Model: model}
	if quick {
		cfg.Ps = []int{64, 256}
		cfg.MPIPs = []int{64, 256}
		cfg.MaxUnits = 4
	}
	rows, err := bench.Table3(cfg)
	if err != nil {
		return err
	}
	fmt.Println(bench.Table3Table(rows, model, cfg.VerticesPerCore))
	for _, r := range rows {
		if r.Failed {
			continue
		}
		rep.Experiments = append(rep.Experiments, experimentResult{
			Experiment: "table3",
			Label:      fmt.Sprintf("%s p=%d", r.Method, r.P),
			VirtualSec: r.Seconds,
		})
	}
	return nil
}

// kernels measures the host-side min-plus kernel family: the original
// unfused product + MatMin pipeline, the fused allocation-free MinPlusInto
// path, and the intra-kernel parallel variant at GOMAXPROCS. Operands and
// measured steps are the shared harness in internal/bench, so these
// numbers track exactly what `go test -bench Kernel` measures.
func kernels(_ costmodel.KernelModel, quick bool, rep *report) error {
	sizes := bench.KernelBlockSizes
	if quick {
		sizes = sizes[:1]
	}
	workers := runtime.GOMAXPROCS(0)
	fmt.Println("host min-plus kernels (wall clock, this machine):")
	for _, n := range sizes {
		x, y, d := bench.KernelOperands(n)
		dst := matrix.Get(n, n)

		measure := func(step func() error) testing.BenchmarkResult {
			return testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := step(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		unfused := measure(func() error { return bench.KernelUnfusedStep(x, y, d) })
		fused := measure(func() error { return bench.KernelFusedStep(x, y, d, dst) })
		par := measure(func() error { return bench.KernelFusedParStep(x, y, d, dst, workers) })

		for _, kr := range []kernelResult{
			{Name: "minplus_unfused", BlockSize: n, NsPerOp: unfused.NsPerOp(), AllocsPerOp: unfused.AllocsPerOp(), BytesPerOp: unfused.AllocedBytesPerOp()},
			{Name: "minplus_fused", BlockSize: n, NsPerOp: fused.NsPerOp(), AllocsPerOp: fused.AllocsPerOp(), BytesPerOp: fused.AllocedBytesPerOp()},
			{Name: "minplus_fused_parallel", BlockSize: n, Workers: workers, NsPerOp: par.NsPerOp(), AllocsPerOp: par.AllocsPerOp(), BytesPerOp: par.AllocedBytesPerOp()},
		} {
			rep.Kernels = append(rep.Kernels, kr)
			fmt.Printf("  %-24s b=%-5d %12d ns/op %6d allocs/op\n", kr.Name, kr.BlockSize, kr.NsPerOp, kr.AllocsPerOp)
		}
		if f, u := fused.NsPerOp(), unfused.NsPerOp(); f > 0 {
			fmt.Printf("  fused speedup at b=%d: %.2fx\n", n, float64(u)/float64(f))
		}
		matrix.Put(dst)
	}
	return nil
}

// Command perfbench is the repository's end-to-end benchmark: it takes a
// workload seed, builds the workload's inputs from it, drives the system
// from graph to served answer, checks every answer against an independent
// host solve, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics from spans recorded around calls into each module).
//
// Run it through the wrapper, which builds it inside the checkout:
//
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --selftest
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory
// documents the workloads, the metric definitions and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run, reported on every
// workload (README.md gives each one's definition per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"qps_sat", "1/s"},
	{"peak_heap_mb", "MiB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0 there.
var perLayer = []metricDef{
	{"graph.gen_s", "s"},
	{"matrix.minplus_gops", "Gop/s"},
	{"matrix.minplus_ops_per_call", "op"},
	{"matrix.minplus_bytes_per_call", "B"},
	{"rdd.shuffle_stage_s", "s"},
	{"rdd.other_stage_s", "s"},
	{"sim.alloc_gb", "GB"},
	{"sim.gc_cycles", "count"},
	{"rdd.stages", "count"},
	{"rdd.tasks", "count"},
	{"cluster.shuffle_bytes", "B"},
	{"cluster.shared_rw_bytes", "B"},
	{"sparse.solve_s", "s"},
	{"sparse.rows_per_s", "1/s"},
	{"store.panel_write_s", "s"},
	{"store.bytes_per_entry", "B"},
	{"store.file_mb", "MiB"},
	{"store.open_ms", "ms"},
	{"store.read_p50_us", "us"},
	{"store.read_p99_us", "us"},
	{"store.decode_p50_us", "us"},
	{"store.decode_count", "count"},
	{"store.tile_hit_ratio", "ratio"},
	{"store.row_hit_ratio", "ratio"},
	{"store.coalesced", "count"},
	{"store.span_reads", "count"},
	{"serve.handler_p50_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"serve.self_p50_us", "us"},
	{"serve.wire_p50_us", "us"},
	{"serve.rejected", "count"},
	{"serve.swap_ms", "ms"},
	{"generation.apply_ms", "ms"},
	{"generation.build_ms", "ms"},
	{"generation.validate_ms", "ms"},
	{"generation.dirty_rows", "count"},
	{"generation.dirty_panels", "count"},
	{"generation.dirty_precision", "ratio"},
	{"generation.staleness_p50_ms", "ms"},
	{"generation.staleness_tail_ms", "ms"},
	{"hierarchy.build_s", "s"},
	{"hierarchy.boundary_frac", "ratio"},
	{"hierarchy.parts", "count"},
	{"hierarchy.overlay_edges", "count"},
	{"hierarchy.dist_p50_ms", "ms"},
	{"hierarchy.row_p50_ms", "ms"},
	{"hierarchy.cache_hit_ratio", "ratio"},
	{"loadgen.query_p50_ms", "ms"},
	{"loadgen.query_p95_ms", "ms"},
	{"loadgen.query_p99_ms", "ms"},
	{"loadgen.qps_wall", "1/s"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.failed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"paper-sim":   runPaperSim,
	"serve-cold":  runServeCold,
	"serve-churn": runServeChurn,
	"oracle":      runOracle,
}

// run is the state of one benchmark invocation.
type run struct {
	work     string // scratch directory for stores, removed at exit
	workload string
	seed     int64
	seconds  float64
	nproc    int
	tiny     bool    // self-test scale
	corrupt  bool    // self-test: serve through a Source that corrupts one distance
	tr       *tracer // nil when untraced
	e2e      map[string]float64
	layer    map[string]float64
	report   []string // human-readable lines printed before the result

	attempted atomic.Int64
	failed    atomic.Int64
	logBytes  atomic.Int64 // bytes held by the load generator's answer log

	mu     sync.Mutex
	wrong  []string // first few wrong-answer or pin diagnostics
	nWrong int
}

// wrongf records a wrong answer or a broken pin: it counts as failed
// and makes the run incorrect.
func (r *run) wrongf(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nWrong++
	if len(r.wrong) < 8 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

func (r *run) wrongCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nWrong
}

func (r *run) notef(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// outcome is the result line the benchmark prints last.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		root     = flag.String("root", ".", "root of the apspark checkout")
		workload = flag.String("workload", "", "workload: paper-sim | serve-cold | serve-churn | oracle, or all to run each in turn")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "how long the measured phase runs")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		selftest = flag.Bool("selftest", false, "run the tiny-scale self-test: a clean run must pass and a corrupted Source must fail")
		pins     = flag.Bool("record-pins", false, "paper-sim: print the pin file for the current simulator instead of checking it")
	)
	flag.Parse()
	if err := checkCatalogue(*root); err != nil {
		fatal(err)
	}
	if *selftest {
		if err := selfTest(*root); err != nil {
			fatal(err)
		}
		fmt.Println("selftest: ok")
		return
	}
	if *pins {
		if err := recordPins(); err != nil {
			fatal(err)
		}
		return
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	} else if _, ok := workloads[*workload]; !ok {
		fatal(fmt.Errorf("unknown -workload %q (want all or one of %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	correct := true
	for _, w := range names {
		out, err := execute(*root, w, *seed, float64(*seconds), *trace == 1, false, false)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(out)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		correct = correct && out.Correct
	}
	if !correct {
		// The result is printed; the exit status flags the wrong answers
		// or moved pins it reports.
		os.Exit(3)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs one workload and assembles its result line. With traced
// set, the workload first runs untraced (for trace.overhead_frac) and
// then traced.
func execute(root, workload string, seed int64, seconds float64, traced, tiny, corrupt bool) (*outcome, error) {
	env := environment(root, workload, seed, traced)
	envLine, _ := json.Marshal(env)
	fmt.Printf("perfbench env %s\n", envLine)

	var base *run
	if traced {
		r, err := runOnce(root, workload, seed, seconds, false, tiny, corrupt)
		if err != nil {
			return nil, err
		}
		base = r
	}
	r, err := runOnce(root, workload, seed, seconds, traced, tiny, corrupt)
	if err != nil {
		return nil, err
	}
	if base != nil {
		r.layer["trace.overhead_frac"] = overheadFrac(base.e2e, r.e2e)
		r.tr.analyze(r)
		if err := r.tr.dump(filepath.Join(root, ".bench_work", "trace"), workload, seed); err != nil {
			return nil, err
		}
	}

	for _, l := range r.report {
		fmt.Println(l)
	}
	defs := endToEnd
	vals := r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	out := &outcome{
		Correct:   r.wrongCount() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	if base != nil {
		out.Correct = out.Correct && base.wrongCount() == 0
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			if !traced {
				return nil, fmt.Errorf("workload %s did not measure end-to-end metric %s", workload, d.Name)
			}
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("metric %-30s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for _, w := range r.wrong {
		fmt.Printf("WRONG: %s\n", w)
	}
	if out.Attempted < 1 {
		return nil, errors.New("workload attempted nothing")
	}
	if err := saveResult(root, env, out); err != nil {
		return nil, err
	}
	return out, nil
}

// runOnce sets up and measures one workload in a fresh scratch directory.
func runOnce(root, workload string, seed int64, seconds float64, traced, tiny, corrupt bool) (*run, error) {
	base := filepath.Join(root, ".bench_work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, workload+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	r := &run{
		work: work, workload: workload, seed: seed, seconds: seconds,
		nproc: runtime.NumCPU(), tiny: tiny, corrupt: corrupt,
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	if r.nproc > runtime.GOMAXPROCS(0) {
		r.nproc = runtime.GOMAXPROCS(0)
	}
	if traced {
		r.tr = newTracer()
	}
	if err := workloads[workload](r); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return r, nil
}

// overheadFrac compares the time metrics of the traced pass with those of
// the untraced pass run just before it: the mean relative slow-down over
// setup_s, solve_s and 1/qps_sat.
func overheadFrac(base, traced map[string]float64) float64 {
	var sum float64
	var n int
	for _, k := range []string{"setup_s", "solve_s"} {
		if base[k] > 0 && traced[k] > 0 {
			sum += traced[k]/base[k] - 1
			n++
		}
	}
	if base["qps_sat"] > 0 && traced["qps_sat"] > 0 {
		sum += base["qps_sat"]/traced["qps_sat"] - 1
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// checkCatalogue fails when BENCHMARK.json names a metric or workload this
// program does not produce, or gives it another unit: the file and the
// program must describe the same benchmark.
func checkCatalogue(root string) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fmt.Errorf("read BENCHMARK.json: %w", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return fmt.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
	same := func(kind string, file []struct{ Name, Unit string }, prog []metricDef) error {
		if len(file) != len(prog) {
			return fmt.Errorf("BENCHMARK.json lists %d %s metrics, perfbench reports %d", len(file), kind, len(prog))
		}
		for i, m := range file {
			if m.Name != prog[i].Name || m.Unit != prog[i].Unit {
				return fmt.Errorf("BENCHMARK.json %s metric %d is %s [%s], perfbench reports %s [%s]", kind, i, m.Name, m.Unit, prog[i].Name, prog[i].Unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", spec.EndToEnd, endToEnd); err != nil {
		return err
	}
	return same("per_layer", spec.PerLayer, perLayer)
}

// saveResult keeps each result with its environment record under
// .bench_work/results, one file per workload, seed and mode.
func saveResult(root string, env map[string]any, out *outcome) error {
	dir := filepath.Join(root, ".bench_work", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{"env": env, "result": out}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", env["workload"], env["seed"], env["traced"])
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// sinceS returns the seconds elapsed since t0.
func sinceS(t0 time.Time) float64 { return time.Since(t0).Seconds() }

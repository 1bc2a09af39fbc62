package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"apspark"
	"apspark/internal/cluster"
	"apspark/internal/graph"
	"apspark/internal/matrix"
)

// paper-sim: the paper's experiment on the virtual cluster. Each cycle
// runs real-data solves of paper Erdős–Rényi graphs (integer weights)
// with all four solvers, each verified against the reference, then
// phantom Blocked-IM and Blocked-CB projections in the shuffle-dominated
// regime. The real solves (kernel-heavy) give solve_s; the projections
// (kernel-free, shuffle-heavy) are this workload's queries: each answers
// "how long would this job take on the paper's cluster?". Every job's
// virtual seconds and cluster counters are pinned in pins.json (see
// checkPin).

type paperJob struct {
	Name    string `json:"name"`
	Solver  string `json:"solver"`
	N       int    `json:"n"`
	Block   int    `json:"b"`
	Cores   int    `json:"cores"`
	Phantom bool   `json:"phantom"`
}

// paperReal are the real-data solves of one cycle.
var paperReal = []paperJob{
	{Solver: "rs", N: 256, Block: 32, Cores: 32},
	{Solver: "fw2d", N: 256, Block: 32, Cores: 32},
	{Solver: "im", N: 768, Block: 96, Cores: 64},
	{Solver: "cb", N: 768, Block: 96, Cores: 64},
}

// paperProjections are the phantom projections of one cycle.
var paperProjections = []paperJob{
	{Solver: "im", N: 8192, Block: 512, Cores: 128, Phantom: true},
	{Solver: "cb", N: 16384, Block: 512, Cores: 128, Phantom: true},
	{Solver: "cb", N: 32768, Block: 1024, Cores: 128, Phantom: true},
}

func init() {
	for _, set := range [][]paperJob{paperReal, paperProjections} {
		for i := range set {
			j := &set[i]
			kind := "real"
			if j.Phantom {
				kind = "phantom"
			}
			j.Name = fmt.Sprintf("%s/%s/n%d/b%d/p%d", kind, j.Solver, j.N, j.Block, j.Cores)
		}
	}
}

// pin is what a job must reproduce on every run (see checkPin).
type pin struct {
	VirtualSeconds   float64         `json:"virtual_seconds"`
	ProjectedSeconds float64         `json:"projected_seconds"`
	Metrics          cluster.Metrics `json:"metrics"`
}

//go:embed pins.json
var pinsJSON []byte

func loadPins() (map[string]pin, error) {
	var pins map[string]pin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("parse pins.json: %w", err)
	}
	return pins, nil
}

// paperGraph is the real-data input of a job: the paper's G(n, p) family
// with p = 1.1 ln(n)/n and integer weights.
func paperGraph(j paperJob, seed int64) (*graph.Graph, error) {
	return graph.ErdosRenyiWeighted(j.N, graph.ErdosRenyiPaperProb(j.N), graph.IntegerWeights(maxWeight), seed+int64(j.N))
}

// jobTrace collects the per-layer view of a job in traced runs.
type jobTrace struct {
	shuffleS, otherS float64
	allocB, gcs      uint64
}

// runJob runs one job; in traced runs it splits the job's wall time at
// the RDD context's stage events into shuffle (partitionBy.*) and other
// stages, recorded as spans under parent.
func (r *run) runJob(j paperJob, g *graph.Graph, parent int64, jt *jobTrace) (*apspark.Result, error) {
	s, err := apspark.New(apspark.WithClusterCores(j.Cores), apspark.WithSolver(apspark.SolverKind(j.Solver)))
	if err != nil {
		return nil, err
	}
	opts := []apspark.SolveOption{apspark.WithBlockSize(j.Block)}
	var ms0 runtime.MemStats
	last := time.Now()
	if r.tr != nil {
		runtime.ReadMemStats(&ms0)
		opts = append(opts, apspark.WithProgress(func(ev apspark.StageEvent) {
			now := time.Now()
			name := "rdd.other_stage"
			if strings.HasPrefix(ev.Name, "partitionBy") {
				name = "rdd.shuffle_stage"
				jt.shuffleS += now.Sub(last).Seconds()
			} else {
				jt.otherS += now.Sub(last).Seconds()
			}
			r.tr.add(name, parent, last, now)
			last = now
		}))
	}
	var res *apspark.Result
	if j.Phantom {
		res, err = s.Project(context.Background(), j.N, opts...)
	} else {
		res, err = s.Solve(context.Background(), g, opts...)
	}
	if r.tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		jt.allocB += ms1.TotalAlloc - ms0.TotalAlloc
		jt.gcs += uint64(ms1.NumGC - ms0.NumGC)
	}
	return res, err
}

// pinTolerance bounds the virtual-time drift of a job run with several
// host workers: the simulator's RS and CB virtual clocks depend on the
// order in which host goroutines finish tasks (a few parts in 1e4 at
// these sizes), so only a one-worker replay is bit-reproducible.
const pinTolerance = 1e-3

// checkPin compares a job's result with its pin: the cluster counters
// bit-exactly, and the virtual and projected seconds bit-exactly when
// exact is set (the one-worker replay), else within pinTolerance.
func (r *run) checkPin(pins map[string]pin, j paperJob, res *apspark.Result, exact bool) {
	want, ok := pins[j.Name]
	if !ok {
		r.wrongf("pin: job %s has no pin in pins.json", j.Name)
		return
	}
	got := pin{VirtualSeconds: res.VirtualSeconds, ProjectedSeconds: res.ProjectedSeconds, Metrics: res.Metrics}
	near := func(a, b float64) bool { return math.Abs(a-b) <= pinTolerance*math.Abs(b) }
	switch {
	case exact && got != want:
		r.wrongf("pin: one-worker replay of %s moved: got %+v, want %+v", j.Name, got, want)
	case got.Metrics != want.Metrics:
		r.wrongf("pin: job %s cluster counters moved: got %+v, want %+v", j.Name, got.Metrics, want.Metrics)
	case !near(got.VirtualSeconds, want.VirtualSeconds) || !near(got.ProjectedSeconds, want.ProjectedSeconds):
		r.wrongf("pin: job %s virtual time moved: got %v/%v, want %v/%v", j.Name,
			got.VirtualSeconds, got.ProjectedSeconds, want.VirtualSeconds, want.ProjectedSeconds)
	}
}

// replayPins re-runs every job of the cycle with one host worker, where
// the simulator is deterministic, and checks each against its pin bit
// for bit. It runs after the measured phase.
func (r *run) replayPins(pins map[string]pin, jobs []paperJob, graphs map[string]*graph.Graph) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	saved := r.tr
	r.tr = nil
	defer func() { r.tr = saved }()
	for _, j := range jobs {
		res, err := r.runJob(j, graphs[j.Name], 0, &jobTrace{})
		if err != nil {
			return fmt.Errorf("replay %s: %w", j.Name, err)
		}
		r.checkPin(pins, j, res, true)
	}
	return nil
}

func runPaperSim(r *run) error {
	pins, err := loadPins()
	if err != nil {
		return err
	}
	real, proj := paperReal, paperProjections
	if r.tiny {
		real = real[:1]
		proj = proj[1:2]
	}
	heap := startHeapSampler(&r.logBytes)

	// Set-up: the paper graphs, then the first real-data answer (a CB
	// solve), seven times.
	var setups []float64
	graphs := map[string]*graph.Graph{}
	first := paperReal[len(paperReal)-1]
	for rep := 0; rep < 7; rep++ {
		runtime.GC() // the previous set-up's garbage is not this one's cost
		root := r.tr.begin("bench.setup", 0, 0)
		c0 := cpuNow()
		genS, err := r.timed("graph.gen", root.ID, func() error {
			for _, j := range real {
				g, err := paperGraph(j, r.seed)
				if err != nil {
					return err
				}
				graphs[j.Name] = g
			}
			if _, ok := graphs[first.Name]; !ok {
				g, err := paperGraph(first, r.seed)
				graphs[first.Name] = g
				return err
			}
			return nil
		})
		if err != nil {
			return err
		}
		var jt jobTrace
		res, err := r.runJob(first, graphs[first.Name], root.ID, &jt)
		if err != nil {
			return fmt.Errorf("%s: %w", first.Name, err)
		}
		setups = append(setups, cpuSince(c0))
		r.tr.finish(root)
		r.layer["graph.gen_s"] = genS
		r.attempted.Add(1)
		r.checkPin(pins, first, res, false)
		if err := r.checkDist(first, graphs[first.Name], res); err != nil {
			return err
		}
	}
	r.e2e["setup_s"] = median(setups)

	// Measured cycles: whole cycles until the run's seconds are spent.
	type done struct {
		job  paperJob
		hash uint64
	}
	var solves, cycleProj, cycleAlloc, cycleGC, shuffle, other []float64
	var dones []done
	var counts cluster.Metrics
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start).Seconds() < r.seconds; cycle++ {
		var jt jobTrace
		var solveS, projS float64
		var m cluster.Metrics
		for _, j := range real {
			root := r.tr.begin("bench.job", 0, 0)
			c0 := cpuNow()
			res, err := r.runJob(j, graphs[j.Name], root.ID, &jt)
			solveS += cpuSince(c0)
			r.tr.finish(root)
			r.attempted.Add(1)
			if err != nil {
				return fmt.Errorf("%s: %w", j.Name, err)
			}
			r.checkPin(pins, j, res, false)
			dones = append(dones, done{j, rowHash(res.Dist.Data)})
			addMetrics(&m, res.Metrics)
		}
		for _, j := range proj {
			root := r.tr.begin("bench.job", 0, 0)
			c0 := cpuNow()
			res, err := r.runJob(j, nil, root.ID, &jt)
			d := cpuSince(c0)
			r.tr.finish(root)
			r.attempted.Add(1)
			if err != nil {
				return fmt.Errorf("%s: %w", j.Name, err)
			}
			projS += d
			r.checkPin(pins, j, res, false)
			addMetrics(&m, res.Metrics)
		}
		solves = append(solves, solveS)
		cycleProj = append(cycleProj, projS)
		cycleAlloc = append(cycleAlloc, float64(jt.allocB)/1e9)
		cycleGC = append(cycleGC, float64(jt.gcs))
		shuffle = append(shuffle, jt.shuffleS)
		other = append(other, jt.otherS)
		counts = m
	}
	r.e2e["peak_heap_mb"] = heap.Stop()
	r.e2e["solve_s"] = median(solves)
	// qps_sat is the projections per second the median cycle's CPU cost
	// allows on nproc cores, run one at a time: the simulator already
	// spreads each job over every core.
	r.e2e["qps_sat"] = float64(len(proj)*r.nproc) / median(cycleProj)
	r.layer["rdd.shuffle_stage_s"] = median(shuffle)
	r.layer["rdd.other_stage_s"] = median(other)
	r.layer["sim.alloc_gb"] = median(cycleAlloc)
	r.layer["sim.gc_cycles"] = median(cycleGC)
	r.layer["rdd.stages"] = float64(counts.Stages)
	r.layer["rdd.tasks"] = float64(counts.Tasks)
	r.layer["cluster.shuffle_bytes"] = float64(counts.ShuffleBytes)
	r.layer["cluster.shared_rw_bytes"] = float64(counts.SharedReadBytes + counts.SharedWriteBytes)
	if r.tr != nil {
		r.minPlusLayer(real)
	}
	r.notef("paper-sim: %d cycles of %d real solves (median %.3f CPU-s per cycle) and %d projections (median %.3f CPU-s per cycle), %d stages and %.3g shuffle bytes per cycle",
		len(solves), len(real), r.e2e["solve_s"], len(proj), median(cycleProj), counts.Stages, float64(counts.ShuffleBytes))

	// Correctness gate, outside the timed path: every job's pin holds
	// bit for bit on a one-worker replay, and every real-data result
	// equals the reference distances bit for bit.
	t0 := time.Now()
	if err := r.replayPins(pins, append(append([]paperJob(nil), real...), proj...), graphs); err != nil {
		return err
	}
	want := map[string]uint64{}
	for _, d := range dones {
		h, ok := want[d.job.Name]
		if !ok {
			h = refMatrixHash(graphs[d.job.Name], r.nproc)
			want[d.job.Name] = h
		}
		if d.hash != h {
			r.wrongf("real solve %s: distance matrix differs from the reference", d.job.Name)
		}
	}
	r.notef("verify: %d jobs replayed against their pins, %d real-data results against reference solves, in %.2fs",
		len(real)+len(proj), len(dones), sinceS(t0))
	return nil
}

// checkDist verifies one real-data result immediately (set-up answers).
func (r *run) checkDist(j paperJob, g *graph.Graph, res *apspark.Result) error {
	if res.Dist == nil {
		return fmt.Errorf("%s: real solve returned no distance matrix", j.Name)
	}
	if rowHash(res.Dist.Data) != refMatrixHash(g, r.nproc) {
		r.wrongf("real solve %s: distance matrix differs from the reference", j.Name)
	}
	return nil
}

// refMatrixHash fingerprints the reference distance matrix of g in
// row-major order, the layout of matrix.Block.Data.
func refMatrixHash(g *graph.Graph, workers int) uint64 {
	rg := newRefGraph(g)
	all := make([]int, g.N)
	for i := range all {
		all[i] = i
	}
	rows := rg.refRows(all, workers)
	flat := make([]float64, 0, g.N*g.N)
	for i := range all {
		flat = append(flat, rows[i]...)
	}
	return rowHash(flat)
}

func addMetrics(dst *cluster.Metrics, m cluster.Metrics) {
	dst.Stages += m.Stages
	dst.Tasks += m.Tasks
	dst.TaskRetries += m.TaskRetries
	dst.ShuffleBytes += m.ShuffleBytes
	dst.SharedReadBytes += m.SharedReadBytes
	dst.SharedWriteBytes += m.SharedWriteBytes
	dst.CollectBytes += m.CollectBytes
	dst.BroadcastBytes += m.BroadcastBytes
}

// minPlusLayer times the public min-plus kernel at the real solves'
// block size: operations are 2b^3 per call (one add and one min per
// inner step) and bytes are 4b^2 float64s per call (read a, b and dst,
// write dst).
func (r *run) minPlusLayer(real []paperJob) {
	b := real[len(real)-1].Block
	a, bb, dst := matrix.New(b, b), matrix.New(b, b), matrix.New(b, b)
	rr := newRNG(r.seed, 0x3117)
	for i := range a.Data {
		a.Data[i] = float64(1 + rr.intn(maxWeight))
		bb.Data[i] = float64(1 + rr.intn(maxWeight))
		dst.Data[i] = math.Inf(1)
	}
	root := r.tr.begin("bench.kernel", 0, 0)
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < 300*time.Millisecond {
		s := r.tr.begin("matrix.minplus", root.ID, 0)
		if err := matrix.MinPlusInto(a, bb, dst); err != nil {
			r.wrongf("matrix.MinPlusInto: %v", err)
			break
		}
		r.tr.finish(s)
		calls++
	}
	d := sinceS(t0)
	r.tr.finish(root)
	ops := 2 * float64(b) * float64(b) * float64(b)
	r.layer["matrix.minplus_gops"] = ops * float64(calls) / d / 1e9
	r.layer["matrix.minplus_ops_per_call"] = ops
	r.layer["matrix.minplus_bytes_per_call"] = 4 * float64(b) * float64(b) * 8
}

// recordPins prints the pin file for the current simulator: every job's
// virtual seconds, projected seconds and cluster counters, run with one
// host worker. Pins are recorded once, at the commit whose projections
// are the accepted baseline; a change to the simulator must leave them
// identical.
func recordPins() error {
	runtime.GOMAXPROCS(1)
	pins := map[string]pin{}
	for _, set := range [][]paperJob{paperReal, paperProjections} {
		for _, j := range set {
			r := &run{seed: BaselineSeed}
			var g *graph.Graph
			if !j.Phantom {
				var err error
				if g, err = paperGraph(j, BaselineSeed); err != nil {
					return err
				}
			}
			res, err := r.runJob(j, g, 0, &jobTrace{})
			if err != nil {
				return fmt.Errorf("%s: %w", j.Name, err)
			}
			pins[j.Name] = pin{VirtualSeconds: res.VirtualSeconds, ProjectedSeconds: res.ProjectedSeconds, Metrics: res.Metrics}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(pins)
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Seeds: BaselineSeed is the seed baselines are taken with; HoldoutSeed
// is kept back for confirming a claimed gain on inputs the change was
// not tuned on.
const (
	BaselineSeed = 1
	HoldoutSeed  = 7919
)

// environment is the record kept with every result: what ran, on which
// source tree, with which toolchain and how many processors.
func environment(root, workload string, seed int64, traced bool) map[string]any {
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"traced":        traced,
		"rev":           revision(root),
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpus":          runtime.NumCPU(),
		"baseline_seed": BaselineSeed,
		"holdout_seed":  HoldoutSeed,
	}
}

// revision identifies the measured source: the VCS revision when the
// binary was built inside a git work tree, else a SHA-256 over the Go
// sources and module files of the checkout (the benchmark directory
// included), so two checkouts of the same code report the same rev.
func revision(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+modified"
			}
			return rev
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// heapSampler records the peak of the live Go heap — the bytes the
// garbage collector found reachable at the end of a cycle — less the
// bytes the load generator's answer log held then, so the peak is that
// of the stack under test. It polls runtime/metrics every few
// milliseconds and takes a reading whenever another cycle has ended;
// Stop forces a last cycle. Live bytes leave out garbage not yet swept,
// whose amount depends on when the collector happened to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // owned by the sampling goroutine until done is closed
}

const (
	gcCyclesMetric = "/gc/cycles/total:gc-cycles"
	liveHeapMetric = "/gc/heap/live:bytes"
)

func startHeapSampler(log *atomic.Int64) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: gcCyclesMetric}, {Name: liveHeapMetric}}
	metrics.Read(sample)
	seen := sample[0].Value.Uint64()
	read := func() {
		metrics.Read(sample)
		if c := sample[0].Value.Uint64(); c != seen {
			seen = c
			v := sample[1].Value.Uint64()
			h.peak = max(h.peak, v-min(v, uint64(log.Load())))
		}
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				runtime.GC()
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

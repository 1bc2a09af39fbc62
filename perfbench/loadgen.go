package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The load generator is one process with at most nproc client goroutines
// and connections. A closed-loop phase has every client send its next
// query as soon as the previous answer arrives (qps_sat). An open-loop
// phase sends on a fixed schedule whatever the server does: query i is
// due at start + i/rate and its latency runs from that due time, so a
// stall is charged to every query it delays. The generator's own
// lateness — how late an idle client woke for a due query — is recorded,
// and a run whose generator lagged past maxLagP99 is rejected.

const maxLagP99 = 50 * time.Millisecond

type qkind uint8

const (
	qDist qkind = iota
	qRow
	qKNN
	qPath
	qBatch
)

var qnames = [...]string{"dist", "row", "knn", "path", "batch"}

type query struct {
	kind     qkind
	from, to int
	k        int
	pairs    [][2]int
}

// answer is one sent query with what came back, decoded outside the
// timed interval.
type answer struct {
	q      query
	status int
	err    string
	due    time.Time // open loop: scheduled send; closed loop: actual send
	sent   time.Time
	done   time.Time
	lag    time.Duration // open loop, idle client: wake-up lateness; else -1
	ok     bool          // set by verification

	dist    float64
	rowHash uint64
	rowLen  int
	knn     []knnItem
	hops    []int
	batch   []float64
}

func (a *answer) latency() time.Duration { return a.done.Sub(a.due) }

// phase is one stretch of the measured window.
type phase struct {
	dur     time.Duration
	rate    float64 // queries/s; 0 means closed loop
	windows int     // closed loop: equal slices whose CPU time is read apart
}

// phaseResult carries a phase's answers and its actual wall and process
// CPU time, and the process CPU time read at each window boundary.
type phaseResult struct {
	phase
	answers []*answer
	wall    time.Duration
	cpu     time.Duration
	marks   []mark
}

// mark is one reading of the process CPU time.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// readMarks reads the process CPU time at start and at the end of each
// of the n equal windows of d that follow, into *out.
func readMarks(start time.Time, d time.Duration, n int, out *[]mark, done *sync.WaitGroup) {
	defer done.Done()
	for k := 1; k <= n; k++ {
		sleepUntil(start.Add(d * time.Duration(k) / time.Duration(n)))
		*out = append(*out, mark{at: time.Now(), cpu: cpuNow()})
	}
}

// answerArena hands out one client's answer records from fixed-size
// chunks and adds every byte the answer log keeps to log, so that
// peak_heap_mb can leave the benchmark's own log out.
type answerArena struct {
	chunks [][]answer
	log    *atomic.Int64
}

const arenaChunk = 1024

func (ar *answerArena) alloc() *answer {
	n := len(ar.chunks)
	if n == 0 || len(ar.chunks[n-1]) == arenaChunk {
		ar.chunks = append(ar.chunks, make([]answer, 0, arenaChunk))
		ar.log.Add(int64(unsafe.Sizeof(answer{})) * arenaChunk)
		n++
	}
	c := &ar.chunks[n-1]
	*c = (*c)[:len(*c)+1]
	return &(*c)[len(*c)-1]
}

// keep counts the bytes a filled record holds outside its chunk.
func (ar *answerArena) keep(a *answer) {
	ar.log.Add(int64(cap(a.q.pairs))*int64(unsafe.Sizeof([2]int{})) +
		int64(cap(a.knn))*int64(unsafe.Sizeof(knnItem{})) +
		int64(cap(a.hops)+cap(a.batch))*8 + int64(len(a.err)))
}

// drive runs the phases back to back, generating query i of phase p with
// gen(p, i) so the query stream depends only on the seed.
func (st *stack) drive(phases []phase, gen func(p int, i int64) query) []phaseResult {
	var reqIDs atomic.Int64
	out := make([]phaseResult, len(phases))
	for p, ph := range phases {
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		arenas := make([]answerArena, st.r.nproc)
		c0, start := cpuNow(), time.Now()
		end := start.Add(ph.dur)
		marks := []mark{{at: start, cpu: c0}}
		var marking sync.WaitGroup
		if ph.rate == 0 && ph.windows > 0 {
			marking.Add(1)
			go readMarks(start, ph.dur, ph.windows, &marks, &marking)
		}
		giveUp := end.Add(5 * time.Second)
		interval := time.Duration(0)
		if ph.rate > 0 {
			interval = time.Duration(float64(time.Second) / ph.rate)
		}
		for c := range arenas {
			ar := &arenas[c]
			ar.log = &st.r.logBytes
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for {
					i := next.Add(1) - 1
					var due time.Time
					lag := time.Duration(-1)
					if interval > 0 {
						due = start.Add(time.Duration(i) * interval)
						if !due.Before(end) {
							break
						}
						if time.Until(due) > 0 {
							sleepUntil(due)
							lag = time.Since(due)
						}
						if time.Now().After(giveUp) {
							now := time.Now()
							a := ar.alloc()
							*a = answer{q: gen(p, i), due: due, sent: now, done: now, lag: -1, err: "not sent: open-loop backlog past the phase end"}
							ar.keep(a)
							continue
						}
					} else {
						due = time.Now()
						if !due.Before(end) {
							break
						}
					}
					a := ar.alloc()
					st.send(a, gen(p, i), &buf, reqIDs.Add(1))
					a.due, a.lag = due, lag
					ar.keep(a)
				}
			}()
		}
		wg.Wait()
		marking.Wait()
		out[p] = phaseResult{phase: ph, wall: time.Since(start), cpu: cpuNow() - c0, marks: marks}
		n := 0
		for _, ar := range arenas {
			for _, c := range ar.chunks {
				n += len(c)
			}
		}
		st.r.logBytes.Add(int64(n) * int64(unsafe.Sizeof(&answer{})))
		out[p].answers = make([]*answer, 0, n)
		for _, ar := range arenas {
			for _, c := range ar.chunks {
				for i := range c {
					out[p].answers = append(out[p].answers, &c[i])
				}
			}
		}
	}
	return out
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. A timed
// wait in the Go runtime wakes up to a millisecond late here (its
// poller waits in whole milliseconds), which an open-loop phase would
// charge to every query as latency; nanosleep wakes within tens of
// microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// send issues one query and decodes its answer into a.
func (st *stack) send(a *answer, q query, buf *bytes.Buffer, reqID int64) {
	*a = answer{q: q, lag: -1}
	var req *http.Request
	var err error
	switch q.kind {
	case qDist:
		req, err = http.NewRequest("GET", fmt.Sprintf("%s/dist?from=%d&to=%d", st.base, q.from, q.to), nil)
	case qRow:
		req, err = http.NewRequest("GET", fmt.Sprintf("%s/row?from=%d", st.base, q.from), nil)
	case qKNN:
		req, err = http.NewRequest("GET", fmt.Sprintf("%s/knn?from=%d&k=%d", st.base, q.from, q.k), nil)
	case qPath:
		req, err = http.NewRequest("GET", fmt.Sprintf("%s/path?from=%d&to=%d", st.base, q.from, q.to), nil)
	case qBatch:
		req, err = http.NewRequest("POST", st.base+"/batch", bytes.NewReader(batchBody(q.pairs)))
	}
	if err != nil {
		a.err = err.Error()
		return
	}
	tr := st.r.tr
	sp := tr.begin("loadgen.request", 0, reqID)
	if tr != nil {
		req.Header.Set("X-Bench-Req", strconv.FormatInt(reqID, 10))
		req.Header.Set("X-Bench-Span", strconv.FormatInt(sp.ID, 10))
	}
	a.sent = time.Now()
	resp, err := st.client.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		a.status = resp.StatusCode
	}
	a.done = time.Now()
	tr.finish(sp)
	if err != nil {
		a.err = err.Error()
		return
	}
	if a.status != http.StatusOK {
		a.err = fmt.Sprintf("status %d: %.120s", a.status, buf.String())
		return
	}
	if derr := a.decode(buf.Bytes()); derr != nil {
		a.err = "decode: " + derr.Error()
	}
}

type jdist struct {
	From int      `json:"from"`
	To   int      `json:"to"`
	Dist *float64 `json:"dist"`
}

func val(p *float64) float64 {
	if p == nil {
		return math.Inf(1)
	}
	return *p
}

func (a *answer) decode(body []byte) error {
	switch a.q.kind {
	case qDist:
		var d jdist
		if err := json.Unmarshal(body, &d); err != nil {
			return err
		}
		a.dist = val(d.Dist)
	case qRow:
		row, err := parseRow(body)
		if err != nil {
			return err
		}
		a.rowHash, a.rowLen = rowHash(row), len(row)
	case qKNN:
		var k struct {
			Targets []jdist `json:"targets"`
		}
		if err := json.Unmarshal(body, &k); err != nil {
			return err
		}
		for _, t := range k.Targets {
			a.knn = append(a.knn, knnItem{To: t.To, Dist: val(t.Dist)})
		}
	case qPath:
		var p struct {
			Dist *float64 `json:"dist"`
			Hops []int    `json:"hops"`
		}
		if err := json.Unmarshal(body, &p); err != nil {
			return err
		}
		a.dist, a.hops = val(p.Dist), p.Hops
	case qBatch:
		var b struct {
			Dist []jdist `json:"dist"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		if len(b.Dist) != len(a.q.pairs) {
			return fmt.Errorf("batch answered %d of %d pairs", len(b.Dist), len(a.q.pairs))
		}
		for _, d := range b.Dist {
			a.batch = append(a.batch, val(d.Dist))
		}
	}
	return nil
}

// parseRow reads the "dist" array of a /row response (null = +Inf)
// without reflection: rows run to tens of thousands of entries.
func parseRow(body []byte) ([]float64, error) {
	i := bytes.Index(body, []byte(`"dist":[`))
	if i < 0 {
		return nil, fmt.Errorf("no dist array in /row response")
	}
	s := body[i+len(`"dist":[`):]
	j := bytes.IndexByte(s, ']')
	if j < 0 {
		return nil, fmt.Errorf("unterminated dist array")
	}
	s = s[:j]
	row := make([]float64, 0, bytes.Count(s, []byte{','})+1)
	for len(s) > 0 {
		k := bytes.IndexByte(s, ',')
		tok := s
		if k >= 0 {
			tok, s = s[:k], s[k+1:]
		} else {
			s = nil
		}
		if string(tok) == "null" {
			row = append(row, math.Inf(1))
			continue
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

// check verifies a against reference rows (refRow(from) is the exact
// distance row of from) and the graph's edges; it returns nil when the
// answer is right.
func (a *answer) check(refRow func(int) []float64, g *refGraph) error {
	q := a.q
	switch q.kind {
	case qDist:
		if want := refRow(q.from)[q.to]; a.dist != want {
			return fmt.Errorf("dist %d->%d = %v, want %v", q.from, q.to, a.dist, want)
		}
	case qRow:
		want := refRow(q.from)
		if a.rowLen != len(want) || a.rowHash != rowHash(want) {
			return fmt.Errorf("row %d differs from the reference row", q.from)
		}
	case qKNN:
		want := refKNN(refRow(q.from), q.from, q.k)
		if len(a.knn) != len(want) {
			return fmt.Errorf("knn %d k=%d: %d targets, want %d", q.from, q.k, len(a.knn), len(want))
		}
		for i := range want {
			if a.knn[i] != want[i] {
				return fmt.Errorf("knn %d k=%d: target %d is %v, want %v", q.from, q.k, i, a.knn[i], want[i])
			}
		}
	case qPath:
		return checkPath(g, q.from, q.to, a.dist, a.hops, refRow(q.from)[q.to])
	case qBatch:
		for i, p := range q.pairs {
			if want := refRow(p[0])[p[1]]; a.batch[i] != want {
				return fmt.Errorf("batch[%d] dist %d->%d = %v, want %v", i, p[0], p[1], a.batch[i], want)
			}
		}
	}
	return nil
}

// sources lists the distinct source vertices whose rows verify a.
func (a *answer) sources(add func(int)) {
	if a.q.kind == qBatch {
		for _, p := range a.q.pairs {
			add(p[0])
		}
		return
	}
	add(a.q.from)
}

// summarize folds verified answers into the run's counters and metrics.
// qps_sat comes from the closed-loop phases that have windows, the
// latency percentiles from the open-loop phases; answers of every phase,
// warm-up included, count as attempted. Every answer must be verified
// (ok set, or a wrong answer recorded) first.
func (r *run) summarize(res []phaseResult) error {
	var attempted, failed, rejected, errored int64
	for _, pr := range res {
		for _, a := range pr.answers {
			attempted++
			if a.ok {
				continue
			}
			failed++
			if a.err != "" {
				errored++ // wrong answers were counted by wrongf
			}
			if a.status == http.StatusTooManyRequests || a.status >= 500 {
				rejected++
			}
		}
	}
	// qps_sat is the rate nproc cores would sustain at the measured CPU
	// cost per correct answer: the median over the closed-loop windows
	// of each window's correct answers (counted in the window they
	// arrived in) per CPU-second. Other tenants of the host make the
	// same answers cost more CPU time while they are busy; the median
	// leaves out the windows such a burst falls in. The wall-clock rate
	// over all closed-loop phases is reported per layer.
	var closedN, good int
	var wall, cpu time.Duration
	var rates []float64
	for _, pr := range res {
		if pr.windows == 0 {
			continue
		}
		closedN += len(pr.answers)
		wall += pr.wall
		cpu += pr.cpu
		perWin := make([]int, len(pr.marks)-1)
		for _, a := range pr.answers {
			if !a.ok {
				continue
			}
			good++
			if k := sort.Search(len(pr.marks), func(k int) bool { return pr.marks[k].at.After(a.done) }) - 1; k >= 0 && k < len(perWin) {
				perWin[k]++
			}
		}
		for k, n := range perWin {
			rates = append(rates, float64(n)*float64(r.nproc)/(pr.marks[k+1].cpu-pr.marks[k].cpu).Seconds())
		}
	}
	qps := median(rates)
	qpsWall := float64(good) / wall.Seconds()
	var lat, lag []float64
	var rate float64
	for _, pr := range res {
		if pr.rate == 0 {
			continue
		}
		rate = pr.rate
		for _, a := range pr.answers {
			lat = append(lat, float64(a.latency())/1e6)
			if a.lag >= 0 {
				lag = append(lag, float64(a.lag)/1e6)
			}
		}
	}
	tail := tailQuantile(len(lat), 0.99)
	lagP99 := quantile(lag, tailQuantile(len(lag), 0.99))
	r.attempted.Add(attempted)
	r.failed.Add(errored)
	r.layer["loadgen.query_p50_ms"] = quantile(lat, 0.5)
	r.e2e["qps_sat"] = qps
	r.layer["loadgen.qps_wall"] = qpsWall
	r.layer["loadgen.query_p95_ms"] = quantile(lat, 0.95)
	r.layer["loadgen.query_p99_ms"] = quantile(lat, tail)
	r.layer["loadgen.lag_p99_ms"] = lagP99
	r.layer["loadgen.failed_frac"] = float64(failed) / float64(max(attempted, 1))
	r.layer["serve.rejected"] = float64(rejected)
	r.notef("load: %d closed-loop answers in %.2fs (%.0f correct/s; per nproc CPU-seconds %.0f overall, median %.0f of windows %.0f), %d open-loop at %.0f/s: p50 %.3fms p95 %.3fms p%.1f %.3fms, generator lag p99 %.3fms, failed %d of %d",
		closedN, wall.Seconds(), qpsWall, float64(good)*float64(r.nproc)/cpu.Seconds(), qps, rates, len(lat), rate,
		r.layer["loadgen.query_p50_ms"], r.layer["loadgen.query_p95_ms"], 100*tail, r.layer["loadgen.query_p99_ms"], lagP99, failed, attempted)
	if lagP99 > float64(maxLagP99)/1e6 {
		return fmt.Errorf("load generator lagged: p99 wake-up lateness %.2fms exceeds %v; run rejected", lagP99, maxLagP99)
	}
	return nil
}

// verifyAnswers checks every answer of every phase against the
// reference, recording wrong answers on the run.
func (r *run) verifyAnswers(res []phaseResult, refRow func(int) []float64, g *refGraph) {
	for _, pr := range res {
		for _, a := range pr.answers {
			if a.err != "" {
				continue
			}
			if err := a.check(refRow, g); err != nil {
				r.wrongf("%s: %v", qnames[a.q.kind], err)
				continue
			}
			a.ok = true
		}
	}
}

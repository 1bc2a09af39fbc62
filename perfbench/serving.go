package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"apspark/internal/obs"
	"apspark/internal/serve"
	"apspark/internal/store"
)

// The serving workloads drive the stack cmd/apsp-serve builds, in
// process, over a real loopback listener: a Gate in front of the
// Swapper's handler, serve.Harden with apsp-serve's defaults, the body
// cap, and the same http.Server timeouts. Metrics are on, as they are by
// default in apsp-serve.

const (
	serveMaxInFlight = 256
	serveReqTimeout  = 30 * time.Second
	serveMaxBody     = 1 << 20
	serveReadRetries = 2
	serveRetryWait   = 2 * time.Millisecond
)

// storeOptions are apsp-serve's store read options with the given cache
// budgets.
func storeOptions(tileBytes, rowBytes int64) store.Options {
	return store.Options{
		TileCacheBytes: tileBytes,
		RowCacheBytes:  rowBytes,
		ReadRetries:    serveReadRetries,
		RetryBackoff:   serveRetryWait,
	}
}

// stack is one running server plus the client that loads it.
type stack struct {
	r      *run
	srv    *http.Server
	base   string
	client *http.Client
	tr     *http.Transport
	errc   chan error
}

// startStack serves sw on 127.0.0.1 behind apsp-serve's middleware.
func (r *run) startStack(sw *serve.Swapper, shard string) (*stack, error) {
	gate := serve.NewGate()
	gate.Ready(sw.Handler())
	obs.RegisterProcessMetrics(obs.Default)
	sw.RegisterMetrics(obs.Default)
	h := http.MaxBytesHandler(serve.Harden(gate, serve.HardenOptions{
		MaxInFlight: serveMaxInFlight,
		Timeout:     serveReqTimeout,
		Metrics:     obs.Default,
		Shard:       shard,
	}), serveMaxBody)
	if r.tr != nil {
		h = r.handlerProbe(h)
	}
	root := http.NewServeMux()
	root.Handle("GET /metrics", obs.Handler(obs.Default))
	root.Handle("/", h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           root,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	st := &stack{r: r, srv: srv, base: "http://" + ln.Addr().String(), errc: make(chan error, 1)}
	go func() { st.errc <- srv.Serve(ln) }()
	// One process, at most nproc client goroutines and connections.
	st.tr = &http.Transport{
		MaxConnsPerHost:     r.nproc,
		MaxIdleConnsPerHost: r.nproc,
		MaxIdleConns:        r.nproc,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	st.client = &http.Client{Transport: st.tr, Timeout: time.Minute}
	return st, nil
}

// close stops the server and waits for its Serve goroutine.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	st.tr.CloseIdleConnections()
	if serr := <-st.errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// Span context carried from the traced handler wrapper to the Source
// wrapper through the request context.
type spanKey struct{}

type spanCtx struct{ req, span int64 }

// handlerProbe times the hardened handler: one serve.handler span per
// request, parented to the client's request span named in the headers.
func (r *run) handlerProbe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, _ := strconv.ParseInt(req.Header.Get("X-Bench-Req"), 10, 64)
		parent, _ := strconv.ParseInt(req.Header.Get("X-Bench-Span"), 10, 64)
		s := r.tr.begin("serve.handler", parent, id)
		ctx := context.WithValue(req.Context(), spanKey{}, spanCtx{req: id, span: s.ID})
		next.ServeHTTP(w, req.WithContext(ctx))
		r.tr.finish(s)
	})
}

// badEntry is the one distance a self-test Source corrupts.
type badEntry struct{ i, j int }

// probe is the shared state of a Source wrapper: span names for traced
// runs, and the entry to corrupt for the self-test.
type probe struct {
	tr     *tracer
	prefix string // layer of the wrapped source: "store" or "hierarchy"
	bad    *badEntry
}

func (p *probe) begin(ctx context.Context, op string) span {
	if p.tr == nil {
		return span{}
	}
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return p.tr.begin(p.prefix+"."+op, sc.span, sc.req)
}

func (p *probe) corruptRow(i int, row []float64, shared bool) []float64 {
	if p.bad == nil || p.bad.i != i || p.bad.j >= len(row) {
		return row
	}
	if shared {
		row = append([]float64(nil), row...)
	}
	row[p.bad.j]++
	return row
}

// wrapSource wraps src with timing (traced runs) or corruption (the
// self-test). It forwards exactly the optional upgrades src has —
// RowViewer and RowCopier — so the engine takes the same read paths it
// takes on the bare source.
func wrapSource(src serve.Source, p *probe) serve.Source {
	w := &wrapped{src: src, p: p}
	rv, hasRV := src.(serve.RowViewer)
	rc, hasRC := src.(serve.RowCopier)
	switch {
	case hasRV && hasRC:
		return &viewCopier{wrapped: w, rv: rv, rc: rc}
	case hasRV:
		return &viewer{wrapped: w, rv: rv}
	case hasRC:
		return &copier{wrapped: w, rc: rc}
	}
	return w
}

type wrapped struct {
	src serve.Source
	p   *probe
}

func (s *wrapped) N() int { return s.src.N() }

// SourceKind keeps the serving-mode label of the wrapped source.
func (s *wrapped) SourceKind() string {
	if k, ok := s.src.(serve.KindedSource); ok {
		return k.SourceKind()
	}
	if _, ok := s.src.(*store.Store); ok {
		return "store"
	}
	return "custom"
}

func (s *wrapped) Dist(ctx context.Context, i, j int) (float64, error) {
	sp := s.p.begin(ctx, "dist")
	d, err := s.src.Dist(ctx, i, j)
	s.p.tr.finish(sp)
	if s.p.bad != nil && s.p.bad.i == i && s.p.bad.j == j {
		d++
	}
	return d, err
}

func (s *wrapped) Row(ctx context.Context, i int) ([]float64, error) {
	sp := s.p.begin(ctx, "row")
	row, err := s.src.Row(ctx, i)
	s.p.tr.finish(sp)
	return s.p.corruptRow(i, row, false), err
}

func (s *wrapped) rowView(rv serve.RowViewer, ctx context.Context, i int) ([]float64, error) {
	sp := s.p.begin(ctx, "row")
	row, err := rv.RowView(ctx, i)
	s.p.tr.finish(sp)
	if err != nil {
		return row, err
	}
	return s.p.corruptRow(i, row, true), nil
}

func (s *wrapped) rowInto(rc serve.RowCopier, ctx context.Context, i int, dst []float64) ([]float64, error) {
	sp := s.p.begin(ctx, "row")
	row, err := rc.RowInto(ctx, i, dst)
	s.p.tr.finish(sp)
	if err != nil {
		return row, err
	}
	return s.p.corruptRow(i, row, false), nil
}

type viewer struct {
	*wrapped
	rv serve.RowViewer
}

func (s *viewer) RowView(ctx context.Context, i int) ([]float64, error) {
	return s.rowView(s.rv, ctx, i)
}

type copier struct {
	*wrapped
	rc serve.RowCopier
}

func (s *copier) RowInto(ctx context.Context, i int, dst []float64) ([]float64, error) {
	return s.rowInto(s.rc, ctx, i, dst)
}

type viewCopier struct {
	*wrapped
	rv serve.RowViewer
	rc serve.RowCopier
}

func (s *viewCopier) RowView(ctx context.Context, i int) ([]float64, error) {
	return s.rowView(s.rv, ctx, i)
}

func (s *viewCopier) RowInto(ctx context.Context, i int, dst []float64) ([]float64, error) {
	return s.rowInto(s.rc, ctx, i, dst)
}

// source returns the Source the engine should serve: src itself on an
// untraced run, else src behind the timing (or corrupting) wrapper.
func (r *run) source(src serve.Source, prefix string, bad *badEntry) serve.Source {
	if r.tr == nil && bad == nil {
		return src
	}
	return wrapSource(src, &probe{tr: r.tr, prefix: prefix, bad: bad})
}

// body helpers for the load generator.
func batchBody(pairs [][2]int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"dist":[`)
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"from":%d,"to":%d}`, p[0], p[1])
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

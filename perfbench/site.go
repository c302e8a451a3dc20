package main

import (
	"context"
	"crypto/sha256"
	"database/sql"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/cc"
	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/schema"
	"github.com/dsl-repro/hydra/internal/workload/tpcds"
)

// The client site every workload starts from: the TPC-DS substrate at
// SF 0.05 with its substrate seed fixed, and the WLc-80 and WLs-90 query
// workloads executed on it. Summarize cost depends strongly on this input
// (0.1 s to 0.6 s per pass across substrate seeds), so it is held fixed
// and the run seed varies the requests instead; see README.md.
const (
	siteSF     = 0.05
	siteSeed   = 42
	wlcQueries = 80
	wlsQueries = 90
	// supplyScale multiplies every row count and CC count of WLs-90 for
	// the data-plane paths (the paper's §7.4 scaling): ~5.8M rows.
	supplyScale = 100
	// setupRounds is how often a run sets up from scratch; setup_s is
	// the median.
	setupRounds = 15
	// setupSlack and roundSlack bound a run: set-up, then each measured
	// round's budget plus its paths' last operations and output checks.
	setupSlack = 20 * time.Second
	roundSlack = 25 * time.Second
)

// site is the client's schema and CC workloads.
type site struct {
	schema   *hydra.Schema
	wlc, wls *hydra.Workload
}

func buildSite() (*site, error) {
	cfg := tpcds.Config{SF: siteSF, Seed: siteSeed}
	s := tpcds.Schema(cfg)
	db, err := tpcds.GenerateDB(s, cfg)
	if err != nil {
		return nil, fmt.Errorf("client database: %w", err)
	}
	wlc, _, err := engine.WorkloadFromQueries(db, s, "WLc", tpcds.QueriesComplex(s, cfg, wlcQueries))
	if err != nil {
		return nil, fmt.Errorf("WLc: %w", err)
	}
	wls, _, err := engine.WorkloadFromQueries(db, s, "WLs", tpcds.QueriesSimple(s, cfg, wlsQueries))
	if err != nil {
		return nil, fmt.Errorf("WLs: %w", err)
	}
	return &site{schema: s, wlc: wlc, wls: wls}, nil
}

// scaled returns copies of the schema and workload with every row count
// and CC count multiplied by k.
func scaled(s *schema.Schema, w *cc.Workload, k int64) (*schema.Schema, *cc.Workload, error) {
	tabs := make([]*schema.Table, len(s.Tables))
	for i, t := range s.Tables {
		nt := *t
		nt.RowCount = t.RowCount * k
		tabs[i] = &nt
	}
	ns, err := schema.New(tabs...)
	if err != nil {
		return nil, nil, err
	}
	nw := &cc.Workload{Name: w.Name, CCs: append([]cc.CC(nil), w.CCs...)}
	for i := range nw.CCs {
		nw.CCs[i].Count *= k
	}
	return ns, nw, nil
}

// env is everything a run measures against: the client site, the scaled
// summary the data-plane phases read, a database/sql handle on it, and
// two serve members on loopback.
type env struct {
	site    *site
	sum     *hydra.Summary
	sumPath string
	digest  [32]byte // SHA-256 of the saved summary file
	db      *sql.DB
	members []*member
	urls    []string
	dir     string
	// handlers records the members' table requests in traced runs.
	handlers *handlerLog
}

// setup builds an env from scratch: client database, query execution,
// summarize-for-setup, the summary file and SQL handle, and server start.
func setup(ctx context.Context, dir string) (*env, error) {
	st, err := buildSite()
	if err != nil {
		return nil, err
	}
	ss, ws, err := scaled(st.schema, st.wls, supplyScale)
	if err != nil {
		return nil, err
	}
	res, err := hydra.RegenerateContext(ctx, ss, ws, hydra.Config{})
	if err != nil {
		return nil, fmt.Errorf("summarize scaled WLs: %w", err)
	}
	e := &env{site: st, sum: res.Summary, dir: dir, handlers: &handlerLog{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e.sumPath = filepath.Join(dir, "summary.json")
	if err := res.Summary.Save(e.sumPath); err != nil {
		return nil, err
	}
	saved, err := os.ReadFile(e.sumPath)
	if err != nil {
		return nil, err
	}
	e.digest = sha256.Sum256(saved)
	e.db, err = sql.Open(hydra.DriverName, "summary://"+e.sumPath)
	if err != nil {
		return nil, err
	}
	if err := e.db.PingContext(ctx); err != nil {
		e.close()
		return nil, fmt.Errorf("sql ping: %w", err)
	}
	for i := 0; i < 2; i++ {
		m, err := startMember(res.Summary, e.handlers)
		if err != nil {
			e.close()
			return nil, err
		}
		e.members = append(e.members, m)
		e.urls = append(e.urls, m.url)
	}
	return e, nil
}

func (e *env) close() {
	for _, m := range e.members {
		m.stop()
	}
	e.members = nil
	if e.db != nil {
		e.db.Close()
	}
}

// member is one in-process serve fleet member on a loopback port.
type member struct {
	url  string
	srv  *http.Server
	done chan error
}

func startMember(sum *hydra.Summary, rec *handlerLog) (*member, error) {
	h, err := hydra.NewServeHandler(sum, hydra.ServeOptions{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := &member{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: &timedHandler{h: h, log: rec}},
		done: make(chan error, 1),
	}
	go func() { m.done <- m.srv.Serve(ln) }()
	return m, nil
}

// stop closes the listener and every connection, then waits for Serve
// to return.
func (m *member) stop() {
	m.srv.Close()
	<-m.done
}

// headerReq carries the benchmark's request span id from the client to
// the handler wrapper, so handler spans attach to the request that
// caused them.
const headerReq = "X-Perfbench-Request"

type reqKey struct{}

// reqTransport stamps the request span id from the context on every
// outgoing request.
type reqTransport struct{ base http.RoundTripper }

func (t reqTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(headerReq, fmt.Sprint(id))
	}
	return t.base.RoundTrip(r)
}

// handlerLog receives one record per /v1/tables request while on.
type handlerLog struct {
	on   atomic.Bool
	mu   sync.Mutex
	recs []handlerRec
}

type handlerRec struct {
	req               int64 // request span id, 0 when the header is absent
	info              bool  // GET ?info=1 geometry request
	start, first, end time.Time
	bytes             int64
}

func (l *handlerLog) take() []handlerRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.recs
	l.recs = nil
	return out
}

// timedHandler is the timing wrapper on a member's http.Handler: handler
// time, time to first byte and bytes written per table request.
type timedHandler struct {
	h   http.Handler
	log *handlerLog
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.log.on.Load() || !strings.HasPrefix(r.URL.Path, "/v1/tables/") {
		t.h.ServeHTTP(w, r)
		return
	}
	tw := &timedWriter{ResponseWriter: w}
	start := time.Now()
	t.h.ServeHTTP(tw, r)
	end := time.Now()
	if tw.first.IsZero() {
		tw.first = end
	}
	var req int64
	fmt.Sscan(r.Header.Get(headerReq), &req)
	rec := handlerRec{req: req, info: r.URL.Query().Has("info"), start: start, first: tw.first, end: end, bytes: tw.n}
	t.log.mu.Lock()
	t.log.recs = append(t.log.recs, rec)
	t.log.mu.Unlock()
}

type timedWriter struct {
	http.ResponseWriter
	first time.Time
	n     int64
}

func (w *timedWriter) Write(p []byte) (int, error) {
	if w.first.IsZero() {
		w.first = time.Now()
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *timedWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the connection (serve sets
// per-write deadlines through it).
func (w *timedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

package scan

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/resilience"
	"github.com/dsl-repro/hydra/internal/trace"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// Fleet-client observability: how often streams died and resumed, how
// often the scan had to fail over to another member, and how often the
// fleet pushed back with 503 — the retry counters a capacity planner
// reads next to the server-side stream metrics.
var (
	mRemoteResumes = obs.Default.Counter("hydra_scan_remote_resumes_total",
		"table streams that died mid-scan and were resumed at their row offset")
	mRemoteFailovers = obs.Default.Counter("hydra_scan_remote_failovers_total",
		"failed fleet requests (stream opens and metadata gets) that moved the scan to the next attempt")
	mRemoteBusy = obs.Default.Counter("hydra_scan_remote_busy_total",
		"503 capacity rejections observed on fleet requests")
)

// RemoteOptions tunes a RemoteSource.
type RemoteOptions struct {
	// Client issues the HTTP requests; nil builds one without timeouts
	// (scans legitimately stream long; cancellation comes from the scan
	// context).
	Client *http.Client
	// Attempts bounds consecutive failures — failed connections, error
	// statuses other than 503, or streams that died without delivering a
	// row — before a scan gives up; progress resets the count. 0 means
	// twice the fleet size.
	Attempts int
	// Fleet tunes the resilience substrate under the source: background
	// /healthz probing, per-member circuit breakers, jittered retry
	// backoff, and the shared retry budget. The zero value means
	// defaults (probing on, breakers on); set Fleet.ProbeInterval to a
	// negative value to disable probing, Fleet.BreakerThreshold negative
	// to disable breakers.
	Fleet resilience.Options
}

// RemoteSource scans tables served by a fleet of `hydra serve` servers
// over GET /v1/tables/{table}. Column projection is pushed down to the
// server (columns= query parameter), so only the selected columns cross
// the network. The stream is consumed incrementally and decoded straight
// into batches; if a server fails mid-table the scan resumes on the next
// fleet member at the exact row offset it had reached — the offset
// resume the serve data plane guarantees is byte-identical — after
// checking the member serves the same summary digest, so a mixed fleet
// can never splice two different databases into one scan.
type RemoteSource struct {
	servers []string
	opts    RemoteOptions
	tracker *resilience.Tracker
	policy  resilience.Policy
	m       *backendMetrics
}

var _ Source = (*RemoteSource)(nil)

// NewRemoteSource builds a source over the fleet's base URLs
// (e.g. "http://10.0.0.7:8372").
func NewRemoteSource(servers []string, opts RemoteOptions) (*RemoteSource, error) {
	if len(servers) == 0 {
		return nil, errors.New("scan: remote source needs at least one server URL")
	}
	clean := make([]string, len(servers))
	for i, raw := range servers {
		u, err := url.Parse(strings.TrimSpace(raw))
		if err != nil {
			return nil, fmt.Errorf("scan: server URL %q: %w", raw, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("scan: server URL %q: want http(s)://host[:port]", raw)
		}
		clean[i] = strings.TrimRight(u.String(), "/")
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.Attempts <= 0 {
		opts.Attempts = 2 * len(servers)
	}
	tracker := resilience.NewTracker(clean, opts.Fleet)
	tracker.Start()
	return &RemoteSource{
		servers: clean,
		opts:    opts,
		tracker: tracker,
		policy:  tracker.Policy("scan", opts.Attempts+resilience.MaxBusyWaits),
		m:       metricsForBackend("remote"),
	}, nil
}

// Servers returns the fleet's base URLs.
func (s *RemoteSource) Servers() []string { return append([]string(nil), s.servers...) }

// headerDigest is serve's summary-identity header (serve.HeaderDigest;
// not imported so a future serve-on-scan layering stays cycle-free).
const headerDigest = "X-Hydra-Summary-Digest"

// headerFilter is serve's applied-filter echo header (serve.HeaderFilter).
const headerFilter = "X-Hydra-Filter"

// retryAfterMax caps a 503's Retry-After for scans: lower than the
// shard runner's 30s, because a scan's work unit is a resumable stream,
// not a whole shard job.
const retryAfterMax = 5 * time.Second

// do runs one fleet request through the shared failover loop
// (resilience.Tracker.Do) with the scan's rules on top: a spec error is
// the same on every member, so it is permanent, and every other failed
// attempt ticks the scan's failover (and, for 503s, busy) counters.
func (s *RemoteSource) do(ctx context.Context, attempts int, try func(context.Context, *resilience.Member) error) (int, error) {
	return s.tracker.Do(ctx, s.policy, attempts, func(ctx context.Context, m *resilience.Member) error {
		err := try(ctx, m)
		if err == nil || ctx.Err() != nil {
			return err
		}
		if errors.Is(err, ErrSpec) {
			return resilience.Permanent(err)
		}
		mRemoteFailovers.Inc()
		var busy *resilience.BusyError
		if errors.As(err, &busy) {
			mRemoteBusy.Inc()
		}
		return err
	})
}

// getJSON fetches one JSON document with fleet failover, returning the
// answering server's summary digest header (empty on servers that
// predate it).
func (s *RemoteSource) getJSON(ctx context.Context, path string, v any) (digest string, err error) {
	_, err = s.do(ctx, s.opts.Attempts, func(ctx context.Context, m *resilience.Member) (err error) {
		digest, err = s.getJSONOn(ctx, m, path, v)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("scan: %w", err)
	}
	return digest, nil
}

// getJSONOn performs one metadata request against one member. Under a
// traced caller each attempt is its own child span, stamped into the
// outgoing request so the member can continue the trace.
func (s *RemoteSource) getJSONOn(ctx context.Context, m *resilience.Member, path string, v any) (_ string, err error) {
	ctx, asp := trace.Child(ctx, "fleet.get",
		trace.Str("member", m.URL), trace.Str("path", path))
	defer func() { asp.Fail(err); asp.End() }()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+path, nil)
	if err != nil {
		return "", err
	}
	if tp := asp.Traceparent(); tp != "" {
		req.Header.Set(trace.Header, tp)
	}
	t0 := time.Now()
	resp, err := s.opts.Client.Do(req)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", statusError(resp)
	}
	err = json.NewDecoder(resp.Body).Decode(v)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	m.ReportSuccess(time.Since(t0), 0)
	return resp.Header.Get(headerDigest), nil
}

// Tables implements Source via GET /v1/summary.
func (s *RemoteSource) Tables() ([]string, error) {
	var doc struct {
		Relations map[string]int64 `json:"relations"`
	}
	if _, err := s.getJSON(context.Background(), "/v1/summary", &doc); err != nil {
		return nil, err
	}
	return sortedNames(doc.Relations), nil
}

// Table implements Source via the tables endpoint's info=1 geometry
// answer, which generates nothing server-side.
func (s *RemoteSource) Table(name string) (*TableInfo, error) {
	info, _, err := s.tableInfo(context.Background(), name)
	return info, err
}

func (s *RemoteSource) tableInfo(ctx context.Context, name string) (*TableInfo, string, error) {
	var rep matgen.StreamReport
	path := "/v1/tables/" + url.PathEscape(name) + "?format=csv&info=1"
	digest, err := s.getJSON(ctx, path, &rep)
	if err != nil {
		return nil, "", err
	}
	if len(rep.Cols) == 0 {
		return nil, "", fmt.Errorf("scan: fleet server predates column reporting; upgrade `hydra serve`")
	}
	return &TableInfo{Table: name, Cols: rep.Cols, Rows: rep.TotalRows}, digest, nil
}

// Scan implements Source.
func (s *RemoteSource) Scan(ctx context.Context, spec Spec) (*Scan, error) {
	info, digest, err := s.tableInfo(ctx, spec.Table)
	if err != nil {
		return nil, err
	}
	r, err := resolve(spec, info)
	if err != nil {
		return nil, err
	}
	// The scan's row range was computed from this geometry, so the data
	// streams are pinned to the geometry's summary digest: a fleet
	// member loaded with a different database fails the scan instead of
	// silently truncating or padding it.
	f := &remoteFiller{
		src: s, spec: spec, end: r.hi,
		ncols:  len(r.cols),
		digest: digest,
		row:    make([]int64, len(r.cols)),
	}
	if r.filtered {
		// The filter travels to the server in canonical encoding and is
		// evaluated inside the encode stream, so only matching rows cross
		// the network. The client then needs each row's pk to place it on
		// the batch grid and to resume a torn stream (the offset space is
		// pre-filter, and a matching row's pk IS its position): when the
		// projection lacks the pk column it is appended to the request
		// and stripped before rows reach the batch.
		f.filtered = true
		f.filterEnc = spec.Filter.Encode()
		f.reqCols = spec.Columns
		f.pkIdx = -1
		if len(spec.Columns) == 0 {
			f.pkIdx = 0 // natural layout: pk first
		} else {
			for i, name := range spec.Columns {
				if name == info.Cols[0] {
					f.pkIdx = i
					break
				}
			}
			if f.pkIdx < 0 {
				f.reqCols = append(append([]string(nil), spec.Columns...), info.Cols[0])
				f.pkIdx = len(spec.Columns)
			}
		}
		nread := len(r.cols)
		if len(f.reqCols) > nread {
			nread = len(f.reqCols)
		}
		f.rowFull = make([]int64, nread)
		f.resumeAbs = r.lo
	}
	return newScan(ctx, r, f, s.m), nil
}

// Close implements Source: it stops the background health probes. Idle
// HTTP connections belong to the client's transport.
func (s *RemoteSource) Close() error {
	s.tracker.Close()
	return nil
}

// Tracker exposes the fleet tracker (member states, EWMAs) for
// consumers that schedule over it.
func (s *RemoteSource) Tracker() *resilience.Tracker { return s.tracker }

// remoteFiller decodes one csv table stream into batches, reopening at
// the current offset on another fleet member when a stream dies.
type remoteFiller struct {
	src   *RemoteSource
	spec  Spec
	end   int64 // absolute end of the scanned range
	ncols int

	body   io.ReadCloser
	rr     *csvReader
	pos    int64  // absolute row the open stream yields next
	digest string // summary digest pinned by the geometry (or first) response
	fails  int
	row    []int64

	// member is the fleet member serving the open stream; openedAt and
	// rowsRead feed its rows/s EWMA when the stream ends well.
	member   *resilience.Member
	openedAt time.Time
	rowsRead int64

	// Filtered mode: the server streams only matching rows, so stream
	// position and batch position decouple. Each row carries its pk (at
	// pkIdx of the requested layout), which places it on the batch grid
	// and is where a torn stream resumes — the offset space is always
	// pre-filter row numbers.
	filtered  bool
	filterEnc string   // canonical filter= value
	reqCols   []string // columns requested from the server (projection + pk)
	rowFull   []int64  // one decoded stream row, len == max(ncols, len(reqCols))
	pkIdx     int      // pk's index in the stream layout
	resumeAbs int64    // absolute offset to (re)open the stream at
	havePeek  bool     // rowFull holds an undelivered row
	exhausted bool     // server closed cleanly: no matches remain in range
}

func (f *remoteFiller) fill(ctx context.Context, b *tuplegen.Batch, lo, hi int64) error {
	if f.filtered {
		return f.fillFiltered(ctx, b, lo, hi)
	}
	n := int(hi - lo)
	cols := prepBatch(b, f.ncols, n, lo)
	for i := 0; i < n; i++ {
		abs := lo + int64(i)
		for {
			if f.rr == nil || f.pos != abs {
				if err := f.openAt(ctx, abs); err != nil {
					return err
				}
			}
			err := f.rr.next(f.row)
			if err == nil {
				break
			}
			if err := f.streamDied(ctx, err); err != nil {
				return err
			}
		}
		f.fails = 0 // a decoded row is progress
		f.rowsRead++
		for c := range cols {
			cols[c][i] = f.row[c]
		}
		f.pos++
	}
	return nil
}

// fillFiltered assigns server-delivered matching rows to the grid cell
// [lo,hi) by their pk, holding at most one looked-ahead row that
// belongs to a later cell. The stream is opened once for the whole
// range and reopened (possibly on another member) at the pk of the
// last row received if it dies; a clean end-of-stream means the server
// delivered every matching row in the range.
func (f *remoteFiller) fillFiltered(ctx context.Context, b *tuplegen.Batch, lo, hi int64) error {
	n := int(hi - lo)
	cols := prepBatch(b, f.ncols, n, lo)
	out := 0
	for out < n && !f.exhausted {
		if !f.havePeek {
			if err := f.readRow(ctx); err != nil {
				return err
			}
			if f.exhausted {
				break
			}
		}
		if pk := f.rowFull[f.pkIdx]; pk-1 >= hi {
			break // first row of a later cell; keep it as lookahead
		}
		for c := 0; c < f.ncols; c++ {
			cols[c][out] = f.rowFull[c]
		}
		out++
		f.havePeek = false
	}
	b.N = out
	return nil
}

// readRow decodes the next matching row into rowFull, resuming or
// failing over on stream death. A clean io.EOF — the server's chunked
// response ended with its terminal frame — sets exhausted instead: the
// filtered stream has no fixed row count, so "ended cleanly" is the
// protocol's only (and sufficient) end-of-matches signal; truncation
// surfaces as ErrUnexpectedEOF and resumes like any other death.
func (f *remoteFiller) readRow(ctx context.Context) error {
	for {
		if f.rr == nil {
			if err := f.openAt(ctx, f.resumeAbs); err != nil {
				return err
			}
		}
		err := f.rr.next(f.rowFull)
		if err == nil {
			f.fails = 0
			f.rowsRead++
			f.havePeek = true
			f.resumeAbs = f.rowFull[f.pkIdx] // this row's abs is pk-1; resume after it
			return nil
		}
		if errors.Is(err, io.EOF) {
			f.exhausted = true
			f.endStream(false)
			return nil
		}
		if err := f.streamDied(ctx, err); err != nil {
			return err
		}
	}
}

// streamDied settles a stream that broke mid-read (connection,
// truncation, torn row): the next read reopens it at the exact row
// reached, on the next fleet member. The death counts against the
// member and the scan's consecutive-failure budget, unless ctx ended —
// then the member did nothing wrong and ctx's error ends the scan.
func (f *remoteFiller) streamDied(ctx context.Context, err error) error {
	mRemoteResumes.Inc()
	if cerr := ctx.Err(); cerr != nil {
		f.endStream(false)
		return cerr
	}
	f.endStream(true)
	if f.fails++; f.fails >= f.src.opts.Attempts {
		return fmt.Errorf("scan: fleet exhausted after %d attempts, last: %w", f.src.opts.Attempts, err)
	}
	return nil
}

// openAt starts (or resumes) the table stream at absolute row abs
// through the fleet failover loop. Failed opens add to the scan's
// consecutive-failure count, so the loop gets what is left of it.
func (f *remoteFiller) openAt(ctx context.Context, abs int64) error {
	f.endStream(false)
	n, err := f.src.do(ctx, f.src.opts.Attempts-f.fails, func(ctx context.Context, m *resilience.Member) error {
		return f.openOn(ctx, m, abs)
	})
	f.fails += n
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	f.pos = abs
	return nil
}

func (f *remoteFiller) openOn(ctx context.Context, member *resilience.Member, abs int64) (err error) {
	srv := member.URL
	// One child span per HTTP attempt: its duration is the
	// time-to-first-byte of the stream open, its error the reason the
	// failover loop moved on.
	ctx, asp := trace.Child(ctx, "scan.remote.attempt",
		trace.Str("member", srv), trace.Int("offset", abs))
	defer func() { asp.Fail(err); asp.End() }()
	t0 := time.Now()
	q := url.Values{}
	q.Set("format", "csv")
	cols, nread := f.spec.Columns, f.ncols
	if f.filtered {
		cols = f.reqCols
		nread = len(f.rowFull)
		q.Set("filter", f.filterEnc)
	}
	if len(cols) > 0 {
		q.Set("columns", strings.Join(cols, ","))
	}
	if f.spec.FKSpread {
		q.Set("fkspread", "1")
	}
	q.Set("offset", strconv.FormatInt(abs, 10))
	if limit := f.end - abs; limit > 0 {
		q.Set("limit", strconv.FormatInt(limit, 10))
	}
	u := srv + "/v1/tables/" + url.PathEscape(f.spec.Table) + "?" + q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	if tp := asp.Traceparent(); tp != "" {
		req.Header.Set(trace.Header, tp)
	}
	resp, err := f.src.opts.Client.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	if d := resp.Header.Get(headerDigest); d != "" {
		if f.digest == "" {
			f.digest = d
		} else if f.digest != d {
			resp.Body.Close()
			return fmt.Errorf("scan: fleet member serves summary %.12s…, scan started on %.12s… — cannot splice", d, f.digest)
		}
	}
	if f.filtered {
		// A server that predates predicate pushdown ignores filter= and
		// streams every row — silently wrong results, not an error. The
		// echo header proves the filter was applied; its absence is fatal
		// rather than retried, since the whole fleet runs one binary.
		if got := resp.Header.Get(headerFilter); got != f.filterEnc {
			resp.Body.Close()
			return fmt.Errorf("%w: fleet member did not apply filter %q (echoed %q); upgrade `hydra serve`", ErrSpec, f.filterEnc, got)
		}
	}
	// The stream carries the csv header line exactly when it starts at
	// the very top of the table (server-side shard 0, offset 0 — we
	// always request the whole table and cut our own range via offset).
	rr, err := newCSVReader(resp.Body, nread, abs == 0)
	if err != nil {
		resp.Body.Close()
		return err
	}
	f.body, f.rr = resp.Body, rr
	// The open succeeded: close the member's breaker and record the
	// time-to-first-byte as its latency observation. Rows/s follows when
	// the stream ends (finishStream).
	f.member, f.openedAt, f.rowsRead = member, time.Now(), 0
	member.ReportSuccess(time.Since(t0), 0)
	return nil
}

// endStream closes the open stream and settles its member accounting:
// a failed stream counts against the member's breaker; a stream that
// delivered rows and ended well feeds its rows/s EWMA.
func (f *remoteFiller) endStream(failed bool) {
	if f.body != nil {
		f.body.Close()
		f.body, f.rr = nil, nil
	}
	m := f.member
	if m == nil {
		return
	}
	f.member = nil
	if failed {
		m.ReportFailure()
		return
	}
	if d := time.Since(f.openedAt); f.rowsRead > 0 && d > 0 {
		m.ReportSuccess(0, float64(f.rowsRead)/d.Seconds())
	}
}

func (f *remoteFiller) close() error {
	// A scan closed with its stream still open read everything it
	// needed: that is a well-ended stream for EWMA purposes.
	f.endStream(false)
	return nil
}

// statusError maps a non-200 answer onto the scan's error classes: 400
// and 404 are the caller's mistake (ErrSpec), 503 is capacity pushback
// (resilience.BusyError), anything else a member failure.
func statusError(resp *http.Response) error {
	err := resilience.StatusError(resp, retryAfterMax)
	switch resp.StatusCode {
	case http.StatusBadRequest, http.StatusNotFound:
		return fmt.Errorf("%w: %v", ErrSpec, err)
	}
	return err
}

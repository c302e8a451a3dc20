package hydra

import (
	"io"

	"github.com/dsl-repro/hydra/internal/resilience"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// The unified read path: internal/scan gives every place regenerated
// data lives — a loaded summary, a materialized shard directory, a
// fleet of regeneration servers — one pull-based, columnar scan API.
// Open a Source, describe what to read with a ScanSpec, pull RowBatches:
//
//	src := hydra.NewSummarySource(res.Summary)   // or OpenDirSource / NewRemoteSource
//	sc, err := src.Scan(ctx, hydra.ScanSpec{Table: "S", Columns: []string{"S_pk", "A"}})
//	...
//	defer sc.Close()
//	for sc.Next() {
//	    b := sc.Batch() // column-major; valid until the next Next
//	}
//	err = sc.Err()
//
// For any given ScanSpec all three backends yield the identical batch
// sequence — same boundaries, same values — so consumers bind to Source
// once and run against any of them.
type (
	// Source is a handle on regenerated data, wherever it lives.
	Source = scan.Source
	// Scan is the pull-based batch iterator a Source returns.
	Scan = scan.Scan
	// ScanSpec selects what a Scan reads: table, column projection,
	// pk range, filter predicate (Filter, built with Col or ParseWhere),
	// shard i/N split, batch size, rows/s rate limit.
	ScanSpec = scan.Spec
	// ScanTableInfo describes one scannable relation.
	ScanTableInfo = scan.TableInfo
	// RowBatch is a column-major block of consecutive rows — the unit
	// every Scan yields and tuplegen generates.
	RowBatch = tuplegen.Batch
	// SummarySource scans a loaded summary (in-process dynamic
	// regeneration).
	SummarySource = scan.SummarySource
	// DirSource scans a materialized shard directory, verifying part
	// checksums lazily.
	DirSource = scan.DirSource
	// RemoteSource scans a `hydra serve` fleet with projection pushdown,
	// offset resume, and failover.
	RemoteSource = scan.RemoteSource
	// RemoteSourceOptions tunes a RemoteSource.
	RemoteSourceOptions = scan.RemoteOptions
	// FleetOptions tunes the resilience substrate every fleet consumer
	// shares (RemoteSource, the shard Runner, the remote:// sql driver):
	// background /healthz probing, per-member circuit breakers, jittered
	// retry backoff, and the shared retry budget. The zero value means
	// production defaults; see the field docs in internal/resilience.
	FleetOptions = resilience.Options
	// FleetTracker is the live fleet view the resilience layer keeps:
	// per-member health state (healthy / draining / open-breaker) and
	// EWMAs of observed latency and rows/s.
	FleetTracker = resilience.Tracker
	// FleetMember is one tracked fleet member.
	FleetMember = resilience.Member
)

// ErrScanSpec marks scan requests the caller got wrong (unknown table or
// column, out-of-range shard); test with errors.Is.
var ErrScanSpec = scan.ErrSpec

// NewSummarySource returns a Source that generates batches straight from
// the summary — the paper's dynamic regeneration path (§2, §6), now
// behind the same API as every other backend.
func NewSummarySource(s *Summary) *SummarySource { return scan.NewSummarySource(s) }

// OpenDirSource returns a Source over a materialized shard directory
// (the output of Materialize or Orchestrate): part files are decoded
// against their manifests, and each part is re-hashed against its
// recorded SHA-256 the first time a scan opens it.
func OpenDirSource(dir string) (*DirSource, error) { return scan.OpenDir(dir) }

// NewRemoteSource returns a Source over a fleet of regeneration servers
// (see Serve): scans stream from the fleet with the projection executed
// server-side, resume at the exact row offset on failure, and fail over
// across members — which must all serve the same summary digest.
func NewRemoteSource(servers []string, opts RemoteSourceOptions) (*RemoteSource, error) {
	return scan.NewRemoteSource(servers, opts)
}

// EncodeScan drains sc into w as a self-contained file in a
// materialization format (csv, jsonl, sql, heap) and returns the row
// count. The bytes are identical no matter which backend produced the
// scan; a full-table, unprojected scan encodes exactly the file
// Materialize writes. This is what `hydra scan` prints.
func EncodeScan(w io.Writer, sc *Scan, format string) (int64, error) {
	return scan.EncodeScan(w, sc, format)
}

package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/dsl-repro/hydra/internal/trace"
)

// MaxBusyWaits bounds how many 503 capacity rejections one Do call
// waits out before treating saturation as failure, so a permanently
// saturated fleet still surfaces an error instead of waiting forever.
const MaxBusyWaits = 8

// BusyError is a 503 capacity (or drain) rejection with the server's
// Retry-After hint. A busy member is healthy: Do waits it out without a
// breaker hit or a spent attempt.
type BusyError struct {
	RetryAfter time.Duration
	Msg        string
}

func (e *BusyError) Error() string { return e.Msg }

// RetryAfter parses a 503's Retry-After seconds, clamped to
// [100ms, limit]; absent or malformed values mean 1s (capped at limit).
// The seconds are compared with the limit before they are scaled, so a
// value past time.Duration's range clamps instead of wrapping around.
func RetryAfter(resp *http.Response, limit time.Duration) time.Duration {
	d := time.Second
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		if int64(secs) > int64(limit/time.Second) {
			return limit
		}
		d = max(time.Duration(secs)*time.Second, 100*time.Millisecond)
	}
	return min(d, limit)
}

// errorBodyLimit bounds how much of an error response is read back.
const errorBodyLimit = 4 << 10

// StatusError turns a non-200 response into an error and closes its
// body: a *BusyError for 503, its Retry-After capped at
// maxRetryAfter, and otherwise a plain error quoting the status and
// the start of the body.
func StatusError(resp *http.Response, maxRetryAfter time.Duration) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, errorBodyLimit))
	resp.Body.Close()
	text := fmt.Sprintf("answered %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	if resp.StatusCode == http.StatusServiceUnavailable {
		return &BusyError{RetryAfter: RetryAfter(resp, maxRetryAfter), Msg: text}
	}
	return errors.New(text)
}

// Permanent marks an error no other member can fix (a request the
// caller got wrong, a contract the fleet cannot meet): Do returns it at
// once instead of failing over.
func Permanent(err error) error { return &permanentError{err} }

type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Do runs one fleet request: it picks a member, calls try on it, and
// on failure backs off under p and tries again, until try succeeds,
// attempts failures accumulate, or the error is final. It returns the
// number of failures the call absorbed and the final error. The rules
// every fleet consumer shares:
//
//   - A member whose try failed is not picked again in this call until
//     every admitting member has failed in it; then the exclusion
//     resets, so a one-member fleet retries its one member. The
//     exclusion is the call's own state; the tracker's shared
//     round-robin cursor only chooses where each pick starts.
//   - A *BusyError is capacity pushback from a healthy member: no
//     breaker hit and no spent attempt. Its RetryAfter floors the next
//     backoff, and at most MaxBusyWaits of them are waited out.
//   - Any other error reports a failure to the member's breaker and
//     counts one attempt, as does finding no member at all
//     (ErrNoMembers).
//   - An error marked Permanent returns at once, as does any error once
//     ctx has ended (ctx's own error is returned then).
//
// try reports its own successes, with whatever latency or rate it
// measured; Do reports the failures. Trace events (no-member, busy,
// failover, and the policy's retry-backoff) land on ctx's span.
func (t *Tracker) Do(ctx context.Context, p Policy, attempts int, try func(context.Context, *Member) error) (int, error) {
	sp := trace.FromContext(ctx)
	a := p.Begin()
	var excluded []bool // members failed in this call; nil until the first failure
	var lastErr error
	fails, busy := 0, 0
	for {
		var floor time.Duration
		i := t.pick(excluded)
		if i < 0 && excluded != nil {
			clear(excluded)
			i = t.pick(excluded)
		}
		if i < 0 {
			t.m.pickNone.Inc()
			sp.Event("no-member")
			lastErr = ErrNoMembers
			fails++
		} else {
			m := t.members[i]
			err := try(ctx, m)
			if err == nil {
				return fails, nil
			}
			if cerr := ctx.Err(); cerr != nil {
				return fails, cerr
			}
			var perm *permanentError
			if errors.As(err, &perm) {
				return fails, fmt.Errorf("%s: %w", m.URL, perm.err)
			}
			lastErr = fmt.Errorf("%s: %w", m.URL, err)
			var be *BusyError
			if errors.As(err, &be) {
				sp.Event("busy", trace.Str("member", m.URL), trace.Dur("retry_after", be.RetryAfter))
				floor = be.RetryAfter
				busy++
			} else {
				m.ReportFailure()
				sp.Event("failover", trace.Str("member", m.URL), trace.Str("error", err.Error()))
				if excluded == nil {
					excluded = make([]bool, len(t.members))
				}
				excluded[i] = true
				fails++
			}
		}
		if fails >= attempts || busy > MaxBusyWaits || !a.Next(ctx, floor) {
			if cerr := ctx.Err(); cerr != nil {
				return fails, cerr
			}
			return fails, fmt.Errorf("fleet exhausted after %d attempts, last: %w", fails+busy, lastErr)
		}
	}
}

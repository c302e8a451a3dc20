package resilience

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/dsl-repro/hydra/internal/obs"
)

// TestBusyRetryAfterEdgeCases: Retry-After is advisory input from the
// network; negative, huge, and malformed values must all collapse into
// the clamped [100ms, limit] window rather than being trusted. Every
// case runs against both consumer caps: 30s for shard jobs, 5s for
// scans.
func TestBusyRetryAfterEdgeCases(t *testing.T) {
	mk := func(v string, set bool) *http.Response {
		h := http.Header{}
		if set {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	cases := []struct {
		name string
		hdr  string
		set  bool
		want time.Duration // under the 30s cap; a lower cap clamps it further
	}{
		{"absent", "", false, time.Second},
		{"empty", "", true, time.Second},
		{"zero floors", "0", true, 100 * time.Millisecond},
		{"normal", "3", true, 3 * time.Second},
		{"negative means default", "-5", true, time.Second},
		{"huge clamps", "86400", true, 30 * time.Second},
		{"overflow clamps", "99999999999999999999", true, time.Second},
		{"malformed word", "soon", true, time.Second},
		{"http-date form falls back", "Fri, 08 Aug 2026 00:00:00 GMT", true, time.Second},
		{"fractional falls back", "1.5", true, time.Second},
		// Seconds whose nanosecond count wraps int64 once (to ~100ms)
		// and twice (to ~290ms): both must clamp to the cap.
		{"duration overflow clamps", "9223372037", true, 30 * time.Second},
		{"double duration overflow clamps", "18446744074", true, 30 * time.Second},
	}
	for _, limit := range []time.Duration{30 * time.Second, 5 * time.Second} {
		for _, tc := range cases {
			want := min(tc.want, limit)
			if got := RetryAfter(mk(tc.hdr, tc.set), limit); got != want {
				t.Errorf("%s: RetryAfter(%q, %v) = %v, want %v", tc.name, tc.hdr, limit, got, want)
			}
		}
	}
}

// doFleet builds a probe-less, budget-less tracker over fake member
// URLs (Do never dials; the try closures stand in for requests) and a
// zero-jitter policy allowing attempts failures plus the busy waits.
func doFleet(breaker int, attempts int, urls ...string) (*Tracker, Policy) {
	tr := NewTracker(urls, Options{
		ProbeInterval:    -1,
		BreakerThreshold: breaker,
		BreakerCooldown:  time.Hour,
		RetryBudget:      -1,
		Registry:         obs.NewRegistry(),
	})
	p := tr.Policy("test", attempts+MaxBusyWaits)
	p.Rand = func(int64) int64 { return 0 }
	return tr, p
}

// TestDoExcludesFailedMembers: concurrent calls over {always-fail, ok}
// with two attempts all succeed, and none tries the failing member
// twice — even when another job advances the shared round-robin cursor
// between a call's two picks, which is forced here inside every failing
// try.
func TestDoExcludesFailedMembers(t *testing.T) {
	tr, p := doFleet(-1, 2, "fail", "ok")
	const calls = 16
	errs := make([]error, calls)
	failTries := make([]int, calls)
	var wg sync.WaitGroup
	for c := 0; c < calls; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = tr.Do(context.Background(), p, 2, func(_ context.Context, m *Member) error {
				if m.URL == "fail" {
					failTries[c]++
					tr.Pick() // another job's pick moves the shared cursor
					return errors.New("boom")
				}
				return nil
			})
		}(c)
	}
	wg.Wait()
	for c := 0; c < calls; c++ {
		if errs[c] != nil {
			t.Errorf("call %d: %v", c, errs[c])
		}
		if failTries[c] > 1 {
			t.Errorf("call %d tried the failing member %d times", c, failTries[c])
		}
	}
}

// TestDoBusyIsNotAFailure: 503s cost busy waits, not attempts — a
// one-attempt call outlasts two of them — and a member that stays
// saturated fails the call after MaxBusyWaits waits, naming the 503.
func TestDoBusyIsNotAFailure(t *testing.T) {
	tr, p := doFleet(0, 1, "busy")
	tries := 0
	fails, err := tr.Do(context.Background(), p, 1, func(context.Context, *Member) error {
		if tries++; tries <= 2 {
			return &BusyError{Msg: "answered 503"}
		}
		return nil
	})
	if err != nil || tries != 3 || fails != 0 {
		t.Fatalf("err=%v tries=%d fails=%d, want success on the third try with no failures", err, tries, fails)
	}
	if st := tr.Members()[0].State(); st != MemberHealthy {
		t.Fatalf("busy member state %v, want healthy (no breaker hits)", st)
	}

	tries = 0
	_, err = tr.Do(context.Background(), p, 1, func(context.Context, *Member) error {
		tries++
		return &BusyError{Msg: "answered 503"}
	})
	var busy *BusyError
	if !errors.As(err, &busy) || tries != MaxBusyWaits+1 {
		t.Fatalf("err=%v after %d tries, want a BusyError after %d", err, tries, MaxBusyWaits+1)
	}
}

// TestDoPermanentStopsAtOnce: a Permanent error, or any error once ctx
// has ended, returns after one try however many attempts remain.
func TestDoPermanentStopsAtOnce(t *testing.T) {
	tr, p := doFleet(-1, 5, "a", "b")
	bad := errors.New("bad request")
	tries := 0
	_, err := tr.Do(context.Background(), p, 5, func(context.Context, *Member) error {
		tries++
		return Permanent(bad)
	})
	if !errors.Is(err, bad) || tries != 1 {
		t.Fatalf("err=%v after %d tries, want %v after 1", err, tries, bad)
	}

	ctx, cancel := context.WithCancel(context.Background())
	tries = 0
	_, err = tr.Do(ctx, p, 5, func(context.Context, *Member) error {
		tries++
		cancel()
		return errors.New("connection reset")
	})
	if !errors.Is(err, context.Canceled) || tries != 1 {
		t.Fatalf("err=%v after %d tries, want context.Canceled after 1", err, tries)
	}
}

// TestDoNoMembers: with every breaker open the call never reaches try,
// counts each empty pick as a failure, and wraps ErrNoMembers.
func TestDoNoMembers(t *testing.T) {
	tr, p := doFleet(1, 2, "a", "b")
	for _, m := range tr.Members() {
		m.ReportFailure()
	}
	fails, err := tr.Do(context.Background(), p, 2, func(context.Context, *Member) error {
		t.Fatal("try called with every breaker open")
		return nil
	})
	if !errors.Is(err, ErrNoMembers) || fails != 2 {
		t.Fatalf("err=%v fails=%d, want ErrNoMembers after 2", err, fails)
	}
}

// TestDoOneMemberRetries: once every member has failed in a call the
// exclusion resets, so a one-member fleet retries its one member.
func TestDoOneMemberRetries(t *testing.T) {
	tr, p := doFleet(-1, 3, "only")
	var seen []string
	fails, err := tr.Do(context.Background(), p, 3, func(_ context.Context, m *Member) error {
		if seen = append(seen, m.URL); len(seen) < 3 {
			return errors.New("boom")
		}
		return nil
	})
	if err != nil || fails != 2 || len(seen) != 3 {
		t.Fatalf("err=%v fails=%d tries=%v, want success on the third try", err, fails, seen)
	}
}

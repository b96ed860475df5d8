package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestBackoffScheduleDeterministic pins the un-jittered schedule:
// backoffBase·backoffFactor^n clamped at backoffMax, on a fake clock —
// no real sleeping.
func TestBackoffScheduleDeterministic(t *testing.T) {
	var b Backoff
	want := []time.Duration{
		50 * time.Millisecond,
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second, // clamped
		2 * time.Second,
	}
	for n, w := range want {
		if got := b.Delay(n); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", n, got, w)
		}
	}
}

// TestBackoffJitterBounded pins the two jitter invariants: delays
// never exceed the un-jittered value (backoffMax stays a hard bound)
// and never drop below (1-backoffJitter) of it.
func TestBackoffJitterBounded(t *testing.T) {
	b := NewBackoff(7)
	for n := 0; n < 20; n++ {
		pure := (&Backoff{}).Delay(n)
		d := b.Delay(n)
		if d > pure {
			t.Fatalf("Delay(%d) = %v exceeds un-jittered %v", n, d, pure)
		}
		if d > backoffMax {
			t.Fatalf("Delay(%d) = %v exceeds backoffMax %v", n, d, backoffMax)
		}
		if min := time.Duration(float64(pure) * (1 - backoffJitter)); d < min {
			t.Fatalf("Delay(%d) = %v below floor %v", n, d, min)
		}
	}
}

// TestBackoffSeedReplays pins that the same seed replays the same
// jittered schedule — the property the deterministic swarm rests on.
func TestBackoffSeedReplays(t *testing.T) {
	a, b := NewBackoff(42), NewBackoff(42)
	for n := 0; n < 12; n++ {
		if da, db := a.Delay(n), b.Delay(n); da != db {
			t.Fatalf("Delay(%d): seed 42 gave %v then %v", n, da, db)
		}
	}
}

// TestRetryFakeClock drives the full retry loop on a fake clock:
// three retriable failures then success, with the slept durations
// matching the schedule exactly and zero real time passing.
func TestRetryFakeClock(t *testing.T) {
	var b Backoff
	var slept []time.Duration
	clock := func(d time.Duration) { slept = append(slept, d) }
	calls := 0
	err := b.Retry(context.Background(), clock, func(attempt int) (bool, error) {
		calls++
		if attempt < 3 {
			return true, errors.New("429")
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("fn called %d times, want 4", calls)
	}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v", i, slept[i], want[i])
		}
	}
}

// TestRetryBudgetExhausted pins that a persistently retriable error
// surfaces after exactly backoffAttempts tries, with one sleep fewer,
// each the schedule's delay for its attempt.
func TestRetryBudgetExhausted(t *testing.T) {
	var b Backoff
	var slept []time.Duration
	calls := 0
	wantErr := errors.New("still shedding")
	err := b.Retry(context.Background(), func(d time.Duration) { slept = append(slept, d) }, func(int) (bool, error) {
		calls++
		return true, wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if calls != backoffAttempts || len(slept) != backoffAttempts-1 {
		t.Fatalf("calls=%d sleeps=%d, want %d and %d", calls, len(slept), backoffAttempts, backoffAttempts-1)
	}
	for n, d := range slept {
		if want := b.Delay(n); d != want {
			t.Fatalf("sleep %d = %v, want %v", n, d, want)
		}
	}
}

// TestRetryNonRetriableStops pins that a final answer is returned
// immediately — no sleeping, no second attempt.
func TestRetryNonRetriableStops(t *testing.T) {
	b := NewBackoff(1)
	calls := 0
	wantErr := errors.New("400 bad request")
	err := b.Retry(context.Background(), func(time.Duration) { t.Fatal("slept on a non-retriable error") }, func(int) (bool, error) {
		calls++
		return false, wantErr
	})
	if !errors.Is(err, wantErr) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want the error after exactly 1 call", err, calls)
	}
}

// TestRetryContextCanceled pins that a canceled context stops the
// loop before the next attempt.
func TestRetryContextCanceled(t *testing.T) {
	var b Backoff
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := b.Retry(ctx, func(time.Duration) {}, func(int) (bool, error) {
		calls++
		cancel()
		return true, errors.New("503")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times after cancel, want 1", calls)
	}
}

// TestRetriable pins the status contract shared with the server.
func TestRetriable(t *testing.T) {
	for status, want := range map[int]bool{429: true, 503: true, 200: false, 400: false, 409: false, 422: false, 500: false, 504: false} {
		if got := Retriable(status); got != want {
			t.Fatalf("Retriable(%d) = %v, want %v", status, got, want)
		}
	}
}

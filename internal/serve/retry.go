package serve

import (
	"context"
	"math/rand"
	"time"
)

// The retry schedule: attempt n (0-based) waits
// backoffBase·backoffFactor^n, clamped to backoffMax; Retry makes at
// most backoffAttempts tries.
const (
	backoffBase     = 50 * time.Millisecond
	backoffFactor   = 2
	backoffMax      = 2 * time.Second
	backoffJitter   = 0.5
	backoffAttempts = 8
)

// Backoff computes bounded exponential retry delays with seeded
// jitter. It is the client-side half of the server's load-shedding
// contract: a 429 or 503 means "come back later", and the backoff
// spreads the retries out so the thundering herd does not re-form on
// the same tick.
//
// A backoff with an rng jitters each delay downward by up to
// backoffJitter·delay; the zero Backoff is the deterministic schedule.
// Jitter is subtractive on purpose: backoffMax stays a hard upper
// bound on any delay the schedule can produce.
type Backoff struct {
	rng *rand.Rand
}

// NewBackoff returns the schedule with jitter drawn from the given
// seed — the same seed replays the same delays, which is what lets the
// swarm driver be deterministic end to end.
func NewBackoff(seed int64) *Backoff {
	return &Backoff{rng: rand.New(rand.NewSource(seed))}
}

// Delay returns the jittered delay before retry attempt n (0-based).
func (b *Backoff) Delay(attempt int) time.Duration {
	d, m := float64(backoffBase), float64(backoffMax)
	for i := 0; i < attempt && d < m; i++ {
		d *= backoffFactor
	}
	if d > m {
		d = m
	}
	if b.rng != nil {
		d -= backoffJitter * d * b.rng.Float64()
	}
	return time.Duration(d)
}

// Retriable reports whether an HTTP status is worth retrying under
// this schedule: 429 (shed) and 503 (draining or overloaded) are the
// two statuses the server uses to mean "later", everything else is a
// final answer.
func Retriable(status int) bool {
	return status == 429 || status == 503
}

// Retry runs fn until it succeeds, returns a non-retriable outcome,
// or the attempt budget is spent. fn reports (retriable, err); sleep
// is injectable so tests can run the schedule on a fake clock. A nil
// sleep uses a context-aware real-time wait.
func (b *Backoff) Retry(ctx context.Context, sleep func(time.Duration), fn func(attempt int) (retriable bool, err error)) error {
	if sleep == nil {
		sleep = func(d time.Duration) {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
			}
		}
	}
	var err error
	var again bool
	for attempt := 0; attempt < backoffAttempts; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		again, err = fn(attempt)
		if err == nil || !again {
			return err
		}
		if attempt+1 < backoffAttempts {
			sleep(b.Delay(attempt))
		}
	}
	return err
}

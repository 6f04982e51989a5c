package rt

import (
	"sync"
	"time"

	"repro/internal/clock"
)

// RetryPolicy configures the synchronous call retry loop (Call /
// CallCtx). The zero value makes defaultMaxAttempts delivery attempts
// with no backoff between them.
type RetryPolicy struct {
	// MaxAttempts bounds total delivery attempts per call, including
	// the first; each retry refreshes a stale binding first
	// (0 = defaultMaxAttempts). 1 disables retries.
	MaxAttempts int
	// BaseBackoff is the backoff ceiling before the first retry; each
	// subsequent retry doubles the ceiling up to MaxBackoff, and the
	// actual sleep is drawn uniformly from [0, ceiling] ("full
	// jitter", which decorrelates retry storms). 0 disables backoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff ceiling (default 1s when BaseBackoff
	// is set).
	MaxBackoff time.Duration
}

// defaultMaxAttempts is the attempt bound of a zero RetryPolicy: the
// first delivery and two stale-binding refreshes.
const defaultMaxAttempts = 3

// backoff returns the jittered sleep before retry number `retry`
// (0-based), using rnd as a source of [0,n) randomness.
func (p RetryPolicy) backoff(retry int, rnd func(int) int) time.Duration {
	if p.BaseBackoff <= 0 {
		return 0
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = time.Second
	}
	ceiling := p.BaseBackoff
	for i := 0; i < retry && ceiling < maxB; i++ {
		ceiling *= 2
	}
	if ceiling > maxB {
		ceiling = maxB
	}
	if ceiling <= 0 {
		return 0
	}
	return time.Duration(rnd(int(ceiling) + 1))
}

// RetryBudget is a token bucket that bounds the RATE of retries
// (first attempts are free). Under a partial outage every caller
// retrying MaxAttempts times multiplies offered load exactly when the
// system can least afford it; a shared budget lets a few calls retry
// while the rest fail fast. A nil *RetryBudget means "unlimited".
//
// Tokens refill continuously at RefillPerSec up to Capacity; each
// retry takes one token or, if the bucket is empty, is denied.
type RetryBudget struct {
	mu       sync.Mutex
	tokens   float64
	capacity float64
	rate     float64 // tokens per second
	last     time.Time
}

// NewRetryBudget builds a budget holding at most capacity tokens,
// refilling at refillPerSec. The bucket starts full.
func NewRetryBudget(capacity, refillPerSec float64) *RetryBudget {
	if capacity < 1 {
		capacity = 1
	}
	if refillPerSec < 0 {
		refillPerSec = 0
	}
	// last is stamped lazily on the first take so the refill baseline
	// comes from whichever clock the caller runs on (a budget built
	// before a virtual clock is installed would otherwise never refill:
	// construction wall time sits far ahead of the virtual epoch).
	return &RetryBudget{
		tokens:   capacity,
		capacity: capacity,
		rate:     refillPerSec,
	}
}

// takeAt consumes one retry token at now, reporting false when the
// budget is exhausted (the caller should give up rather than amplify
// load). now comes from the caller's clock, so callers behind a virtual
// clock refill deterministically.
func (b *RetryBudget) takeAt(now time.Time) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.last = now
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.capacity {
			b.tokens = b.capacity
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// sleepBackoff sleeps for d on clk but returns early (false) if the
// deadline would pass first — there is no point finishing a backoff
// the call cannot use.
func sleepBackoff(clk clock.Clock, d time.Duration, deadline time.Time) bool {
	if d <= 0 {
		return true
	}
	if !deadline.IsZero() {
		remain := clk.Until(deadline)
		if remain <= 0 {
			return false
		}
		if d >= remain {
			clk.Sleep(remain)
			return false
		}
	}
	clk.Sleep(d)
	return true
}

package repair

import (
	"draid/internal/backend"
	"draid/internal/sim"
)

// RateLimiter is the token bucket every repair walk is paced by. Shared by
// the repair managers of every volume on a cluster it is one
// reconstruction-byte budget all concurrent walks draw from, so two degraded
// volumes do not each consume a full rebuild rate's worth of shared drive
// and NIC bandwidth; a walk without a shared limiter gets a private one
// (walker.walk). Reservations are granted in call order (first claim drains
// the bucket first), which on the deterministic engine makes the
// arbitration reproducible.
type RateLimiter struct {
	eng      backend.Runtime
	rateMBps float64
	nextFree sim.Time
}

// NewRateLimiter builds a limiter. rateMBps <= 0 means unlimited.
func NewRateLimiter(eng backend.Runtime, rateMBps float64) *RateLimiter {
	return &RateLimiter{eng: eng, rateMBps: rateMBps}
}

// Reserve books bytes against the shared budget and returns how long the
// caller must wait (from now) before starting its transfer. The budget is
// consumed immediately, so a concurrent caller's reservation lands after
// this one.
func (l *RateLimiter) Reserve(bytes int64) sim.Duration {
	if l.rateMBps <= 0 {
		return 0
	}
	now := l.eng.Now()
	start := l.nextFree
	if start < now {
		start = now
	}
	bytesPerNs := l.rateMBps * 1e6 / 1e9
	l.nextFree = start + sim.Time(float64(bytes)/bytesPerNs)
	return sim.Duration(start - now)
}

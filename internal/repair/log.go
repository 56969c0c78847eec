package repair

import (
	"fmt"

	"draid/internal/backend"
	"draid/internal/sim"
)

// LogCapacity is how many events a Log keeps: the newest ones, each new
// event overwriting the oldest once the ring is full. It is a constant, not
// a knob — a long-lived array with periodic scrub logs a pass every interval
// forever, and its status read must stay the same size.
const LogCapacity = 256

// Event is one entry of an array's recovery log.
type Event struct {
	Time sim.Time
	// Kind is one of "failed", "rebuild-start", "rebuild-done",
	// "rebuild-error", "failover", "scrub-pass", "scrub-repair",
	// "scrub-error", "lost-region", "drive-add", "drive-remove",
	// "rebalance-done" and "rebalance-error".
	Kind   string
	Member int // the member concerned, or -1 for array-wide events
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("%-10v %-13s m%d %s", e.Time, e.Kind, e.Member, e.Detail)
}

// Log is the bounded recovery log of one array, shared by everything that
// repairs it: the supervisor, the scrubber and every rebuilder. Like the
// trace collector it is handed to each of them at construction, and a nil
// *Log discards what it is given. Confined to the host loop, as they are.
type Log struct {
	eng backend.Runtime
	buf []Event // grows to LogCapacity, then wraps
	n   int     // events ever added
}

// NewLog returns an empty log stamping events with eng's clock.
func NewLog(eng backend.Runtime) *Log { return &Log{eng: eng} }

// Add appends an event at the current time, dropping the oldest when full.
func (l *Log) Add(kind string, member int, detail string) {
	if l == nil {
		return
	}
	e := Event{Time: l.eng.Now(), Kind: kind, Member: member, Detail: detail}
	if len(l.buf) < LogCapacity {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.n%LogCapacity] = e
	}
	l.n++
}

// Events returns the kept events, oldest first. The oldest sits at
// n%LogCapacity; before the ring first fills that is len(buf), and the copy
// wraps round to 0 all the same.
func (l *Log) Events() []Event {
	start := l.n % LogCapacity
	out := make([]Event, 0, len(l.buf))
	return append(append(out, l.buf[start:]...), l.buf[:start]...)
}

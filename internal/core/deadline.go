package core

import (
	"container/heap"

	"draid/internal/backend"
	"draid/internal/sim"
)

// deadlines is the host's §5.4 op-deadline machinery: every live stripe op
// sits in a min-heap on (expires, id), and one runtime timer is armed for the
// earliest expiry. Finishing or cancelling an op removes it from the heap at
// once, so the heap holds live ops only; the timer is stopped when the heap
// empties, so a drained host holds no foreground work and Run returns. It is
// a heap, not a FIFO, because heartbeat probes carry shorter deadlines than
// data ops.
type deadlines struct {
	heap []*stripeOp
	// cur is the current arming of timer, which fires at at; nil while the
	// timer is disarmed. Re-arming stops it first, so there is never more
	// than one live timer.
	cur   *arming
	timer backend.Timer
	at    sim.Time
	// gen numbers the armings. A fire whose arming is not the current one
	// lost a Stop race (realtime only: the timer had already posted its
	// callback when Stop ran) and does nothing.
	gen uint64
	// free holds arming records with no fire pending.
	free []*arming
}

// arming is one arming of the deadline timer. Records are reused once their
// timer is stopped or has fired, and fireFn is bound once per record, so
// arming the timer allocates nothing beyond what the runtime's timer costs.
type arming struct {
	h      *HostController
	gen    uint64
	fireFn func()
}

// fire is the timer's callback: the current arming expires ops, a stale one
// only returns its record.
func (a *arming) fire() {
	d := &a.h.deadlines
	live := d.cur != nil && a.gen == d.gen
	d.free = append(d.free, a)
	if live {
		d.cur, d.timer = nil, nil
		a.h.expireOps()
	}
}

// deadlines is a heap.Interface over the live ops; each op keeps its index
// in hidx so that it can be removed when it finishes.
func (d *deadlines) Len() int { return len(d.heap) }

func (d *deadlines) Less(i, j int) bool {
	a, b := d.heap[i], d.heap[j]
	return a.expires < b.expires || (a.expires == b.expires && a.id < b.id)
}

func (d *deadlines) Swap(i, j int) {
	d.heap[i], d.heap[j] = d.heap[j], d.heap[i]
	d.heap[i].hidx = i
	d.heap[j].hidx = j
}

func (d *deadlines) Push(x any) {
	op := x.(*stripeOp)
	op.hidx = len(d.heap)
	d.heap = append(d.heap, op)
}

func (d *deadlines) Pop() any {
	last := len(d.heap) - 1
	op := d.heap[last]
	d.heap[last] = nil
	d.heap = d.heap[:last]
	return op
}

// stop disarms the timer. A stopped arming's record is free at once unless
// its fire is already on its way.
func (d *deadlines) stop() {
	if d.cur == nil {
		return
	}
	if d.timer.Stop() {
		d.free = append(d.free, d.cur)
	}
	d.cur, d.timer = nil, nil
}

// arm points the one timer at instant at.
func (h *HostController) arm(at sim.Time) {
	d := &h.deadlines
	d.stop()
	var a *arming
	if k := len(d.free); k > 0 {
		a = d.free[k-1]
		d.free = d.free[:k-1]
	} else {
		a = &arming{h: h}
		a.fireFn = a.fire
	}
	d.gen++
	a.gen = d.gen
	d.timer = h.rt.After(sim.Duration(at-h.rt.Now()), a.fireFn)
	d.cur, d.at = a, at
}

// watch starts op's deadline, expiring at op.expires.
func (h *HostController) watch(op *stripeOp) {
	d := &h.deadlines
	heap.Push(d, op)
	if d.cur == nil || op.expires < d.at {
		h.arm(op.expires)
	}
}

// unwatch ends op's deadline.
func (h *HostController) unwatch(op *stripeOp) {
	d := &h.deadlines
	heap.Remove(d, op.hidx)
	if len(d.heap) == 0 {
		d.stop()
	}
}

// expireOps runs when the deadline timer fires: it fails every op whose
// deadline has passed, in (expires, id) order, then re-arms for the next.
func (h *HostController) expireOps() {
	d := &h.deadlines
	now := h.rt.Now()
	for len(d.heap) > 0 && d.heap[0].expires <= now {
		h.timeout(d.heap[0])
	}
	// An op a failure continuation began has armed the timer already.
	if len(d.heap) > 0 && d.cur == nil {
		h.arm(d.heap[0].expires)
	}
}

// timeout fails an op whose deadline passed. Every endpoint the op sent to
// that never completed is reported to the health sink — confirmed when its
// node is observably down, suspect otherwise — before failedFn runs with the
// down set.
func (h *HostController) timeout(op *stripeOp) {
	h.stats.Timeouts++
	var down, silent []NodeID
	for _, c := range op.sent {
		switch {
		case c.answered:
		case h.fab.Down(c.to):
			down = append(down, c.to)
		default:
			silent = append(silent, c.to)
		}
	}
	// Evidence attribution: a confirmed-down participant explains the whole
	// stall (peer chains run through it), so silent peers are NOT blamed —
	// charging them unconfirmed strikes would let one dead node fail innocent
	// members by collateral evidence.
	for _, t := range down {
		h.reportFault(h.memberOf(t), true)
	}
	if len(down) == 0 {
		for _, t := range silent {
			h.reportFault(h.memberOf(t), false)
		}
	}
	h.failOp(op, down)
}

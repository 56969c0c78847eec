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
// data ops. The timer is built once and re-armed, so arming it — which at a
// queue depth of one or two happens every op — allocates nothing.
type deadlines struct {
	heap  []*stripeOp
	timer backend.Rearmable
	// armed: the timer is set for at.
	armed bool
	at    sim.Time
	arms  uint64 // armings so far
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

// stop disarms the timer.
func (d *deadlines) stop() {
	if d.armed {
		d.timer.Stop()
		d.armed = false
	}
}

// arm points the one timer at instant at.
func (h *HostController) arm(at sim.Time) {
	d := &h.deadlines
	d.timer.Arm(sim.Duration(at - h.rt.Now()))
	d.armed, d.at = true, at
	d.arms++
}

// deadlineFired is the timer's callback.
func (h *HostController) deadlineFired() {
	h.deadlines.armed = false
	h.expireOps()
}

// watch starts op's deadline, expiring at op.expires.
func (h *HostController) watch(op *stripeOp) {
	d := &h.deadlines
	heap.Push(d, op)
	if !d.armed || op.expires < d.at {
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
	if len(d.heap) > 0 && !d.armed {
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

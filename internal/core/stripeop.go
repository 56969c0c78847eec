package core

import (
	"fmt"
	"math/bits"

	"draid/internal/blockdev"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/sim"
	"draid/internal/trace"
)

// The stripe-op engine: every exchange the host has with the targets — a
// stripe write, a reduce tree, a gather, a probe, a fence — is one stripeOp,
// and an op is what it sent. Each send declares the completions its capsule
// earns; the watch set for the deadline, the number of answers to wait for
// and the admission of each completion all derive from that one list, so no
// caller counts anything. DESIGN.md, "Stripe-op engine", has the table of op
// kinds.

// replies is the set of completions one capsule earns its op, told apart by
// completion subtype (bit 1<<Subtype).
type replies uint8

const (
	// noReply: the target answers its peers, not the host (an RCW reader, a
	// reconstruction participant). It is still watched for timeout blame.
	noReply replies = 0
	// oneReply: the plain completion of a read, write, partial write, parity
	// anchor, heartbeat or fence.
	oneReply replies = 1 << nvmeof.SubNone
	// reducedReply: a reducer's reconstructed segment (§6.1).
	reducedReply replies = 1 << nvmeof.SubNoRead
	// riderReply: a reconstruction participant's own segment of the user read,
	// returned directly (§6.1 AlsoRead). A reducer carrying a rider owes both.
	riderReply replies = 1 << nvmeof.SubAlsoRead
)

// capsule is one command an op sent.
type capsule struct {
	to       NodeID
	owes     replies   // completions still owed for it
	answered bool      // a completion of any status came back: not to blame on timeout
	span     *trace.Op // the open RPC span, when tracing
}

func (c *capsule) endSpan() {
	if c.span != nil {
		c.span.End()
		c.span = nil
	}
}

// stripeOp is one stripe-granularity operation (a stripe write or a
// degraded-read reconstruction group). Ops come from the host's slab and go
// back the moment they are over, so a record is reused under a new ID;
// whatever may outlive one holds an opRef.
type stripeOp struct {
	id     uint64
	stripe int64
	// sent lists the op's capsules in send order; owed counts the completions
	// they still earn. The op finishes when owed returns to zero. A reused
	// record keeps sent's storage.
	sent     []capsule
	owed     int
	failedFn func(missing []NodeID)
	doneFn   func()
	// expires is when the op fails unless it has finished; hidx is its index
	// in the host's deadline heap (deadline.go).
	expires sim.Time
	hidx    int
	// read assembly: completions carrying payloads are routed here. The hook
	// becomes b's owner: it calls b.Release() once the bytes are copied out (a
	// drive-read buffer then goes straight back to its drive's free list), or
	// keeps b.Disown(). A hook that does neither shows up in LeakCheck.
	onPayload func(from NodeID, cmd nvmeof.Command, b parity.Buffer)
	// onMediaErr, when set, takes over after a StatusMediaError completion:
	// the op is cancelled (no doneFn/failedFn) and the hook drives its own
	// recovery continuation. The completion's Offset/Length carry the
	// precise unreadable drive range; member is the reporter's index in the
	// stripe. When nil, the op fails blaming no member (media errors are not
	// node-failure evidence).
	onMediaErr func(member int, cmd nvmeof.Command)
	done       bool
	span       *trace.Op // covers the whole operation
}

// opRef names one use of a pooled op: the record and the ID it had. It is
// live only while the record still carries that ID and has not finished, so
// a handle kept past the op — a hedge watching a plain read, a send waiting
// for its CPU slot — can neither cancel nor feed the op that reuses the
// record.
type opRef struct {
	op *stripeOp
	id uint64
}

func (r opRef) live() bool { return r.op != nil && r.op.id == r.id && !r.op.done }

func (op *stripeOp) ref() opRef { return opRef{op, op.id} }

// admit matches a completion to the capsule it answers, or returns nil when
// the op does not owe it: a success is admitted only while that (endpoint,
// subtype) reply is outstanding, so a duplicate can never stand in for a
// participant that has not answered. Trouble is admitted from anyone the op
// sent to — a zero-reply participant reports a media error this way.
func (op *stripeOp) admit(from NodeID, cmd nvmeof.Command) *capsule {
	for i := range op.sent {
		c := &op.sent[i]
		if c.to == from && (cmd.Status != nvmeof.StatusSuccess || c.owes&(1<<cmd.Subtype) != 0) {
			return c
		}
	}
	return nil
}

// closeSpans ends the op span and any RPC spans still open (participants that
// never send a completion, e.g. SubRWRead readers, or a timed-out exchange).
func (op *stripeOp) closeSpans(result string) {
	if op.span != nil {
		if result == "" {
			op.span.End()
		} else {
			op.span.End(trace.Str("result", result))
		}
		op.span = nil
	}
	for i := range op.sent {
		op.sent[i].endSpan()
	}
}

// beginOp opens an operation with the configured deadline. kind names it on
// the trace ("rmw-write", "degraded-read", …). The caller sends its capsules
// before returning to the event loop; done runs once every completion they
// earn is in.
func (h *HostController) beginOp(kind string, stripe int64, done func(), failed func([]NodeID)) *stripeOp {
	return h.beginOpDeadline(kind, stripe, h.cfg.Deadline, done, failed)
}

// beginOpDeadline is beginOp with an explicit deadline (heartbeat probes run
// much tighter than data ops). An op still open when its deadline passes
// fails through timeout (deadline.go).
func (h *HostController) beginOpDeadline(kind string, stripe int64, deadline sim.Duration, done func(), failed func([]NodeID)) *stripeOp {
	h.nextID++
	op := h.ops.Get()
	op.id, op.stripe, op.doneFn, op.failedFn, op.done = h.nextID, stripe, done, failed, false
	op.expires = h.rt.Now() + sim.Time(max(deadline, 0))
	h.inflight[op.id] = op
	if t := h.cfg.Tracer; t.Enabled() {
		op.span = t.Begin(h.opsTrack, "op", kind,
			trace.I64("stripe", stripe), trace.I64("id", int64(op.id)))
	}
	h.watch(op)
	return op
}

// send issues a capsule for an operation, stamped with the op ID, the
// controller's volume, and its host epoch so servers and the fabric demux
// can attribute (and, for the epoch, fence) it. owes declares the completions
// the capsule earns the op.
func (h *HostController) send(op *stripeOp, to NodeID, owes replies, cmd nvmeof.Command, payload parity.Buffer) {
	cmd.ID = op.id
	cmd.NSID = uint32(h.cfg.Volume)
	cmd.Epoch = h.cfg.Epoch
	c := capsule{to: to, owes: owes}
	if t := h.cfg.Tracer; t.Enabled() {
		c.span = t.Begin(h.rpcTrack, "rpc",
			fmt.Sprintf("%s→t%d", cmd.SpanName(), int(to)), trace.I64("id", int64(op.id)))
	}
	op.sent = append(op.sent, c)
	op.owed += bits.OnesCount8(uint8(owes))
	h.fab.Send(HostID, to, cmd, payload)
}

// sgl returns a one-entry SGL. Entries are carved from blocks that are never
// reused: a capsule can outlive its op (duplicated, or parked behind a
// stalled drive) and a server reads the SGL only after its drive read, so an
// entry is written once and left to the garbage collector with its block.
func (h *HostController) sgl(e nvmeof.SGE) []nvmeof.SGE {
	if len(h.sgles) == 0 {
		h.sgles = make([]nvmeof.SGE, 256)
	}
	s := h.sgles[:1:1]
	s[0], h.sgles = e, h.sgles[1:]
	return s
}

// handle takes completions arriving from targets: each waits in the inbox for
// its per-message CPU slot. The host owns every payload delivered here: one
// that no op takes is released on the spot.
func (h *HostController) handle(m Message) {
	if h.crashed {
		m.Payload.Release()
		return
	}
	h.inbox.push(m)
	h.cores.Exec(h.cfg.Costs.PerMsg, h.nextMsg)
}

// applyNext applies the oldest completion in the inbox.
func (h *HostController) applyNext() {
	if m := h.inbox.pop(); !h.complete(m) {
		m.Payload.Release()
	}
}

// complete applies one completion to its op, reporting whether the op's
// onPayload hook took (and so settled the fate of) the payload.
func (h *HostController) complete(m Message) (tookPayload bool) {
	if h.crashed {
		return false
	}
	if m.Cmd.Opcode != nvmeof.OpCompletion {
		panic(fmt.Sprintf("core: host received %v", m.Cmd.Opcode))
	}
	if m.Cmd.Epoch != h.cfg.Epoch {
		// A completion echoing someone else's epoch: the answer to a
		// command a predecessor issued. After a seize both sessions share
		// the ID sequence, so without this check a zombie's completion
		// could settle (or fail) the replacement's op of the same ID.
		h.stats.ForeignCompletions++
		return false
	}
	op, ok := h.inflight[m.Cmd.ID]
	if !ok {
		return false // a late completion: its op is over, the record maybe reused
	}
	c := op.admit(m.From, m.Cmd)
	if c == nil {
		return false
	}
	c.answered = true
	c.endSpan()
	if m.Cmd.Status == nvmeof.StatusMediaError {
		// Per-chunk erasure: the member is alive and answering, it just
		// cannot read some sectors. That is OK-evidence for the health
		// machinery (not a node fault), and the op either hands off to
		// its media-recovery hook or fails blaming no member so write
		// paths fall back and re-drive the stripe.
		h.stats.MediaErrors++
		member := h.memberOf(m.From)
		h.reportOK(member)
		if hook := op.onMediaErr; hook != nil {
			// Health evidence above is per drive; the hook works in the
			// stripe's member space (skip sets, roles, repair addressing).
			member := h.memberOfAt(op.stripe, m.From)
			h.cancelOp(op, "media-error")
			hook(member, m.Cmd)
			return false
		}
		h.failOp(op, nil)
		return false
	}
	if m.Cmd.Status == nvmeof.StatusStaleEpoch {
		// Positive confirmation of a takeover: the bdev is healthy, WE
		// are the problem. Stand down (before failing the op, so its
		// failure path reports the typed error) and never charge the
		// bdev fault evidence for doing its job.
		h.stats.StaleEpochRejects++
		h.reportOK(h.memberOf(m.From))
		h.standDown(blockdev.ErrStaleEpoch)
		h.failOp(op, nil)
		return false
	}
	if m.Cmd.Status != nvmeof.StatusSuccess {
		h.reportFault(h.memberOf(m.From), true)
		h.failOp(op, []NodeID{m.From})
		return false
	}
	h.reportOK(h.memberOf(m.From))
	// Tick the reply off first: the hook may send more (a serial readMembers
	// issues its next read), which can move op.sent and owes the op again.
	c.owes &^= 1 << m.Cmd.Subtype
	op.owed--
	tookPayload = m.Payload.Len() > 0 && op.onPayload != nil
	if tookPayload {
		op.onPayload(m.From, m.Cmd, m.Payload)
	}
	if op.owed == 0 {
		h.finishOp(op)
	}
	return tookPayload
}

// cancelOp retires an operation without firing doneFn or failedFn — a
// media-error hook or a winning hedge owns the continuation — and reports
// false when the op was already over. The record goes back to the slab: the
// caller must not touch op afterwards.
func (h *HostController) cancelOp(op *stripeOp, result string) bool {
	if op.done {
		return false
	}
	op.done = true
	h.unwatch(op)
	delete(h.inflight, op.id)
	op.closeSpans(result)
	op.sent, op.owed = op.sent[:0], 0
	op.doneFn, op.failedFn, op.onPayload, op.onMediaErr = nil, nil, nil, nil
	h.ops.Put(op)
	return true
}

func (h *HostController) finishOp(op *stripeOp) {
	if done := op.doneFn; h.cancelOp(op, "") {
		done()
	}
}

func (h *HostController) failOp(op *stripeOp, missing []NodeID) {
	if failed := op.failedFn; h.cancelOp(op, "failed") {
		failed(missing)
	}
}

// cancel retires the op r names if it is still that op's, reporting whether
// it did.
func (h *HostController) cancel(r opRef, result string) bool {
	return r.live() && h.cancelOp(r.op, result)
}

package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"draid/internal/backend"
	"draid/internal/backend/realtime"
	"draid/internal/core"
	"draid/internal/cpu"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/sim"
)

// The traced pass records spans from outside the program under test: the
// benchmark assembles the same realtime cluster cluster.NewRealtime does,
// from the same public constructors, but hands the controllers decorated
// transports, drives, runtimes and a decorated host device. Nothing outside
// this directory is edited.

type spanKind uint8

const (
	spanOp     spanKind = iota // user op: issue until callback (host layer)
	spanSend                   // capsule: Send until the destination handler is invoked (transport layer)
	spanDrive                  // drive Read/Write call until its callback (drive layer)
	spanServer                 // derived: command delivered to node n until n's last capsule for it is sent
)

// span is one recorded interval. Times are nanoseconds since the tracer
// started. node is where the span ended (-1 = host); from is the sender of
// a capsule. cmd is the command ID all spans of one stripe operation share;
// op is the user op they belong to.
type span struct {
	start, end int64
	cmd        uint64
	op         uint32
	bytes      uint32
	kind       spanKind
	code       uint8 // op/drive: 1 = read, 0 = write; send: the capsule's opcode
	node, from int8
}

func (s span) interval() interval { return interval{s.start, s.end} }

// wireHeader is the per-message framing the realtime transports book
// against their traffic counters on top of the capsule and payload.
const wireHeader = 128

// shard holds the spans one node's loop recorded.
type shard struct {
	mu    sync.Mutex
	spans []span
}

// timeQueue carries send times from a sender to one receiver. Delivery is
// FIFO per ordered pair on both transports, so the n-th handler invocation
// for a pair belongs to the n-th Send.
type timeQueue struct {
	mu sync.Mutex
	q  []int64
}

func (q *timeQueue) push(t int64) {
	q.mu.Lock()
	q.q = append(q.q, t)
	q.mu.Unlock()
}

func (q *timeQueue) pop() (int64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.q) == 0 {
		return 0, false
	}
	t := q.q[0]
	q.q = q.q[1:]
	return t, true
}

// tracer collects spans in memory. Recording is switched on only while the
// cluster is quiescent, so every Send it sees has its delivery seen too.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	shards []*shard       // index node+1
	queues [][]*timeQueue // [from+1][to+1]
	// ctx is each node's current context, touched only from that node's
	// loop: on the host the user op being worked on, on a target the command
	// ID. The decorated runtimes carry it across Defer/After/Exec hops.
	ctx []uint64
	// cmdOp links a command ID to the user op whose context issued it, and
	// nextOp numbers user ops from 1. Host loop only.
	cmdOp  map[uint64]uint32
	nextOp uint32
}

func newTracer(width int) *tracer {
	t := &tracer{epoch: time.Now(), ctx: make([]uint64, width+1), cmdOp: make(map[uint64]uint32)}
	for i := 0; i <= width; i++ {
		t.shards = append(t.shards, &shard{})
		row := make([]*timeQueue, width+1)
		for j := range row {
			row[j] = &timeQueue{}
		}
		t.queues = append(t.queues, row)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(node backend.NodeID, s span) {
	sh := t.shards[node+1]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// all returns every recorded span. Call it with the cluster quiescent.
func (t *tracer) all() []span {
	var out []span
	for _, sh := range t.shards {
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	return out
}

// ---------------------------------------------------------------------------
// Decorators.

// nodeRuntime is what a controller is scheduled on: realtime's NodeRuntime
// and Bed both provide it.
type nodeRuntime interface {
	backend.Runtime
	backend.Executor
}

// tracedRuntime carries a node's context across its own scheduling hops, so
// work a controller defers while handling command c is still charged to c.
type tracedRuntime struct {
	inner nodeRuntime
	ctx   *uint64
}

func (r *tracedRuntime) carry(fn func()) func() {
	c := *r.ctx
	if c == 0 {
		return fn
	}
	return func() {
		prev := *r.ctx
		*r.ctx = c
		fn()
		*r.ctx = prev
	}
}

func (r *tracedRuntime) Now() sim.Time    { return r.inner.Now() }
func (r *tracedRuntime) Rand() *rand.Rand { return r.inner.Rand() }
func (r *tracedRuntime) Defer(fn func())  { r.inner.Defer(r.carry(fn)) }
func (r *tracedRuntime) After(d sim.Duration, fn func()) backend.Timer {
	return r.inner.After(d, r.carry(fn))
}
func (r *tracedRuntime) AfterBG(d sim.Duration, fn func()) backend.Timer {
	return r.inner.AfterBG(d, r.carry(fn))
}
func (r *tracedRuntime) Exec(d sim.Duration, fn func()) { r.inner.Exec(d, r.carry(fn)) }

func (t *tracer) runtime(node backend.NodeID, inner nodeRuntime) *tracedRuntime {
	return &tracedRuntime{inner: inner, ctx: &t.ctx[node+1]}
}

// tracedTransport times every capsule from Send until the destination's
// handler is invoked, and sets the destination's context for the handler.
type tracedTransport struct {
	backend.Transport
	t *tracer
}

func (x *tracedTransport) Send(from, to backend.NodeID, cmd nvmeof.Command, payload parity.Buffer) {
	if x.t.on.Load() && !x.Down(from) && !x.Down(to) {
		if from == backend.HostID {
			if op := uint32(x.t.ctx[0]); op != 0 {
				x.t.cmdOp[cmd.ID] = op
			}
		}
		x.t.queues[from+1][to+1].push(x.t.now())
	}
	x.Transport.Send(from, to, cmd, payload)
}

func (x *tracedTransport) Register(id backend.NodeID, h backend.Handler) {
	x.Transport.Register(id, x.handler(id, h))
}

func (x *tracedTransport) RegisterVolume(id backend.NodeID, vol backend.VolumeID, h backend.Handler) {
	x.Transport.RegisterVolume(id, vol, x.handler(id, h))
}

func (x *tracedTransport) handler(id backend.NodeID, h backend.Handler) backend.Handler {
	t := x.t
	return func(m backend.Message) {
		if !t.on.Load() {
			h(m)
			return
		}
		if sent, ok := t.queues[m.From+1][id+1].pop(); ok {
			t.record(id, span{
				kind: spanSend, start: sent, end: t.now(), cmd: m.Cmd.ID, code: uint8(m.Cmd.Opcode),
				bytes: uint32(m.Cmd.EncodedSize() + m.Payload.Len() + wireHeader),
				node:  int8(id), from: int8(m.From),
			})
		}
		ctx := &t.ctx[id+1]
		if id == backend.HostID {
			*ctx = uint64(t.cmdOp[m.Cmd.ID])
		} else {
			*ctx = m.Cmd.ID
		}
		h(m)
		*ctx = 0
	}
}

// tracedDrive times every Read and Write from the call until its callback,
// under the command the calling controller was working on.
type tracedDrive struct {
	backend.Drive
	t    *tracer
	node backend.NodeID
}

func (d *tracedDrive) begin() (on bool, start int64, cmd uint64) {
	if !d.t.on.Load() {
		return false, 0, 0
	}
	return true, d.t.now(), d.t.ctx[d.node+1]
}

func (d *tracedDrive) end(start int64, cmd uint64, n int64, read uint8, cb func()) {
	d.t.record(d.node, span{kind: spanDrive, start: start, end: d.t.now(), cmd: cmd,
		bytes: uint32(n), code: read, node: int8(d.node)})
	ctx := &d.t.ctx[d.node+1]
	prev := *ctx
	*ctx = cmd
	cb()
	*ctx = prev
}

func (d *tracedDrive) Read(off, n int64, cb func(parity.Buffer, error)) {
	on, start, cmd := d.begin()
	if !on {
		d.Drive.Read(off, n, cb)
		return
	}
	d.Drive.Read(off, n, func(b parity.Buffer, err error) {
		d.end(start, cmd, n, 1, func() { cb(b, err) })
	})
}

func (d *tracedDrive) Write(off int64, b parity.Buffer, cb func(error)) {
	on, start, cmd := d.begin()
	if !on {
		d.Drive.Write(off, b, cb)
		return
	}
	d.Drive.Write(off, b, func(err error) {
		d.end(start, cmd, int64(b.Len()), 0, func() { cb(err) })
	})
}

// tracedDevice is the user-facing device of the traced assembly. Like
// draid's own realtime device it marshals every op onto the host loop; it
// times the op from the caller's issue until the callback and makes the op
// the host's context while the controller starts it.
type tracedDevice struct {
	host *core.HostController
	rt   *realtime.Bed
	t    *tracer
}

func (d *tracedDevice) Size() int64 { return d.host.Size() }

// start runs on the host loop: it numbers the op and returns the function
// that records its span.
func (d *tracedDevice) start(issued int64, n int64, read uint8) (op uint32, finish func()) {
	if !d.t.on.Load() {
		return 0, func() {}
	}
	d.t.nextOp++
	op = d.t.nextOp
	return op, func() {
		d.t.record(backend.HostID, span{kind: spanOp, start: issued, end: d.t.now(), op: op,
			bytes: uint32(n), code: read, node: int8(backend.HostID)})
	}
}

func (d *tracedDevice) Read(off, n int64, cb func([]byte, error)) {
	issued := d.t.now()
	d.rt.Defer(func() {
		op, finish := d.start(issued, n, 1)
		d.t.ctx[0] = uint64(op)
		d.host.Read(off, n, func(b parity.Buffer, err error) {
			finish()
			if err != nil {
				cb(nil, err)
				return
			}
			cb(b.Data(), nil)
		})
		d.t.ctx[0] = 0
	})
}

func (d *tracedDevice) Write(off int64, data []byte, cb func(error)) {
	issued := d.t.now()
	d.rt.Defer(func() {
		op, finish := d.start(issued, int64(len(data)), 0)
		d.t.ctx[0] = uint64(op)
		d.host.Write(off, parity.FromBytes(data), func(err error) {
			finish()
			cb(err)
		})
		d.t.ctx[0] = 0
	})
}

// newTracedBed returns a bed builder that assembles the workload's array
// from the constructors cluster.NewRealtime and draid.New use, with every
// layer boundary decorated. A test pins that it issues exactly the capsules
// and drive ops the draid.New array does.
func newTracedBed(t *tracer) func(workload, int64) (*bed, error) {
	return func(w workload, seed int64) (*bed, error) {
		rb := realtime.NewBed(seed, rtDrives)
		var fab backend.Transport
		closeTransport := func() error { return nil }
		if w.tcp {
			tcp, err := realtime.NewTCPTransport(rb, rtDrives)
			if err != nil {
				_ = rb.Close() // the listen error is the one to report
				return nil, err
			}
			fab, closeTransport = tcp, tcp.Close
		} else {
			fab = realtime.NewChanTransport(rb, rtDrives)
		}
		tfab := &tracedTransport{Transport: fab, t: t}
		costs := cpu.DefaultCosts()
		drives := make([]backend.Drive, rtDrives)
		for i := range drives {
			id := backend.NodeID(i)
			rt := rb.NodeRuntime(id)
			drives[i] = &tracedDrive{Drive: realtime.NewMemDrive(rt, rtDriveCap, true), t: t, node: id}
			trt := t.runtime(id, rt)
			core.NewServer(id, trt, tfab, drives[i], trt, core.ServerConfig{Costs: costs, Pipelined: true})
		}
		host := core.NewHost(t.runtime(backend.HostID, rb), tfab, rtDriveCap,
			core.Config{Geometry: rtGeometry, Costs: costs})
		return &bed{
			dev:       &tracedDevice{host: host, rt: rb, t: t},
			drives:    drives,
			hostBytes: fab.(backend.Traffic).HostBytes,
			fail: func(member int) {
				fab.SetDown(backend.NodeID(member), true)
				drives[member].Fail()
				rb.Call(func() { host.SetFailed(member, true) })
			},
			close: func() error {
				err := closeTransport()
				_ = rb.Close() // always nil
				return err
			},
		}, nil
	}
}

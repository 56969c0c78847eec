package realtime

import (
	"fmt"
	"sync"

	"draid/internal/backend"
	"draid/internal/nvmeof"
	"draid/internal/parity"
)

// wireHeaderBytes is the per-message framing overhead counted against the
// traffic totals, matching the simulated fabric's default header size.
const wireHeaderBytes = 128

// volKey addresses a volume-scoped handler on one endpoint.
type volKey struct {
	node backend.NodeID
	vol  backend.VolumeID
}

// volTraffic counts one volume's host wire bytes.
type volTraffic struct{ out, in int64 }

// endpoints is the registration/routing/accounting state shared by both
// realtime transports. All fields are guarded by mu: unlike the simulation,
// senders and receivers live on different goroutines.
type endpoints struct {
	mu          sync.Mutex
	width       int
	handlers    map[backend.NodeID]backend.Handler
	volHandlers map[volKey]backend.Handler
	down        map[backend.NodeID]bool
	partitions  map[[2]backend.NodeID]bool
	dupOnce     map[[2]backend.NodeID]bool
	hostOut     int64
	hostIn      int64
	volBytes    map[backend.VolumeID]*volTraffic
}

func newEndpoints(width int) endpoints {
	return endpoints{
		width:       width,
		handlers:    make(map[backend.NodeID]backend.Handler),
		volHandlers: make(map[volKey]backend.Handler),
		down:        make(map[backend.NodeID]bool),
		partitions:  make(map[[2]backend.NodeID]bool),
		dupOnce:     make(map[[2]backend.NodeID]bool),
		volBytes:    make(map[backend.VolumeID]*volTraffic),
	}
}

// InjectPartition cuts traffic between two endpoints in the given
// direction(s). Cut messages vanish after consuming sender bandwidth,
// exactly like messages to a down node — only the sender's op deadline
// notices. Both realtime transports share this state via embedding.
func (e *endpoints) InjectPartition(a, b backend.NodeID, dir backend.PartitionDir) {
	e.mu.Lock()
	if dir == backend.PartitionBoth || dir == backend.PartitionAToB {
		e.partitions[[2]backend.NodeID{a, b}] = true
	}
	if dir == backend.PartitionBoth || dir == backend.PartitionBToA {
		e.partitions[[2]backend.NodeID{b, a}] = true
	}
	e.mu.Unlock()
}

// HealPartition restores traffic between two endpoints in the given
// direction(s).
func (e *endpoints) HealPartition(a, b backend.NodeID, dir backend.PartitionDir) {
	e.mu.Lock()
	if dir == backend.PartitionBoth || dir == backend.PartitionAToB {
		delete(e.partitions, [2]backend.NodeID{a, b})
	}
	if dir == backend.PartitionBoth || dir == backend.PartitionBToA {
		delete(e.partitions, [2]backend.NodeID{b, a})
	}
	e.mu.Unlock()
}

// Partitioned reports whether messages from 'from' to 'to' are cut.
func (e *endpoints) Partitioned(from, to backend.NodeID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.partitions[[2]backend.NodeID{from, to}]
}

// DuplicateNext arms a one-shot duplication for the ordered pair: the next
// message from 'from' to 'to' is delivered twice back to back (a late
// fabric retransmission). Both realtime transports share this state.
func (e *endpoints) DuplicateNext(from, to backend.NodeID) {
	e.mu.Lock()
	e.dupOnce[[2]backend.NodeID{from, to}] = true
	e.mu.Unlock()
}

func (e *endpoints) Register(id backend.NodeID, h backend.Handler) {
	e.mu.Lock()
	e.handlers[id] = h
	e.mu.Unlock()
}

func (e *endpoints) RegisterVolume(id backend.NodeID, vol backend.VolumeID, h backend.Handler) {
	e.mu.Lock()
	e.volHandlers[volKey{node: id, vol: vol}] = h
	e.mu.Unlock()
}

func (e *endpoints) Width() int { return e.width }

func (e *endpoints) Down(id backend.NodeID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.down[id]
}

func (e *endpoints) SetDown(id backend.NodeID, down bool) {
	e.mu.Lock()
	e.down[id] = down
	e.mu.Unlock()
}

// admitSend runs the sender-side checks and accounting of one capsule in a
// single critical section and returns how many copies to deliver: 0 when the
// sender is down or the pair is partitioned, 2 when a one-shot duplication
// was armed (and is now consumed), else 1. Outbound host bytes are booked
// before the partition check (NIC-counter semantics: a message cut
// downstream still consumed send bandwidth).
func (e *endpoints) admitSend(from, to backend.NodeID, vol backend.VolumeID, wire int64) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.down[from] {
		return 0
	}
	if from == backend.HostID {
		e.hostOut += wire
		e.vol(vol).out += wire
	}
	key := [2]backend.NodeID{from, to}
	if e.partitions[key] {
		return 0
	}
	if e.dupOnce[key] {
		delete(e.dupOnce, key)
		return 2
	}
	return 1
}

// accept runs the delivery-side checks and accounting, returning the handler
// to invoke (nil: the destination is down or has no handler).
func (e *endpoints) accept(to backend.NodeID, vol backend.VolumeID, wire int64) backend.Handler {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.down[to] {
		return nil
	}
	if to == backend.HostID {
		e.hostIn += wire
		e.vol(vol).in += wire
	}
	if h, ok := e.volHandlers[volKey{node: to, vol: vol}]; ok {
		return h
	}
	return e.handlers[to]
}

// deliver runs one queued delivery on the destination's loop, for either
// transport: the handler takes the message and owns its payload, or — the
// destination went down after admission, or has no handler — the message
// vanishes and the transport, its last owner, releases the payload.
func (e *endpoints) deliver(to backend.NodeID, m backend.Message, wire int64) {
	if h := e.accept(to, backend.VolumeID(m.Cmd.NSID), wire); h != nil {
		h(m)
	} else {
		m.Payload.Release()
	}
}

// vol returns (creating on demand) a volume's traffic record. Callers hold mu.
func (e *endpoints) vol(id backend.VolumeID) *volTraffic {
	t, ok := e.volBytes[id]
	if !ok {
		t = &volTraffic{}
		e.volBytes[id] = t
	}
	return t
}

func (e *endpoints) HostBytes() (out, in int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hostOut, e.hostIn
}

func (e *endpoints) HostVolumeBytes(vol backend.VolumeID) (out, in int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if t, ok := e.volBytes[vol]; ok {
		return t.out, t.in
	}
	return 0, 0
}

func (e *endpoints) ResetTraffic() {
	e.mu.Lock()
	e.hostOut, e.hostIn = 0, 0
	for _, t := range e.volBytes {
		t.out, t.in = 0, 0
	}
	e.mu.Unlock()
}

// ChanTransport moves capsules between node loops in-process: a Send queues a
// delivery record on the destination's loop. The payload is not copied — the
// receiving handler gets the sender's buffer and owns it from then on
// (backend.Transport's ownership rule); only an injected duplicate is cloned,
// so each delivery can be released on its own. The message holds a
// foreground token until the handler returns, so Run() observes in-flight
// messages exactly as the simulation's event count does.
type ChanTransport struct {
	endpoints
	bed *Bed
}

// NewChanTransport builds the in-process transport over bed's loops.
func NewChanTransport(bed *Bed, width int) *ChanTransport {
	return &ChanTransport{endpoints: newEndpoints(width), bed: bed}
}

// Send implements backend.Transport. Messages from or to a down endpoint
// vanish (the sender's op deadline fires, as on the simulated fabric).
func (t *ChanTransport) Send(from, to backend.NodeID, cmd nvmeof.Command, payload parity.Buffer) {
	if from == to {
		panic(fmt.Sprintf("realtime: send from %d to itself", from))
	}
	wire := int64(cmd.EncodedSize()) + int64(payload.Len()) + wireHeaderBytes
	switch t.admitSend(from, to, backend.VolumeID(cmd.NSID), wire) {
	case 0:
		payload.Release()
	case 1:
		t.post(from, to, cmd, payload, wire)
	default:
		dup := payload.Clone() // taken before the first delivery can release it
		t.post(from, to, cmd, payload, wire)
		t.post(from, to, cmd, dup, wire)
	}
}

// post queues one delivery on the destination's loop.
func (t *ChanTransport) post(from, to backend.NodeID, cmd nvmeof.Command, payload parity.Buffer, wire int64) {
	t.bed.hold()
	t.bed.post(t.bed.loopFor(to), task{
		ep: &t.endpoints, to: to, wire: wire, fg: true,
		msg: backend.Message{Cmd: cmd, Payload: payload, From: from},
	})
}

var (
	_ backend.Transport         = (*ChanTransport)(nil)
	_ backend.Traffic           = (*ChanTransport)(nil)
	_ backend.PartitionInjector = (*ChanTransport)(nil)
	_ backend.DuplicateInjector = (*ChanTransport)(nil)
)

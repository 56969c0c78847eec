// Package core implements dRAID itself: the host-side controller (a virtual
// block device that orchestrates disaggregated RAID I/O) and the server-side
// controller (the dRAID bdev that executes PartialWrite/Parity/
// Reconstruction/Peer commands, Algorithms 1 and 2 of the paper).
//
// The host controller also runs the paper's host-centric comparison systems
// (Config.Reduce: SPDK, Linux): those speak only the standard NVMe-oF subset
// (Read/Write) to the same servers — exactly the paper's comparison setup.
package core

import (
	"fmt"

	"draid/internal/backend"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/simnet"
	"draid/internal/slab"
)

// The wire-level vocabulary (endpoint IDs, volume IDs, messages, handlers)
// is defined by the backend package, shared by every transport
// implementation. The names here are aliases kept for existing callers.

// NodeID identifies an endpoint on the fabric: HostID for the host, 0..n-1
// for storage targets.
type NodeID = backend.NodeID

// HostID is the host's NodeID.
const HostID = backend.HostID

// VolumeID identifies one virtual array (an NVMe namespace) among the many
// that may share a cluster.
type VolumeID = backend.VolumeID

// NoDest marks an unused next-dest field.
const NoDest uint16 = 0xFFFF

// fromName renders a NodeID as a short trace label ("host" or "tN").
func fromName(id NodeID) string {
	if id == HostID {
		return "host"
	}
	return fmt.Sprintf("t%d", int(id))
}

// NoScale in Command.DataIdx marks a Peer contribution that is XORed raw
// (P-style); any other value i means the reducer scales it by g^i (Q-style).
const NoScale uint16 = 0xFFFF

// Message is a capsule plus its (possibly elided) payload. Payload bytes are
// pushed with the capsule; the transfer consumes sender and receiver NIC
// bandwidth but no receiver CPU beyond per-message processing, modelling
// one-sided RDMA data movement.
type Message = backend.Message

// Handler consumes messages delivered to a fabric endpoint.
type Handler = backend.Handler

// Fabric wires the host and targets with reliable connections: host↔target
// stars plus a full target↔target mesh (created pairwise by the server-side
// controllers in the paper, §3). Several member bdevs may share one
// physical server node (§5.5 resource sharing); transfers between
// co-located bdevs stay local and consume no NIC bandwidth, and only one
// connection exists per server pair (the §5.5 connection-sharing rule).
type Fabric struct {
	net      *simnet.Network
	hostNode *simnet.Node
	targets  []*simnet.Node
	hostConn []*simnet.Conn          // host ↔ target i (shared per node, nil = co-located)
	mesh     map[[2]int]*simnet.Conn // target i ↔ j, i < j (nil = co-located)
	handlers map[NodeID]Handler
	// volHandlers demultiplexes the shared host endpoint by volume: every
	// capsule carries its VolumeID in NSID, so N host controllers can share
	// one fabric endpoint without seeing each other's completions. Servers
	// stay volume-agnostic and register in handlers.
	volHandlers map[volKey]Handler
	// volBytes attributes host-NIC wire bytes (capsule + payload + header)
	// to the volume named in each capsule — the per-tenant half of the
	// Table 1 traffic accounting. Mirrors NIC counter semantics: out counts
	// at send (even if the message is later dropped), in counts at delivery.
	volBytes map[VolumeID]*volTraffic
	// corruptDrops counts capsules discarded at the receiving NIC because
	// their command-level CRC32C (nvmeof.Command.Checksum) failed after
	// injected wire corruption. The sender sees a timeout and retries.
	corruptDrops int64
	// recs pools the send records of capsules in flight.
	recs slab.Slab[sendRec]
}

// volKey addresses a volume-scoped handler on one endpoint.
type volKey struct {
	node NodeID
	vol  VolumeID
}

// volTraffic counts one volume's host-NIC bytes.
type volTraffic struct{ out, in int64 }

// NewFabric connects hostNode to every target server and servers pairwise.
// Entries of targets may repeat (co-located bdevs), and hostNode may be one of
// them (a controller offloaded onto a storage server, §7): each distinct node
// pair gets exactly one connection, and same-node pairs get none.
func NewFabric(net *simnet.Network, hostNode *simnet.Node, targets []*simnet.Node) *Fabric {
	f := &Fabric{
		net: net, hostNode: hostNode, targets: targets,
		mesh:        make(map[[2]int]*simnet.Conn),
		handlers:    make(map[NodeID]Handler),
		volHandlers: make(map[volKey]Handler),
		volBytes:    make(map[VolumeID]*volTraffic),
	}
	f.recs.New = f.makeSendRec
	hostByNode := make(map[*simnet.Node]*simnet.Conn)
	for _, t := range targets {
		c, ok := hostByNode[t]
		if !ok && t != hostNode {
			c = net.Connect(hostNode, t)
			hostByNode[t] = c
		}
		f.hostConn = append(f.hostConn, c)
	}
	meshByNodes := make(map[[2]*simnet.Node]*simnet.Conn)
	for i := range targets {
		for j := i + 1; j < len(targets); j++ {
			if targets[i] == targets[j] {
				continue // co-located: local transfers
			}
			key := [2]*simnet.Node{targets[i], targets[j]}
			c, ok := meshByNodes[key]
			if !ok {
				key2 := [2]*simnet.Node{targets[j], targets[i]}
				if c2, ok2 := meshByNodes[key2]; ok2 {
					c, ok = c2, true
				}
			}
			if !ok {
				c = net.Connect(targets[i], targets[j])
				meshByNodes[key] = c
			}
			f.mesh[[2]int{i, j}] = c
		}
	}
	return f
}

// Register installs the endpoint-wide message handler for an endpoint: the
// fallback when no volume-scoped handler matches a capsule's NSID. Servers
// (volume-agnostic bdevs) register here.
func (f *Fabric) Register(id NodeID, h Handler) { f.handlers[id] = h }

// RegisterVolume installs a volume-scoped handler on an endpoint: capsules
// whose NSID names vol are delivered to h, others fall back to the
// endpoint-wide handler. Host controllers register here so many volumes can
// share the host endpoint. Re-registering (host failover) replaces the
// handler.
func (f *Fabric) RegisterVolume(id NodeID, vol VolumeID, h Handler) {
	f.volHandlers[volKey{node: id, vol: vol}] = h
}

// deliver routes a message to the endpoint's volume handler when one is
// registered for the capsule's namespace, else to the endpoint-wide handler.
func (f *Fabric) deliver(to NodeID, m Message) {
	if h, ok := f.volHandlers[volKey{node: to, vol: VolumeID(m.Cmd.NSID)}]; ok {
		h(m)
		return
	}
	if h := f.handlers[to]; h != nil {
		h(m)
	}
}

// vol returns (creating on demand) the traffic record for a volume.
func (f *Fabric) vol(id VolumeID) *volTraffic {
	t, ok := f.volBytes[id]
	if !ok {
		t = &volTraffic{}
		f.volBytes[id] = t
	}
	return t
}

// HostVolumeBytes reports the host-NIC wire bytes (out, in) attributed to
// one volume since the last ResetHostVolumeBytes. Summed over a cluster's
// volumes it equals the host node's NIC counters (sans offload-client
// traffic, which bypasses the fabric).
func (f *Fabric) HostVolumeBytes(vol VolumeID) (out, in int64) {
	if t, ok := f.volBytes[vol]; ok {
		return t.out, t.in
	}
	return 0, 0
}

// ResetHostVolumeBytes zeroes the per-volume host traffic attribution.
func (f *Fabric) ResetHostVolumeBytes() {
	for _, t := range f.volBytes {
		t.out, t.in = 0, 0
	}
}

// Width returns the number of targets.
func (f *Fabric) Width() int { return len(f.targets) }

// Down reports whether an endpoint's node is unreachable.
func (f *Fabric) Down(id NodeID) bool { return f.Node(id).Down() }

// SetDown makes an endpoint's node unreachable (true) or reachable (false).
// Note that co-located bdevs share a node, so taking one down takes down its
// neighbours — exactly the blast radius of a server failure (§5.5).
func (f *Fabric) SetDown(id NodeID, down bool) { f.Node(id).SetDown(down) }

// Node returns the simnet node behind an endpoint.
func (f *Fabric) Node(id NodeID) *simnet.Node {
	if id == HostID {
		return f.hostNode
	}
	return f.targets[id]
}

// HostNode returns the host's simnet node.
func (f *Fabric) HostNode() *simnet.Node { return f.hostNode }

// Targets returns the target nodes.
func (f *Fabric) Targets() []*simnet.Node { return f.targets }

// Connection exposes the underlying connection between two endpoints, for
// fault injection in tests and experiments.
func (f *Fabric) Connection(a, b NodeID) *simnet.Conn { return f.conn(a, b) }

// conn returns the connection between two endpoints.
func (f *Fabric) conn(a, b NodeID) *simnet.Conn {
	switch {
	case a == HostID:
		return f.hostConn[b]
	case b == HostID:
		return f.hostConn[a]
	default:
		i, j := int(a), int(b)
		if i > j {
			i, j = j, i
		}
		return f.mesh[[2]int{i, j}]
	}
}

// InjectPartition cuts the fabric between two endpoints in the given
// direction(s): messages crossing the cut vanish after consuming sender
// bandwidth, exactly like messages to a down node — only the sender's §5.4
// deadline notices. Endpoints sharing a server node share a connection, so
// partitioning one bdev pair partitions the whole node pair (the same blast
// radius as SetDown, §5.5); co-located bdevs exchange local memcpys and
// cannot be partitioned from each other (the cut is a silent no-op there).
func (f *Fabric) InjectPartition(a, b NodeID, dir backend.PartitionDir) {
	f.setPartition(a, b, dir, true)
}

// HealPartition restores the fabric between two endpoints in the given
// direction(s).
func (f *Fabric) HealPartition(a, b NodeID, dir backend.PartitionDir) {
	f.setPartition(a, b, dir, false)
}

func (f *Fabric) setPartition(a, b NodeID, dir backend.PartitionDir, cut bool) {
	c := f.conn(a, b)
	if c == nil {
		return // co-located bdevs: local transfers bypass the network
	}
	apply := func(from *simnet.Node) {
		if cut {
			c.InjectPartitionDirection(from)
		} else {
			c.HealPartitionDirection(from)
		}
	}
	if dir == backend.PartitionBoth || dir == backend.PartitionAToB {
		apply(f.Node(a))
	}
	if dir == backend.PartitionBoth || dir == backend.PartitionBToA {
		apply(f.Node(b))
	}
}

// Partitioned reports whether messages from 'from' to 'to' are cut.
func (f *Fabric) Partitioned(from, to NodeID) bool {
	c := f.conn(from, to)
	if c == nil {
		return false
	}
	return c.PartitionedFrom(f.Node(from))
}

// DuplicateNext arms a one-shot duplication of the next message from 'from'
// to 'to' (a late fabric retransmission — backend.DuplicateInjector).
// Co-located bdevs exchange local memcpys: the arm is a silent no-op there.
func (f *Fabric) DuplicateNext(from, to NodeID) {
	c := f.conn(from, to)
	if c == nil {
		return
	}
	c.InjectDuplicateOnceDirection(f.Node(from))
}

// Send transmits a capsule (and payload) from one endpoint to another. Wire
// size is the encoded capsule plus payload length. Delivery invokes the
// destination's handler; messages to failed nodes vanish (sender times
// out). Transfers between bdevs sharing one server node bypass the network
// entirely (a local memcpy, §5.5).
func (f *Fabric) Send(from, to NodeID, cmd nvmeof.Command, payload parity.Buffer) {
	if from == to {
		panic(fmt.Sprintf("core: send from %d to itself", from))
	}
	srcNode, dstNode := f.Node(from), f.Node(to)
	if srcNode == dstNode {
		if srcNode.Down() {
			return
		}
		r := f.newSendRec(from, to, cmd, payload)
		r.pending = 1
		f.net.Eng.Defer(r.localFn)
		return
	}
	c := f.conn(from, to)
	if c == nil {
		panic(fmt.Sprintf("core: no connection %d→%d", from, to))
	}
	size := int64(cmd.EncodedSize()) + int64(payload.Len())
	wire := size + f.net.Config().HeaderBytes
	if from == HostID {
		// Outbound bytes count at send, like the NIC's counter: a message
		// dropped downstream still consumed host NIC bandwidth.
		f.vol(VolumeID(cmd.NSID)).out += wire
	}
	r := f.newSendRec(from, to, cmd, payload)
	r.wire = wire
	if r.pending = c.SendChecked(srcNode, size, r.arriveFn); r.pending == 0 {
		f.freeSendRec(r)
	}
}

// sendRec is one capsule on its way through the fabric. Records are pooled by
// the Fabric, and arriveFn and localFn are bound once per record, so sending
// a capsule allocates nothing. A message the network loses after sending
// never comes back for its record, which is then left to the collector.
type sendRec struct {
	f        *Fabric
	from, to NodeID
	cmd      nvmeof.Command
	payload  parity.Buffer
	wire     int64
	// pending counts the deliveries still to come: 2 for a duplicated
	// capsule, whose record is freed only after the second.
	pending int

	arriveFn func(corrupted bool)
	localFn  func()
}

func (f *Fabric) makeSendRec() *sendRec {
	r := &sendRec{f: f}
	r.arriveFn, r.localFn = r.arrive, r.local
	return r
}

func (f *Fabric) newSendRec(from, to NodeID, cmd nvmeof.Command, payload parity.Buffer) *sendRec {
	r := f.recs.Get()
	r.from, r.to, r.cmd, r.payload = from, to, cmd, payload
	return r
}

func (f *Fabric) freeSendRec(r *sendRec) {
	r.cmd, r.payload = nvmeof.Command{}, parity.Buffer{}
	f.recs.Put(r)
}

// take returns one delivery's message, freeing the record after the last.
func (r *sendRec) take() Message {
	m := Message{Cmd: r.cmd, Payload: r.payload, From: r.from}
	if r.pending--; r.pending == 0 {
		r.f.freeSendRec(r)
	}
	return m
}

// arrive is a NIC delivery. The receiving NIC validates the capsule's CRC32C
// before accepting it: a corrupted capsule (or one guarding a corrupted
// payload) is discarded there, and the sender's §5.4 deadline fires as if the
// message had been lost.
func (r *sendRec) arrive(corrupted bool) {
	f, to, wire := r.f, r.to, r.wire
	m := r.take()
	if to == HostID {
		f.vol(VolumeID(m.Cmd.NSID)).in += wire
	}
	if corrupted {
		f.corruptDrops++
		return
	}
	f.deliver(to, m)
}

// local is a delivery between co-located bdevs.
func (r *sendRec) local() {
	f, to := r.f, r.to
	m := r.take()
	if f.Node(to).Down() {
		return
	}
	f.deliver(to, m)
}

// CorruptDrops reports how many capsules were discarded after failing the
// receiver-side command checksum (injected wire corruption).
func (f *Fabric) CorruptDrops() int64 { return f.corruptDrops }

// The simulated fabric is the deterministic backend.Transport, with
// pairwise partition and duplication injection.
var (
	_ backend.Transport         = (*Fabric)(nil)
	_ backend.PartitionInjector = (*Fabric)(nil)
	_ backend.DuplicateInjector = (*Fabric)(nil)
)

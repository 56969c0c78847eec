// Package simnet models a datacenter network at the fidelity dRAID's
// evaluation depends on: per-NIC full-duplex line-rate serialization, a
// non-blocking switch fabric, propagation and per-message latency, reliable
// FIFO connections (the RDMA RC stand-in), byte-level traffic accounting,
// and fault injection.
//
// A transfer of S bytes from node A to node B occupies A's chosen NIC
// outbound pipe for S/rate, travels PropDelay+PerMsgDelay, then occupies B's
// NIC inbound pipe for S/rate before delivery. Pipes are FIFO reservations
// (busy-until), so aggregate throughput through a NIC is capped at exactly
// its line rate — the arithmetic the paper's bandwidth arguments rest on.
package simnet

import (
	"fmt"

	"draid/internal/sim"
	"draid/internal/trace"
)

// Config holds network-wide parameters. The defaults mirror a modern
// datacenter fabric (the paper's Dell Z9264 + ConnectX-5 testbed).
type Config struct {
	// PropDelay is one-way propagation through the fabric.
	PropDelay sim.Duration
	// PerMsgDelay is fixed per-message processing (doorbell, completion,
	// DMA setup) added to every transfer.
	PerMsgDelay sim.Duration
	// HeaderBytes is wire overhead added to every message's size.
	HeaderBytes int64
	// Goodput derates NIC line rate for protocol overhead (0 < g ≤ 1).
	// The paper measures ~92 Gbps of goodput on a 100 Gbps NIC ⇒ 0.92.
	Goodput float64
}

// DefaultConfig returns parameters calibrated to the paper's testbed.
func DefaultConfig() Config {
	return Config{
		PropDelay:   2 * sim.Microsecond,
		PerMsgDelay: 1 * sim.Microsecond,
		HeaderBytes: 128,
		Goodput:     0.92,
	}
}

// Network is the fabric connecting all nodes.
type Network struct {
	Eng    *sim.Engine
	cfg    Config
	nodes  map[string]*Node
	tracer *trace.Collector
	// free holds flight records no message is using.
	free []*flight
}

// SetTracer enables per-NIC serialization spans. Call before adding nodes so
// every NIC registers its track; nil disables.
func (n *Network) SetTracer(c *trace.Collector) { n.tracer = c }

// New creates an empty network on the given engine.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Goodput <= 0 || cfg.Goodput > 1 {
		panic(fmt.Sprintf("simnet: goodput %v out of (0,1]", cfg.Goodput))
	}
	return &Network{Eng: eng, cfg: cfg, nodes: make(map[string]*Node)}
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// NewNode adds a node. Names must be unique.
func (n *Network) NewNode(name string) *Node {
	if _, dup := n.nodes[name]; dup {
		panic("simnet: duplicate node " + name)
	}
	nd := &Node{name: name, net: n}
	n.nodes[name] = nd
	return nd
}

// Node returns the named node, or nil.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// pipe is a FIFO bandwidth reservation: each transfer occupies the pipe for
// size/rate, queued behind earlier transfers.
type pipe struct {
	rate      float64 // bytes per virtual nanosecond
	busyUntil sim.Time
	busyTotal sim.Duration // accumulated service time, for utilization
	bytes     int64
	msgs      int64
}

func (p *pipe) reserve(now sim.Time, size int64) (start, done sim.Time) {
	start = now
	if p.busyUntil > start {
		start = p.busyUntil
	}
	svc := sim.Duration(float64(size) / p.rate)
	p.busyUntil = start + sim.Time(svc)
	p.busyTotal += svc
	p.bytes += size
	p.msgs++
	return start, p.busyUntil
}

// NIC is one network interface with full-duplex line rate.
type NIC struct {
	name    string
	node    *Node
	rateBps int64 // raw line rate in bits/sec (before goodput derating)
	out, in pipe
	conns   int // connections placed on this NIC, for least-used placement
	// txTrack/rxTrack are tracing timelines for the two pipes (tracer != nil).
	txTrack, rxTrack trace.Track
}

// GbpsToBps converts gigabits/sec to bits/sec.
func GbpsToBps(gbps float64) int64 { return int64(gbps * 1e9) }

// RateBps returns the NIC's raw line rate in bits per second.
func (c *NIC) RateBps() int64 { return c.rateBps }

// GoodputBytesPerSec returns the usable payload rate in bytes per second.
func (c *NIC) GoodputBytesPerSec() float64 {
	return float64(c.rateBps) / 8 * c.node.net.cfg.Goodput
}

// Name returns "node/nic".
func (c *NIC) Name() string { return c.node.name + "/" + c.name }

// BytesOut and BytesIn return cumulative payload+header bytes through the NIC.
func (c *NIC) BytesOut() int64 { return c.out.bytes }

// BytesIn returns cumulative inbound bytes through the NIC.
func (c *NIC) BytesIn() int64 { return c.in.bytes }

// BusyOut returns accumulated outbound service time (for utilization math).
func (c *NIC) BusyOut() sim.Duration { return c.out.busyTotal }

// BusyIn returns accumulated inbound service time.
func (c *NIC) BusyIn() sim.Duration { return c.in.busyTotal }

// Node is a machine on the fabric: a host or a storage server.
type Node struct {
	name string
	net  *Network
	nics []*NIC
	down bool
}

// Name returns the node name.
func (nd *Node) Name() string { return nd.name }

// AddNIC attaches a NIC with the given line rate in Gbps.
func (nd *Node) AddNIC(name string, gbps float64) *NIC {
	rate := float64(GbpsToBps(gbps)) / 8 * nd.net.cfg.Goodput / 1e9 // bytes per ns
	nic := &NIC{
		name: name, node: nd, rateBps: GbpsToBps(gbps),
		out: pipe{rate: rate}, in: pipe{rate: rate},
	}
	if t := nd.net.tracer; t.Enabled() {
		nic.txTrack = t.Track(nd.name, name+".tx")
		nic.rxTrack = t.Track(nd.name, name+".rx")
		t.AddGauge(nic.txTrack, nd.name+"/"+name+" tx util",
			trace.UtilizationGauge(nd.net.Eng, func() sim.Duration { return nic.out.busyTotal }))
		t.AddGauge(nic.rxTrack, nd.name+"/"+name+" rx util",
			trace.UtilizationGauge(nd.net.Eng, func() sim.Duration { return nic.in.busyTotal }))
	}
	nd.nics = append(nd.nics, nic)
	return nic
}

// NICs returns the node's NICs.
func (nd *Node) NICs() []*NIC { return nd.nics }

// leastUsedNIC implements the paper's §5.5 placement rule: new connections
// go on the NIC with the fewest connections (ties: first added).
func (nd *Node) leastUsedNIC() *NIC {
	if len(nd.nics) == 0 {
		panic("simnet: node " + nd.name + " has no NIC")
	}
	best := nd.nics[0]
	for _, c := range nd.nics[1:] {
		if c.conns < best.conns {
			best = c
		}
	}
	return best
}

// SetDown marks the node failed (true) or recovered (false). Messages to or
// from a down node are silently dropped — the sender learns only via its own
// timeout, as on a real fabric.
func (nd *Node) SetDown(down bool) { nd.down = down }

// Down reports the node's failure state.
func (nd *Node) Down() bool { return nd.down }

// BytesOut sums outbound bytes over all NICs.
func (nd *Node) BytesOut() int64 {
	var t int64
	for _, c := range nd.nics {
		t += c.out.bytes
	}
	return t
}

// BytesIn sums inbound bytes over all NICs.
func (nd *Node) BytesIn() int64 {
	var t int64
	for _, c := range nd.nics {
		t += c.in.bytes
	}
	return t
}

// ResetCounters zeroes all NIC byte/message counters (not busy state).
func (nd *Node) ResetCounters() {
	for _, c := range nd.nics {
		c.out.bytes, c.out.msgs, c.in.bytes, c.in.msgs = 0, 0, 0, 0
	}
}

// Conn is a reliable FIFO connection between two nodes (an RDMA RC queue
// pair). Each endpoint is pinned to one NIC chosen at connect time by the
// least-used rule.
type Conn struct {
	net   *Network
	aNode *Node
	bNode *Node
	aNIC  *NIC
	bNIC  *NIC
	// Fault injection is per direction (index 0: a→b, index 1: b→a), so
	// asymmetric faults — host→target lost while target→host delivers — are
	// expressible. InjectDrop/InjectDelay set both directions.
	dropProb    [2]float64
	corruptProb [2]float64
	delay       [2]sim.Duration
	// partitioned cuts a direction entirely: every message vanishes in the
	// fabric after consuming sender bandwidth, exactly like a message to a
	// down node. Unlike dropProb it is deterministic (no RNG draw), so
	// arming or healing a partition never perturbs the engine RNG stream —
	// and it composes with drop/corrupt/delay injection on the same
	// connection.
	partitioned [2]bool
	// duplicate arms a one-shot per-direction duplication: the next message
	// sent that way is delivered twice back to back (each copy consuming
	// receiver bandwidth), modeling a retransmission the fabric resolved
	// late. Deterministic — no RNG draw — and self-clearing.
	duplicate [2]bool
}

// Connect establishes a connection between two distinct nodes.
func (n *Network) Connect(a, b *Node) *Conn {
	if a == b {
		panic("simnet: connecting node to itself")
	}
	an, bn := a.leastUsedNIC(), b.leastUsedNIC()
	an.conns++
	bn.conns++
	return &Conn{net: n, aNode: a, bNode: b, aNIC: an, bNIC: bn}
}

// dir maps a sending endpoint to its direction index.
func (c *Conn) dir(from *Node) int {
	switch from {
	case c.aNode:
		return 0
	case c.bNode:
		return 1
	}
	panic("simnet: node " + from.name + " not an endpoint")
}

// InjectDrop makes each message on this connection, in either direction, be
// dropped with probability p (deterministically via the engine RNG). Used
// for transient failure tests.
func (c *Conn) InjectDrop(p float64) { c.dropProb[0], c.dropProb[1] = p, p }

// InjectDropDirection drops messages sent BY from with probability p; the
// reverse direction is untouched. An asymmetric fault: requests vanish while
// responses (or vice versa) still flow.
func (c *Conn) InjectDropDirection(from *Node, p float64) { c.dropProb[c.dir(from)] = p }

// InjectCorrupt makes each message on this connection, in either direction,
// arrive with its payload corrupted with probability p (deterministically via
// the engine RNG). Corrupted messages consume full bandwidth on both ends —
// unlike drops, the bytes do arrive — and are flagged to the receiver via
// SendChecked, modeling a link that flips bits which only an end-to-end
// checksum above the transport can catch.
func (c *Conn) InjectCorrupt(p float64) { c.corruptProb[0], c.corruptProb[1] = p, p }

// InjectCorruptDirection corrupts only messages sent BY from.
func (c *Conn) InjectCorruptDirection(from *Node, p float64) { c.corruptProb[c.dir(from)] = p }

// InjectDelay adds d to every message's latency on this connection, in both
// directions.
func (c *Conn) InjectDelay(d sim.Duration) { c.delay[0], c.delay[1] = d, d }

// InjectDelayDirection adds d only to messages sent BY from.
func (c *Conn) InjectDelayDirection(from *Node, d sim.Duration) { c.delay[c.dir(from)] = d }

// InjectPartition cuts the connection in both directions: a symmetric
// network partition of this node pair. Messages already in flight still
// deliver — the cut applies at send time, like a switch rule installed now.
func (c *Conn) InjectPartition() { c.partitioned[0], c.partitioned[1] = true, true }

// InjectPartitionDirection cuts only messages sent BY from — the asymmetric
// partition where one side keeps hearing the other.
func (c *Conn) InjectPartitionDirection(from *Node) { c.partitioned[c.dir(from)] = true }

// HealPartition restores the connection in both directions.
func (c *Conn) HealPartition() { c.partitioned[0], c.partitioned[1] = false, false }

// HealPartitionDirection restores only the direction sent BY from.
func (c *Conn) HealPartitionDirection(from *Node) { c.partitioned[c.dir(from)] = false }

// PartitionedFrom reports whether messages sent BY from are currently cut.
func (c *Conn) PartitionedFrom(from *Node) bool { return c.partitioned[c.dir(from)] }

// InjectDuplicateOnce arms a one-shot duplication in both directions: the
// next message either way arrives twice.
func (c *Conn) InjectDuplicateOnce() { c.duplicate[0], c.duplicate[1] = true, true }

// InjectDuplicateOnceDirection arms a one-shot duplication only for the next
// message sent BY from.
func (c *Conn) InjectDuplicateOnceDirection(from *Node) { c.duplicate[c.dir(from)] = true }

// Peer returns the node opposite from.
func (c *Conn) Peer(from *Node) *Node {
	switch from {
	case c.aNode:
		return c.bNode
	case c.bNode:
		return c.aNode
	}
	panic("simnet: node " + from.name + " not an endpoint")
}

// Send transmits size payload bytes from `from` to the opposite endpoint and
// runs deliver at the receiver when the last byte arrives. Dropped messages
// (down node or injected fault) consume sender bandwidth but never deliver.
// Size 0 is allowed (pure control message); header bytes still apply. It is
// SendChecked for callers that ignore corruption.
func (c *Conn) Send(from *Node, size int64, deliver func()) {
	c.SendChecked(from, size, func(bool) { deliver() })
}

// SendChecked transmits size payload bytes from `from` to the opposite
// endpoint for transports that checksum their payloads end to end: deliver
// receives whether fault injection corrupted the message in flight, so the
// receiver can model checksum validation (typically by discarding the message
// and letting the sender's timeout fire). Callers that ignore the flag get
// plain Send semantics — corruption passes through silently, as on a real
// link with no end-to-end check.
//
// It returns how many times deliver will run if both nodes stay up: 0 for a
// message dropped at send (down node, partition, injected drop), 2 for an
// injected duplicate, else 1. A node that goes down before the message
// arrives cancels every copy. deliver should be a function value the caller
// keeps, not a closure made per message: the in-flight state lives in a
// pooled record, so a message then costs no allocation.
func (c *Conn) SendChecked(from *Node, size int64, deliver func(corrupted bool)) (copies int) {
	if size < 0 {
		panic("simnet: negative message size")
	}
	d := c.dir(from)
	var src, dst *NIC
	if d == 0 {
		src, dst = c.aNIC, c.bNIC
	} else {
		src, dst = c.bNIC, c.aNIC
	}
	eng := c.net.Eng
	to := c.Peer(from)
	wire := size + c.net.cfg.HeaderBytes
	txStart, sent := src.pipeOut().reserve(eng.Now(), wire)
	if t := c.net.tracer; t.Enabled() {
		t.Span(src.txTrack, "net", "tx→"+to.name, txStart, sent, trace.I64("bytes", wire))
	}
	if from.down || to.down {
		return 0 // consumed sender bandwidth; vanishes in the fabric
	}
	if c.partitioned[d] {
		return 0 // cut by an injected partition; no RNG draw, stream untouched
	}
	if c.dropProb[d] > 0 && eng.Rand().Float64() < c.dropProb[d] {
		return 0
	}
	fl := c.net.newFlight()
	fl.from, fl.to, fl.dst, fl.wire, fl.deliver = from, to, dst, wire, deliver
	// Sampled only when injection is armed, so the engine RNG stream — and
	// with it every existing seeded scenario — is untouched by default.
	fl.corrupted = c.corruptProb[d] > 0 && eng.Rand().Float64() < c.corruptProb[d]
	fl.copies = 1
	if c.duplicate[d] {
		c.duplicate[d] = false
		fl.copies = 2
	}
	fl.left = fl.copies
	eng.At(sent+sim.Time(c.net.cfg.PropDelay+c.net.cfg.PerMsgDelay+c.delay[d]), fl.arriveFn)
	return fl.copies
}

// flight is one message between leaving its sender's NIC and its last copy's
// delivery. Records are pooled by the Network, and arriveFn and doneFn are
// bound once per record, so a message in flight allocates nothing.
type flight struct {
	net       *Network
	from, to  *Node
	dst       *NIC
	wire      int64
	corrupted bool
	// copies is how many times the message is delivered (2 when duplicated);
	// left counts the deliveries still to run.
	copies, left int
	deliver      func(corrupted bool)

	arriveFn, doneFn func()
}

func (n *Network) newFlight() *flight {
	if k := len(n.free); k > 0 {
		fl := n.free[k-1]
		n.free = n.free[:k-1]
		return fl
	}
	fl := &flight{net: n}
	fl.arriveFn, fl.doneFn = fl.arrive, fl.done
	return fl
}

func (n *Network) freeFlight(fl *flight) {
	fl.from, fl.to, fl.dst, fl.deliver = nil, nil, nil, nil
	n.free = append(n.free, fl)
}

// arrive runs when the message's last byte reaches the receiver's NIC: each
// copy queues behind the NIC's inbound pipe.
func (fl *flight) arrive() {
	n := fl.net
	if fl.to.down || fl.from.down {
		n.freeFlight(fl)
		return
	}
	eng := n.Eng
	for i := 0; i < fl.copies; i++ {
		rxStart, done := fl.dst.pipeIn().reserve(eng.Now(), fl.wire)
		if t := n.tracer; t.Enabled() {
			t.Span(fl.dst.rxTrack, "net", "rx←"+fl.from.name, rxStart, done, trace.I64("bytes", fl.wire))
		}
		eng.At(done, fl.doneFn)
	}
}

// done delivers one copy; the last one frees the record first, so the
// receiver may send on a recycled record.
func (fl *flight) done() {
	deliver, corrupted := fl.deliver, fl.corrupted
	if fl.left--; fl.left == 0 {
		fl.net.freeFlight(fl)
	}
	deliver(corrupted)
}

func (c *NIC) pipeOut() *pipe { return &c.out }
func (c *NIC) pipeIn() *pipe  { return &c.in }

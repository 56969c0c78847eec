package realtime

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"draid/internal/backend"
	"draid/internal/integrity"
	"draid/internal/nvmeof"
	"draid/internal/parity"
)

// TCPTransport carries capsules over real TCP loopback sockets: each
// endpoint (host + every target) owns a listener, and each ordered sender→
// receiver pair gets one lazily-dialed connection, so per-pair FIFO order is
// preserved by the stream. Frames carry the encoded capsule, its CRC32C
// (recomputed and verified at the receiver, like the NIC-level command check
// on the simulated fabric — a mismatch drops the frame and the sender's op
// deadline takes over), and the payload bytes.
//
// The socket is where a payload's bytes leave the sender: Send writes the
// frame header and the payload straight from the sender's buffer with one
// vectored write, then releases the payload as its last owner; the receiver
// reads into a fresh buffer that its handler owns.
//
// Quiescence across the wire: the sender takes a foreground token before the
// socket write; the receiver hands it to the delivery record it queues, and
// the destination loop returns it after the batch that ran the delivery (a
// dropped frame returns it at once). The tokens are a shared counter, so any
// release pairs with any hold; what matters is that a frame buffered in the
// kernel still counts as outstanding work.
type TCPTransport struct {
	endpoints
	bed *Bed

	addrs map[backend.NodeID]string
	lns   []net.Listener

	connMu sync.Mutex // guards conns
	conns  map[[2]backend.NodeID]*tcpConn

	corruptDrops int64
	closed       atomic.Bool
	wg           sync.WaitGroup
}

// tcpConn is one sender→receiver stream. mu serializes frames onto the
// socket and guards the header scratch and write vector reused across them.
type tcpConn struct {
	mu   sync.Mutex
	c    net.Conn
	hdr  []byte
	vec  [2][]byte
	bufs net.Buffers // vec[:n] while a frame is being written; lives here so WriteTo's receiver does not escape per frame
}

// NewTCPTransport opens one loopback listener per endpoint and starts its
// accept loop. Close shuts everything down.
func NewTCPTransport(bed *Bed, width int) (*TCPTransport, error) {
	t := &TCPTransport{
		endpoints: newEndpoints(width),
		bed:       bed,
		addrs:     make(map[backend.NodeID]string),
		conns:     make(map[[2]backend.NodeID]*tcpConn),
	}
	ids := make([]backend.NodeID, 0, width+1)
	ids = append(ids, backend.HostID)
	for i := 0; i < width; i++ {
		ids = append(ids, backend.NodeID(i))
	}
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("realtime: listen for node %d: %w", id, err)
		}
		t.lns = append(t.lns, ln)
		t.addrs[id] = ln.Addr().String()
		t.wg.Add(1)
		go t.acceptLoop(id, ln)
	}
	return t, nil
}

func (t *TCPTransport) acceptLoop(id backend.NodeID, ln net.Listener) {
	defer t.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		t.wg.Add(1)
		go t.readLoop(id, c)
	}
}

// frame layout: u32 cmdLen | cmd | u32 checksum | i64 from | u8 elided |
// u32 payloadLen | payload bytes (absent when elided).
const frameTailBytes = 4 + 8 + 1 + 4 // checksum … payloadLen

func (t *TCPTransport) readLoop(id backend.NodeID, c net.Conn) {
	defer t.wg.Done()
	defer c.Close()
	var hdr [4]byte
	var scratch []byte // capsule + frame tail; nvmeof.Decode keeps no reference
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		cmdLen := binary.LittleEndian.Uint32(hdr[:])
		if cmdLen > 1<<20 {
			return // stream corrupt beyond recovery
		}
		if need := int(cmdLen) + frameTailBytes; cap(scratch) < need {
			scratch = make([]byte, need)
		}
		rest := scratch[:int(cmdLen)+frameTailBytes]
		if _, err := io.ReadFull(c, rest); err != nil {
			return
		}
		cmdBytes := rest[:cmdLen]
		tail := rest[cmdLen:]
		sum := binary.LittleEndian.Uint32(tail[0:])
		from := backend.NodeID(int64(binary.LittleEndian.Uint64(tail[4:])))
		elided := tail[12] != 0
		payloadLen := int(binary.LittleEndian.Uint32(tail[13:]))
		var payload parity.Buffer
		if elided {
			payload = parity.Sized(payloadLen)
		} else {
			data := make([]byte, payloadLen)
			if _, err := io.ReadFull(c, data); err != nil {
				return
			}
			payload = parity.FromBytes(data)
		}
		if integrity.Checksum(cmdBytes) != sum {
			atomic.AddInt64(&t.corruptDrops, 1)
			t.bed.release(1) // the sender's hold for this frame
			continue
		}
		cmd, err := nvmeof.Decode(cmdBytes)
		if err != nil {
			atomic.AddInt64(&t.corruptDrops, 1)
			t.bed.release(1)
			continue
		}
		// The sender's token travels on with the delivery record.
		t.bed.post(t.bed.loopFor(id), task{
			ep: &t.endpoints, to: id, fg: true,
			wire: int64(len(cmdBytes)) + int64(payloadLen) + wireHeaderBytes,
			msg:  backend.Message{Cmd: cmd, Payload: payload, From: from},
		})
	}
}

// dial returns (creating on demand) the from→to connection.
func (t *TCPTransport) dial(from, to backend.NodeID) (*tcpConn, error) {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	key := [2]backend.NodeID{from, to}
	if tc, ok := t.conns[key]; ok {
		return tc, nil
	}
	c, err := net.Dial("tcp", t.addrs[to])
	if err != nil {
		return nil, err
	}
	tc := &tcpConn{c: c}
	t.conns[key] = tc
	return tc, nil
}

// Send implements backend.Transport.
func (t *TCPTransport) Send(from, to backend.NodeID, cmd nvmeof.Command, payload parity.Buffer) {
	if from == to {
		panic(fmt.Sprintf("realtime: send from %d to itself", from))
	}
	defer payload.Release() // on the wire (or dropped) by the time Send returns
	if t.closed.Load() {
		return
	}
	wire := int64(cmd.EncodedSize()) + int64(payload.Len()) + wireHeaderBytes
	// 2 copies: the stream replays the frame back to back.
	copies := t.admitSend(from, to, backend.VolumeID(cmd.NSID), wire)
	if copies == 0 {
		return
	}
	tc, err := t.dial(from, to)
	if err != nil {
		return
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	le := binary.LittleEndian
	hdr := append(tc.hdr[:0], 0, 0, 0, 0)
	hdr = cmd.AppendEncode(hdr)
	cmdBytes := hdr[4:]
	le.PutUint32(hdr, uint32(len(cmdBytes)))
	hdr = le.AppendUint32(hdr, integrity.Checksum(cmdBytes))
	hdr = le.AppendUint64(hdr, uint64(int64(from)))
	if payload.Elided() {
		hdr = append(hdr, 1)
	} else {
		hdr = append(hdr, 0)
	}
	hdr = le.AppendUint32(hdr, uint32(payload.Len()))
	tc.hdr = hdr
	for i := 0; i < copies; i++ {
		t.bed.hold() // returned by the destination loop after delivery (or on error below)
		tc.vec = [2][]byte{hdr, payload.Data()}
		tc.bufs = tc.vec[:]
		if _, err := tc.bufs.WriteTo(tc.c); err != nil {
			t.bed.release(1)
		}
	}
}

// CorruptDrops reports frames discarded after a receiver-side checksum
// mismatch.
func (t *TCPTransport) CorruptDrops() int64 { return atomic.LoadInt64(&t.corruptDrops) }

// Close shuts down listeners and connections and waits for the I/O
// goroutines to exit.
func (t *TCPTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	for _, ln := range t.lns {
		ln.Close()
	}
	t.connMu.Lock()
	for _, tc := range t.conns {
		tc.c.Close()
	}
	t.connMu.Unlock()
	t.wg.Wait()
	return nil
}

var (
	_ backend.Transport         = (*TCPTransport)(nil)
	_ backend.Traffic           = (*TCPTransport)(nil)
	_ backend.PartitionInjector = (*TCPTransport)(nil)
	_ backend.DuplicateInjector = (*TCPTransport)(nil)
)

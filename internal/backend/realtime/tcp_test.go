package realtime

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"draid/internal/backend"
	"draid/internal/nvmeof"
	"draid/internal/parity"
)

// rawFrame encodes one frame as Send writes it, payload included.
func rawFrame(id uint64, from backend.NodeID, payload []byte) []byte {
	cmd := testCmd(id)
	cmd.SGL = []nvmeof.SGE{{Off: int64(id), Len: int64(len(payload))}}
	return append(appendFrameHeader(nil, &cmd, from, parity.FromBytes(payload)), payload...)
}

// rawConn dials endpoint id's listener directly, past Send: the test writes
// the byte stream a sender would, or one no sender would. The caller closes
// it before the transport: Close waits for its receiver to see EOF.
func rawConn(t *testing.T, tr *TCPTransport, id backend.NodeID) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", tr.addrs[id])
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// closedByPeer reports whether the receiver hung up on c.
func closedByPeer(c net.Conn) bool {
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err := c.Read(make([]byte, 1))
	return err == io.EOF
}

// TestTCPFrameReader drives the receiver with raw frames. Frames split into
// 1-byte writes, frames larger than the connection's read buffer and many
// frames in one write all deliver byte-identical payloads in order. A frame
// whose capsule fails its checksum is dropped: CorruptDrops rises, its
// payload goes back to the receive pool and its token is returned. A frame
// claiming a capsule or a payload past the bounds closes the connection
// before anything is allocated by that length.
func TestTCPFrameReader(t *testing.T) {
	n0 := backend.NodeID(0)
	bed := NewBed(1, 1)
	defer bed.Close()
	tr, err := NewTCPTransport(bed, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rec := newRecorder()
	tr.Register(n0, rec.handler)
	rng := rand.New(rand.NewSource(1))
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	// send writes frames to c in the given pieces, taking one token per frame
	// as Send does.
	send := func(c net.Conn, frames int, pieces ...[]byte) {
		t.Helper()
		for i := 0; i < frames; i++ {
			bed.hold()
		}
		for _, p := range pieces {
			if _, err := c.Write(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	var want [][]byte
	// expect waits for every frame sent so far and checks each delivery
	// against what was sent, then releases it.
	expect := func(what string) {
		t.Helper()
		if !rec.waitFor(len(want), 5*time.Second) {
			t.Fatalf("%s: %d of %d frames delivered", what, rec.count(), len(want))
		}
		runReturns(t, bed, what)
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if len(rec.msgs) != len(want) {
			t.Fatalf("%s: %d deliveries, want %d", what, len(rec.msgs), len(want))
		}
		for i, m := range rec.msgs {
			if m.Cmd.ID != uint64(i) || len(m.Cmd.SGL) != 1 || m.Cmd.SGL[0].Off != int64(i) {
				t.Fatalf("%s: delivery %d carries %+v", what, i, m.Cmd)
			}
			if !bytes.Equal(m.Payload.Data(), want[i]) {
				t.Fatalf("%s: delivery %d carries a different payload (%d bytes, want %d)", what, i, m.Payload.Len(), len(want[i]))
			}
			if m.From != backend.HostID {
				t.Fatalf("%s: delivery %d from %d", what, i, m.From)
			}
		}
	}
	frame := func(n int) []byte {
		p := payload(n)
		f := rawFrame(uint64(len(want)), backend.HostID, p)
		want = append(want, p)
		return f
	}

	c := rawConn(t, tr, n0)
	defer c.Close()
	// One frame, a byte per write.
	f := frame(300)
	var pieces [][]byte
	for i := range f {
		pieces = append(pieces, f[i:i+1])
	}
	send(c, 1, pieces...)
	expect("1-byte writes")

	// Frames larger than the read buffer, one of them whole in one write,
	// one split mid-payload.
	send(c, 1, frame(5*tcpReadBuffer+17))
	big := frame(3 * tcpReadBuffer)
	send(c, 1, big[:tcpReadBuffer/2], big[tcpReadBuffer/2:])
	expect("frames past the read buffer")

	// Many frames, of every size class, in one write.
	var batch []byte
	for _, n := range []int{0, 1, 4096, tcpReadBuffer - 60, 16 << 10, 100, 70 << 10, 7} {
		batch = append(batch, frame(n)...)
	}
	send(c, 8, batch)
	expect("eight frames in one write")

	for _, m := range rec.msgs {
		m.Payload.Release()
	}
	before := tr.EndpointBufferStats(n0)
	if before.Gets == 0 || before.Outstanding() != 0 {
		t.Fatalf("receive pool after every delivery released: %+v", before)
	}

	// A corrupt capsule: its frame is dropped whole, and the stream goes on.
	bad := rawFrame(99, backend.HostID, payload(1000))
	bad[4+9] ^= 0x01 // NSID, inside the checksummed capsule
	send(c, 1, bad)
	good := frame(200)
	send(c, 1, good)
	if !rec.waitFor(len(want), 5*time.Second) {
		t.Fatal("the frame after a corrupt one never arrived")
	}
	runReturns(t, bed, "a corrupt frame's token")
	if d := tr.CorruptDrops(); d != 1 {
		t.Fatalf("CorruptDrops = %d, want 1", d)
	}
	if m := rec.msgs[len(rec.msgs)-1]; m.Cmd.ID != uint64(len(want)-1) || !bytes.Equal(m.Payload.Data(), want[len(want)-1]) {
		t.Fatalf("after the corrupt frame: %+v", m.Cmd)
	}
	rec.msgs[len(rec.msgs)-1].Payload.Release()
	if st := tr.EndpointBufferStats(n0); st.Outstanding() != 0 || st.Gets != before.Gets+2 {
		t.Fatalf("receive pool after a corrupt frame: %+v (before it: %+v)", st, before)
	}

	// Lengths past the bounds: the receiver hangs up and allocates nothing
	// by them.
	for _, c := range []struct {
		what string
		at   int // offset of the length word in the frame; negative from its end
		n    uint32
	}{
		{"capsule length", 0, maxFrameCmd + 1},
		{"payload length", -5, MaxFramePayload + 1},
	} {
		raw := rawConn(t, tr, n0)
		defer raw.Close()
		f := rawFrame(1, backend.HostID, []byte{7})
		at := c.at
		if at < 0 {
			at += len(f)
		}
		binary.LittleEndian.PutUint32(f[at:], c.n)
		before := tr.EndpointBufferStats(n0)
		if _, err := raw.Write(f); err != nil {
			t.Fatal(err)
		}
		if !closedByPeer(raw) {
			t.Fatalf("%s %d: the receiver kept the connection open", c.what, c.n)
		}
		if st := tr.EndpointBufferStats(n0); st != before {
			t.Fatalf("%s %d: the receive pool moved: %+v, before %+v", c.what, c.n, st, before)
		}
	}
	if st := tr.BufferStats(); st != tr.EndpointBufferStats(n0) || st.Outstanding() != 0 {
		t.Fatalf("receive pools at the end: %+v, endpoint 0's %+v", st, tr.EndpointBufferStats(n0))
	}
}

// TestTCPSendRefusesOversizedPayload: Send panics on a payload the receiver
// would take for a corrupt length, instead of killing the stream.
func TestTCPSendRefusesOversizedPayload(t *testing.T) {
	bed := NewBed(1, 1)
	defer bed.Close()
	tr, err := NewTCPTransport(bed, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Send took a payload past the frame limit")
		}
	}()
	tr.Send(backend.HostID, 0, testCmd(1), parity.Sized(MaxFramePayload+1))
}

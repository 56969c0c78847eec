package realtime

import (
	"sync"
	"testing"
	"time"

	"draid/internal/backend"
	"draid/internal/nvmeof"
	"draid/internal/parity"
)

// recorder collects delivered messages thread-safely and signals arrivals.
type recorder struct {
	mu   sync.Mutex
	msgs []backend.Message
	ch   chan struct{}
}

func newRecorder() *recorder { return &recorder{ch: make(chan struct{}, 64)} }

func (r *recorder) handler(m backend.Message) {
	r.mu.Lock()
	r.msgs = append(r.msgs, m)
	r.mu.Unlock()
	r.ch <- struct{}{}
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

// waitFor blocks until n messages arrived or the deadline passes.
func (r *recorder) waitFor(n int, d time.Duration) bool {
	dl := time.After(d)
	for {
		if r.count() >= n {
			return true
		}
		select {
		case <-r.ch:
		case <-dl:
			return r.count() >= n
		}
	}
}

// settle gives in-flight deliveries a moment to land (used before asserting
// a message did NOT arrive).
func settle() { time.Sleep(50 * time.Millisecond) }

type sendTransport interface {
	backend.Transport
	backend.PartitionInjector
	backend.DuplicateInjector
}

func testCmd(id uint64) nvmeof.Command {
	return nvmeof.Command{Opcode: nvmeof.OpWrite, ID: id, NSID: 1, Length: 8}
}

// runTransportTests exercises partition and duplication semantics shared by
// both realtime transports.
func runTransportTests(t *testing.T, bed *Bed, tr sendTransport) {
	host := backend.HostID
	n0 := backend.NodeID(0)
	rec := newRecorder()
	tr.Register(n0, rec.handler)

	// Baseline delivery.
	tr.Send(host, n0, testCmd(1), parity.Sized(8))
	if !rec.waitFor(1, 2*time.Second) {
		t.Fatal("baseline send never delivered")
	}

	// Symmetric partition cuts host→member.
	tr.InjectPartition(host, n0, backend.PartitionBoth)
	tr.Send(host, n0, testCmd(2), parity.Sized(8))
	settle()
	if rec.count() != 1 {
		t.Fatalf("partitioned send delivered: %d messages", rec.count())
	}

	// Asymmetric heal: host→member restored, member→host still cut.
	tr.HealPartition(host, n0, backend.PartitionAToB)
	if tr.Partitioned(host, n0) {
		t.Fatal("host→member should be healed")
	}
	if !tr.Partitioned(n0, host) {
		t.Fatal("member→host should still be cut")
	}
	tr.Send(host, n0, testCmd(3), parity.Sized(8))
	if !rec.waitFor(2, 2*time.Second) {
		t.Fatal("send after asymmetric heal never delivered")
	}
	tr.HealPartition(host, n0, backend.PartitionBoth)

	// One-shot duplication: next message arrives twice, following one once.
	tr.DuplicateNext(host, n0)
	tr.Send(host, n0, testCmd(4), parity.FromBytes([]byte("payload!")))
	if !rec.waitFor(4, 2*time.Second) {
		t.Fatalf("duplicated send delivered %d messages, want 2 copies", rec.count()-2)
	}
	tr.Send(host, n0, testCmd(5), parity.Sized(8))
	if !rec.waitFor(5, 2*time.Second) {
		t.Fatal("post-duplicate send never delivered")
	}
	settle()
	if rec.count() != 5 {
		t.Fatalf("one-shot duplication leaked: %d total messages, want 5", rec.count())
	}

	// The duplicated copies carried identical commands and payloads.
	rec.mu.Lock()
	defer rec.mu.Unlock()
	a, b := rec.msgs[2], rec.msgs[3]
	if a.Cmd.ID != 4 || b.Cmd.ID != 4 {
		t.Fatalf("duplicate copies carry IDs %d and %d, want both 4", a.Cmd.ID, b.Cmd.ID)
	}
	if string(a.Payload.Data()) != "payload!" || string(b.Payload.Data()) != "payload!" {
		t.Fatal("duplicate copies should carry identical payload bytes")
	}
}

func TestChanTransportPartitionAndDuplicate(t *testing.T) {
	bed := NewBed(1, 2)
	defer bed.Close()
	tr := NewChanTransport(bed, 2)
	runTransportTests(t, bed, tr)
}

func TestTCPTransportPartitionAndDuplicate(t *testing.T) {
	bed := NewBed(1, 2)
	defer bed.Close()
	tr, err := NewTCPTransport(bed, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	runTransportTests(t, bed, tr)
}

// Duplication is per ordered pair: arming host→0 must not duplicate host→1.
func TestDuplicatePerPair(t *testing.T) {
	bed := NewBed(1, 2)
	defer bed.Close()
	tr := NewChanTransport(bed, 2)
	host := backend.HostID
	rec0, rec1 := newRecorder(), newRecorder()
	tr.Register(backend.NodeID(0), rec0.handler)
	tr.Register(backend.NodeID(1), rec1.handler)
	tr.DuplicateNext(host, backend.NodeID(0))
	tr.Send(host, backend.NodeID(1), testCmd(1), parity.Sized(8))
	if !rec1.waitFor(1, 2*time.Second) {
		t.Fatal("send to node 1 never delivered")
	}
	settle()
	if rec1.count() != 1 {
		t.Fatalf("node 1 got %d messages; duplication armed for node 0 leaked", rec1.count())
	}
	tr.Send(host, backend.NodeID(0), testCmd(2), parity.Sized(8))
	if !rec0.waitFor(2, 2*time.Second) {
		t.Fatalf("node 0 got %d messages, want the armed duplicate pair", rec0.count())
	}
}

// TestTransportPayloadOwnership pins what each transport does with a pooled
// payload: chan hands the sender's storage to the handler untouched, TCP
// releases it once it is on the wire, a dropped message is released by the
// transport, only an injected duplicate is copied — and a message cut by a
// partition is still charged to the host NIC's out counter.
func TestTransportPayloadOwnership(t *testing.T) {
	host, n0 := backend.HostID, backend.NodeID(0)
	run := func(t *testing.T, tr sendTransport, bed *Bed, sharesStorage bool) {
		rec := newRecorder()
		tr.Register(n0, rec.handler)
		pool := parity.NewPool()
		traffic := tr.(backend.Traffic)

		// Delivered: the handler owns the payload and releases it.
		sent := pool.Get(8)
		copy(sent.Data(), "payload!")
		tr.Send(host, n0, testCmd(1), sent)
		if !rec.waitFor(1, 2*time.Second) {
			t.Fatal("send never delivered")
		}
		bed.Run()
		got := rec.msgs[0].Payload
		if string(got.Data()) != "payload!" {
			t.Fatalf("delivered payload %q", got.Data())
		}
		if same := &got.Data()[0] == &sent.Data()[0]; same != sharesStorage {
			t.Fatalf("handler shares the sender's storage: %v, want %v", same, sharesStorage)
		}
		got.Release()
		if st := pool.Stats(); st.Outstanding() != 0 || st.Puts != 1 {
			t.Fatalf("after delivery and release: %+v", st)
		}

		// Cut by a partition: released by the transport, still counted out.
		tr.InjectPartition(host, n0, backend.PartitionAToB)
		outBefore, _ := traffic.HostBytes()
		tr.Send(host, n0, testCmd(2), pool.Get(8))
		if st := pool.Stats(); st.Outstanding() != 0 {
			t.Fatalf("partitioned send kept its payload: %+v", st)
		}
		if out, _ := traffic.HostBytes(); out <= outBefore {
			t.Fatal("a cut message must still be charged to the sender's NIC")
		}
		tr.HealPartition(host, n0, backend.PartitionAToB)

		// Destination down: released at delivery time.
		tr.SetDown(n0, true)
		tr.Send(host, n0, testCmd(3), pool.Get(8))
		bed.Run()
		tr.SetDown(n0, false)
		if st := pool.Stats(); st.Outstanding() != 0 {
			t.Fatalf("send to a down endpoint kept its payload: %+v", st)
		}

		// Duplicate: two deliveries, two owners, one pooled buffer between them.
		tr.DuplicateNext(host, n0)
		tr.Send(host, n0, testCmd(4), pool.Get(8))
		if !rec.waitFor(3, 2*time.Second) {
			t.Fatalf("duplicate delivered %d copies", rec.count()-1)
		}
		bed.Run()
		a, b := rec.msgs[1].Payload, rec.msgs[2].Payload
		if &a.Data()[0] == &b.Data()[0] {
			t.Fatal("duplicate deliveries share storage: neither could release it safely")
		}
		a.Release()
		b.Release()
		if st := pool.Stats(); st.Outstanding() != 0 || st.Gets != st.Puts {
			t.Fatalf("after the duplicate pair released: %+v", st)
		}
	}
	t.Run("chan", func(t *testing.T) {
		bed := NewBed(1, 2)
		defer bed.Close()
		run(t, NewChanTransport(bed, 2), bed, true)
	})
	t.Run("tcp", func(t *testing.T) {
		bed := NewBed(1, 2)
		defer bed.Close()
		tr, err := NewTCPTransport(bed, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		run(t, tr, bed, false)
	})
}

// TestTransportsDropAlike: a capsule whose destination goes down after the
// sender was admitted, or has no handler at all, vanishes the same way on
// both transports — no handler runs, the pooled payload goes back, and the
// message's token is returned so Run() does not wait for it.
func TestTransportsDropAlike(t *testing.T) {
	host, n0, n1 := backend.HostID, backend.NodeID(0), backend.NodeID(1)
	run := func(t *testing.T, tr sendTransport, bed *Bed) {
		rec := newRecorder()
		tr.Register(n0, rec.handler) // n1 stays unregistered
		pool := parity.NewPool()
		for _, c := range []struct {
			what string
			to   backend.NodeID
			down bool
		}{
			{"destination down after admission", n0, true},
			{"destination has no handler", n1, false},
		} {
			// Hold the destination's loop so the delivery is still queued
			// when the endpoint goes down.
			gate := make(chan struct{})
			bed.NodeRuntime(c.to).Defer(func() { <-gate })
			tr.Send(host, c.to, testCmd(1), pool.Get(8))
			tr.SetDown(c.to, c.down)
			close(gate)
			runReturns(t, bed, c.what)
			tr.SetDown(c.to, false)
			if st := pool.Stats(); st.Outstanding() != 0 {
				t.Errorf("%s: payload not released: %+v", c.what, st)
			}
			if rec.count() != 0 {
				t.Errorf("%s: %d messages reached a handler", c.what, rec.count())
			}
		}
	}
	t.Run("chan", func(t *testing.T) {
		bed := NewBed(1, 2)
		defer bed.Close()
		run(t, NewChanTransport(bed, 2), bed)
	})
	t.Run("tcp", func(t *testing.T) {
		bed := NewBed(1, 2)
		defer bed.Close()
		tr, err := NewTCPTransport(bed, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		run(t, tr, bed)
	})
}

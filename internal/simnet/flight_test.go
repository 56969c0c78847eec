package simnet

import (
	"strings"
	"testing"

	"draid/internal/sim"
	"draid/internal/trace"
)

// A message in flight lives in a pooled record: one is taken at send and
// returned once the last copy is delivered or the message is lost.

func TestDuplicateFreesItsRecordAfterTheSecondCopy(t *testing.T) {
	eng, net, a, b := testNet(t)
	conn := net.Connect(a, b)
	conn.InjectDuplicateOnce()
	var seen []bool
	if n := conn.SendChecked(a, 1000, func(c bool) {
		seen = append(seen, c)
		if len(seen) == 1 && len(net.free) != 0 {
			t.Error("the record went back on the free list before the second copy")
		}
	}); n != 2 {
		t.Fatalf("SendChecked reported %d copies, want 2", n)
	}
	eng.Run()
	if len(seen) != 2 || seen[0] || seen[1] {
		t.Fatalf("deliveries %v, want two clean copies", seen)
	}
	if len(net.free) != 1 {
		t.Fatalf("%d records free after both copies, want 1", len(net.free))
	}
	// The recycled record carries the next message; the one-shot is spent.
	if n := conn.SendChecked(a, 1000, func(bool) { seen = append(seen, false) }); n != 1 {
		t.Fatalf("SendChecked reported %d copies after the duplicate, want 1", n)
	}
	eng.Run()
	if len(seen) != 3 || len(net.free) != 1 {
		t.Fatalf("%d deliveries and %d free records, want 3 and 1", len(seen), len(net.free))
	}
}

func TestNodeDownBetweenSendAndArrivalFreesTheRecord(t *testing.T) {
	eng, net, a, b := testNet(t)
	conn := net.Connect(a, b)
	delivered := false
	if n := conn.SendChecked(a, 1000, func(bool) { delivered = true }); n != 1 {
		t.Fatalf("SendChecked reported %d copies, want 1", n)
	}
	eng.At(500, func() { b.SetDown(true) })
	eng.Run()
	if delivered {
		t.Fatal("delivered to a node that went down before arrival")
	}
	if len(net.free) != 1 {
		t.Fatalf("%d records free after the loss, want 1", len(net.free))
	}
	// Dropped at send: no record is taken at all.
	if n := conn.SendChecked(a, 1000, func(bool) { delivered = true }); n != 0 {
		t.Fatalf("SendChecked to a down node reported %d copies, want 0", n)
	}
	eng.Run()
	if delivered || len(net.free) != 1 {
		t.Fatalf("delivered=%v with %d free records, want false and 1", delivered, len(net.free))
	}
}

func TestCorruptionIsFlaggedOnEveryCopy(t *testing.T) {
	eng, net, a, b := testNet(t)
	conn := net.Connect(a, b)
	conn.InjectCorruptDirection(a, 1)
	conn.InjectDuplicateOnceDirection(a)
	var seen []bool
	conn.SendChecked(a, 10, func(c bool) { seen = append(seen, c) })
	conn.SendChecked(b, 10, func(c bool) { seen = append(seen, c) })
	eng.Run()
	// a→b: two corrupted copies, the second queued behind the first on b's
	// inbound pipe; b→a: one clean message, done with the first copy.
	if len(seen) != 3 || !seen[0] || seen[1] || !seen[2] {
		t.Fatalf("deliveries %v, want [true false true]", seen)
	}
	if len(net.free) != 2 {
		t.Fatalf("%d records free, want 2", len(net.free))
	}
}

// TestFlightTracerSpans pins the NIC spans traced messages leave — one tx span
// on the sender's NIC, one rx span per delivered copy on the receiver's — as
// the per-message closures before the flight records left them.
func TestFlightTracerSpans(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, Config{Goodput: 1.0})
	tr := trace.New(eng, trace.Options{})
	net.SetTracer(tr) // before the NICs, which register their tracks
	c, d := net.NewNode("c"), net.NewNode("d")
	c.AddNIC("nic0", 8)
	d.AddNIC("nic0", 8)
	conn := net.Connect(c, d)
	conn.InjectDuplicateOnceDirection(c)
	conn.Send(c, 1000, func() {})
	conn.Send(d, 500, func() {})
	eng.Run()
	var sb strings.Builder
	if err := tr.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var spans []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.Contains(line, `"ph":"X"`) {
			spans = append(spans, strings.TrimSuffix(line, ","))
		}
	}
	want := []string{
		`{"ph":"X","name":"tx→d","cat":"net","ts":0.000,"dur":1.000,"pid":1,"tid":1,"args":{"bytes":1000}}`,
		`{"ph":"X","name":"tx→c","cat":"net","ts":0.000,"dur":0.500,"pid":2,"tid":3,"args":{"bytes":500}}`,
		`{"ph":"X","name":"rx←d","cat":"net","ts":0.500,"dur":0.500,"pid":1,"tid":2,"args":{"bytes":500}}`,
		`{"ph":"X","name":"rx←c","cat":"net","ts":1.000,"dur":1.000,"pid":2,"tid":4,"args":{"bytes":1000}}`,
		`{"ph":"X","name":"rx←c","cat":"net","ts":2.000,"dur":1.000,"pid":2,"tid":4,"args":{"bytes":1000}}`,
	}
	if strings.Join(spans, "\n") != strings.Join(want, "\n") {
		t.Fatalf("spans:\n%s\nwant:\n%s", strings.Join(spans, "\n"), strings.Join(want, "\n"))
	}
}

// TestSendCheckedAllocatesNothing: once the free list is warm, a message
// costs no heap object — the caller's deliver is a function value it keeps.
func TestSendCheckedAllocatesNothing(t *testing.T) {
	eng, net, a, b := testNet(t)
	conn := net.Connect(a, b)
	n := 0
	deliver := func(bool) { n++ }
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			conn.SendChecked(a, 4096, deliver)
		}
		eng.Run()
	}); allocs != 0 {
		t.Fatalf("32 messages allocate %.1f objects, want 0", allocs)
	}
	if n != 101*32 {
		t.Fatalf("%d of %d messages delivered", n, 101*32)
	}
}

// BenchmarkSendChecked measures one connection's message path: 4 KiB
// messages, 32 in flight, through both NIC pipes to delivery.
func BenchmarkSendChecked(b *testing.B) {
	eng := sim.NewEngine(1)
	net := New(eng, DefaultConfig())
	a, c := net.NewNode("a"), net.NewNode("b")
	a.AddNIC("nic0", 100)
	c.AddNIC("nic0", 100)
	conn := net.Connect(a, c)
	deliver := func(bool) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		conn.SendChecked(a, 4096, deliver)
		if i%32 == 31 {
			eng.Run()
		}
	}
	eng.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

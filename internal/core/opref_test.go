package core

import (
	"testing"

	"draid/internal/backend"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/sim"
)

// newSilentHost is a host on the simulation whose capsules go nowhere: a test
// answers the ones it chooses through complete.
func newSilentHost(cfg Config) (*sim.Engine, *HostController) {
	eng := sim.NewEngine(1)
	cfg.Geometry = raid.Geometry{Level: raid.Raid5, Width: 4, ChunkSize: 4096}
	return eng, NewHost(backend.SimRunner(eng), silentFabric{down: map[NodeID]bool{}}, 1<<20, cfg)
}

// TestStaleWatchSparesReusedOp: a hedge watching a plain read whose attempt
// timed out still holds that attempt's op while the retry backs off. The op
// record is reused at once; cancelling the loser through the stale handle
// must leave the op now in the record alone.
func TestStaleWatchSparesReusedOp(t *testing.T) {
	eng, h := newSilentHost(Config{RetryBackoff: sim.Millisecond})
	var w extentWatch
	asm, fail, served := assembler{n: 4096}, error(nil), 0
	h.normalReadExtent(raid.Extent{Len: 4096}, &asm, &fail, func() { served++ }, &w)
	first := w.op
	h.failOp(first.op, nil) // a transient timeout: the read retries after its backoff
	other := h.beginOp("write", 1, func() {}, func([]NodeID) {})
	if other != first.op {
		t.Fatal("the slab did not hand the timed-out read's record to the next op")
	}
	w.cancelLoser(h)
	if !other.ref().live() {
		t.Fatal("a stale watch cancelled the op that reuses its record")
	}
	h.cancelOp(other, "test")
	eng.Run() // the retry finds nothing settled and reads again; its op times out in turn
	if served != 1 || fail == nil {
		t.Fatalf("served %d times, err %v: want the read to end once, out of retries", served, fail)
	}
	if err := h.Quiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestLateCompletionSparesReusedOp: a completion carrying the ID of an op
// that is over must not complete the op that reuses its record. The op left
// the in-flight map under its old ID, so the late completion finds nothing.
func TestLateCompletionSparesReusedOp(t *testing.T) {
	_, h := newSilentHost(Config{})
	read := nvmeof.Command{Opcode: nvmeof.OpRead, Length: 4096}
	late := h.beginOp("read", 0, func() {}, func([]NodeID) {})
	h.send(late, 1, oneReply, read, parity.Buffer{})
	lateID := late.id
	h.cancelOp(late, "test")
	finished := false
	reused := h.beginOp("read", 0, func() { finished = true }, func([]NodeID) {})
	h.send(reused, 1, oneReply, read, parity.Buffer{})
	if reused != late {
		t.Fatal("the slab did not hand the late op's record on")
	}
	h.complete(Message{Cmd: nvmeof.Command{Opcode: nvmeof.OpCompletion, ID: lateID}, From: 1})
	if finished || !reused.ref().live() {
		t.Fatal("a late completion completed the op that reuses its record")
	}
	h.complete(Message{Cmd: nvmeof.Command{Opcode: nvmeof.OpCompletion, ID: reused.id}, From: 1})
	if !finished {
		t.Fatal("the op's own completion did not complete it")
	}
}

// TestHeldSendSparesReusedOp: a plain read's send waits for the block
// stack's CPU time (Reduce.ReadPerIO). If the read's op ends meanwhile and
// its record is reused, the held send must not go out on the op now in the
// record.
func TestHeldSendSparesReusedOp(t *testing.T) {
	eng, h := newSilentHost(Config{Reduce: Reduce{ReadPerIO: 10 * sim.Microsecond}})
	var w extentWatch
	asm, fail := assembler{n: 4096}, error(nil)
	h.normalReadExtent(raid.Extent{Len: 4096}, &asm, &fail, func() {}, &w)
	held := w.op.op
	h.cancelOp(held, "test")
	other := h.beginOp("write", 1, func() {}, func([]NodeID) {})
	if other != held {
		t.Fatal("the slab did not hand the read's op record to the next op")
	}
	eng.RunUntil(eng.Now() + sim.Time(sim.Millisecond))
	if len(other.sent) != 0 {
		t.Fatalf("the held read went out on the op that reuses its record: %d capsule(s)", len(other.sent))
	}
}

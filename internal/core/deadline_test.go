package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"draid/internal/backend"
	"draid/internal/backend/realtime"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/sim"
)

// silentFabric is a transport that carries nothing: a test answers the
// capsules it chooses by handing completions to the host's handle.
type silentFabric struct{ down map[NodeID]bool }

func (silentFabric) Send(NodeID, NodeID, nvmeof.Command, parity.Buffer) {}
func (silentFabric) Register(NodeID, Handler)                           {}
func (silentFabric) RegisterVolume(NodeID, VolumeID, Handler)           {}
func (silentFabric) Width() int                                         { return 4 }
func (f silentFabric) Down(id NodeID) bool                              { return f.down[id] }
func (f silentFabric) SetDown(id NodeID, down bool)                     { f.down[id] = down }

// evidence is one report the host made to its health sink.
type evidence struct {
	member    int
	confirmed bool
}

type healthLog struct {
	faults []evidence
	oks    map[int]int
}

func (l *healthLog) ObserveFault(member int, confirmed bool) {
	l.faults = append(l.faults, evidence{member, confirmed})
}
func (l *healthLog) ObserveOK(member int) { l.oks[member]++ }

const (
	dataDeadline  = 2 * sim.Millisecond
	probeDeadline = 500 * sim.Microsecond
)

// plannedOp is one op of a deadline scenario: when it begins, its deadline
// class, the targets it sends to, and when each answers (0: never).
type plannedOp struct {
	begin    sim.Time
	deadline sim.Duration
	to       []NodeID
	answer   []sim.Duration
}

// planDeadlines draws a scenario of data ops and probes. Begin and answer
// times sit on a 50 µs grid so that many expiries coincide and (expires, id)
// order is exercised; target 3 is down, so it never answers.
func planDeadlines(seed int64) []plannedOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]plannedOp, 40+rng.Intn(40))
	for i := range ops {
		p := &ops[i]
		p.begin = sim.Time(rng.Intn(120)) * sim.Time(50*sim.Microsecond)
		p.deadline = dataDeadline
		if rng.Intn(3) == 0 {
			p.deadline = probeDeadline
		}
		for _, to := range rng.Perm(4)[:1+rng.Intn(3)] {
			p.to = append(p.to, NodeID(to))
			var at sim.Duration
			if to != 3 && rng.Intn(4) != 0 {
				at = sim.Duration(1+rng.Int63n(p.deadline/(50*sim.Microsecond)-1)) * 50 * sim.Microsecond
			}
			p.answer = append(p.answer, at)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].begin < ops[j].begin })
	return ops
}

// outcome is how an op ended, seen from its continuations.
type outcome struct {
	at      sim.Time
	failed  bool
	missing []NodeID
}

// runDeadlines plays a scenario on a host over rt, which must run on eng.
func runDeadlines(t *testing.T, eng *sim.Engine, rt backend.Runtime, plan []plannedOp) (*HostController, *healthLog, []outcome, []int) {
	t.Helper()
	health := &healthLog{oks: map[int]int{}}
	h := NewHost(rt, silentFabric{down: map[NodeID]bool{3: true}}, 1<<20, Config{
		Geometry: raid.Geometry{Level: raid.Raid5, Width: 4, ChunkSize: 4096},
		Deadline: dataDeadline,
		Health:   health,
	})
	out := make([]outcome, len(plan))
	var failOrder []int
	for i, p := range plan {
		eng.At(p.begin, func() {
			op := h.beginOpDeadline("probe", -1, p.deadline,
				func() { out[i] = outcome{at: eng.Now()} },
				func(missing []NodeID) {
					out[i] = outcome{at: eng.Now(), failed: true, missing: missing}
					failOrder = append(failOrder, i)
				})
			for j, to := range p.to {
				h.send(op, to, oneReply, nvmeof.Command{Opcode: nvmeof.OpHeartbeat}, parity.Buffer{})
				if at := p.answer[j]; at > 0 {
					id := op.id
					eng.After(at, func() {
						h.handle(Message{Cmd: nvmeof.Command{Opcode: nvmeof.OpCompletion, ID: id}, From: to})
					})
				}
			}
		})
	}
	eng.Run()
	return h, health, out, failOrder
}

// checkDeadlines asserts what the per-op deadline timers this heap replaced
// did: an op with an unanswered capsule fails at exactly begin + deadline,
// ops that expire together fail in begin (= id) order, every other op
// finishes at its last answer, and the timeouts and health evidence come out
// as the per-op timers reported them.
func checkDeadlines(t *testing.T, plan []plannedOp, h *HostController, health *healthLog, out []outcome, failOrder []int) {
	t.Helper()
	var wantOrder []int
	var wantFaults []evidence
	wantOKs := map[int]int{}
	for i, p := range plan {
		var last sim.Duration
		var down, silent []NodeID
		for j, at := range p.answer {
			switch {
			case at > 0:
				last = max(last, at)
				wantOKs[int(p.to[j])]++
			case p.to[j] == 3:
				down = append(down, p.to[j])
			default:
				silent = append(silent, p.to[j])
			}
		}
		if len(down)+len(silent) == 0 {
			if want := (outcome{at: p.begin + sim.Time(last)}); !reflect.DeepEqual(out[i], want) {
				t.Fatalf("op %d: %+v, want it finished at %v", i, out[i], want.at)
			}
			continue
		}
		want := outcome{at: p.begin + sim.Time(p.deadline), failed: true, missing: down}
		if !reflect.DeepEqual(out[i], want) {
			t.Fatalf("op %d: %+v, want %+v", i, out[i], want)
		}
		wantOrder = append(wantOrder, i)
	}
	sort.SliceStable(wantOrder, func(a, b int) bool {
		pa, pb := plan[wantOrder[a]], plan[wantOrder[b]]
		return pa.begin+sim.Time(pa.deadline) < pb.begin+sim.Time(pb.deadline)
	})
	for _, i := range wantOrder {
		p := plan[i]
		var down, silent []evidence
		for j, at := range p.answer {
			if at == 0 && p.to[j] == 3 {
				down = append(down, evidence{3, true})
			} else if at == 0 {
				silent = append(silent, evidence{int(p.to[j]), false})
			}
		}
		if len(down) > 0 {
			wantFaults = append(wantFaults, down...)
		} else {
			wantFaults = append(wantFaults, silent...)
		}
	}
	if !reflect.DeepEqual(failOrder, wantOrder) {
		t.Fatalf("ops failed in order %v, want %v", failOrder, wantOrder)
	}
	if got := h.Stats().Timeouts; got != int64(len(wantOrder)) {
		t.Fatalf("%d timeouts, want %d", got, len(wantOrder))
	}
	if !reflect.DeepEqual(health.faults, wantFaults) {
		t.Fatalf("fault evidence %v, want %v", health.faults, wantFaults)
	}
	if !reflect.DeepEqual(health.oks, wantOKs) {
		t.Fatalf("ok evidence %v, want %v", health.oks, wantOKs)
	}
	if len(h.inflight) != 0 || len(h.deadlines.heap) != 0 || h.deadlines.armed {
		t.Fatalf("drained host holds %d ops, %d deadlines, armed=%v", len(h.inflight), len(h.deadlines.heap), h.deadlines.armed)
	}
}

// TestDeadlineHeapFailsOpsOnTime plays random begin / finish / no-answer
// sequences over the two deadline classes (data ops and probes).
func TestDeadlineHeapFailsOpsOnTime(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			plan := planDeadlines(seed)
			eng := sim.NewEngine(seed)
			h, health, out, order := runDeadlines(t, eng, backend.SimRunner(eng), plan)
			checkDeadlines(t, plan, h, health, out, order)
			if eng.LiveFG() != 0 {
				t.Fatalf("%d foreground events live after Run", eng.LiveFG())
			}
		})
	}
}

// lossyRuntime is a simulation whose timers always lose the Stop race, as a
// realtime timer does when its callback was posted just before Stop: Stop
// reports false, and the callback still runs at its time.
type lossyRuntime struct {
	backend.Runner
	eng *sim.Engine
}

type lostRace struct{}

func (lostRace) Stop() bool { return false }

func (r lossyRuntime) SimEngine() *sim.Engine { return r.eng }

func (r lossyRuntime) After(d sim.Duration, fn func()) backend.Timer {
	r.eng.After(d, fn)
	return lostRace{}
}

// TestStaleDeadlineFiresDoNothing: with every Stop lost, each disarmed
// timer's callback still runs. Only the current arming may act, so the ops
// fail exactly as with exact Stops, and the timer is armed exactly as often.
func TestStaleDeadlineFiresDoNothing(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			plan := planDeadlines(seed)
			eng := sim.NewEngine(seed)
			exact, _, _, _ := runDeadlines(t, eng, backend.SimRunner(eng), plan)
			eng = sim.NewEngine(seed)
			h, health, out, order := runDeadlines(t, eng, lossyRuntime{backend.SimRunner(eng), eng}, plan)
			checkDeadlines(t, plan, h, health, out, order)
			if h.deadlines.arms != exact.deadlines.arms {
				t.Fatalf("the timer was armed %d times, %d with exact Stops: a stale fire re-armed it",
					h.deadlines.arms, exact.deadlines.arms)
			}
		})
	}
}

// TestRealtimeDeadlineTimer drives the one timer on wall clocks: a fire that
// lost its race with a Stop and a re-arm is ignored, and Run returns as soon
// as the last op finishes, not at its deadline.
func TestRealtimeDeadlineTimer(t *testing.T) {
	bed := realtime.NewBed(1, 0)
	defer bed.Close()
	h := NewHost(bed, silentFabric{down: map[NodeID]bool{}}, 1<<20, Config{
		Geometry: raid.Geometry{Level: raid.Raid5, Width: 4, ChunkSize: 4096},
		Deadline: 10 * sim.Second,
	})
	var lostStop bool
	finished, failed := 0, 0
	bed.Call(func() {
		// A 1 ms probe whose timer fires while the loop is busy: its callback
		// is posted behind this task, so stopping the timer, as cancelling
		// the probe does, loses the race.
		probe := h.beginOpDeadline("heartbeat", -1, sim.Millisecond, func() {}, func([]NodeID) { failed++ })
		h.send(probe, 0, oneReply, nvmeof.Command{Opcode: nvmeof.OpHeartbeat}, parity.Buffer{})
		time.Sleep(50 * time.Millisecond)
		lostStop = !h.deadlines.timer.Stop()
		h.cancelOp(probe, "test")
		// A data op armed now: the stale fire must neither fail it nor
		// disarm its timer.
		op := h.beginOp("write", 0, func() { finished++ }, func([]NodeID) { failed++ })
		h.send(op, 1, oneReply, nvmeof.Command{Opcode: nvmeof.OpWrite}, parity.Buffer{})
		id := op.id
		bed.After((20 * time.Millisecond).Nanoseconds(), func() {
			h.handle(Message{Cmd: nvmeof.Command{Opcode: nvmeof.OpCompletion, ID: id}, From: 1})
		})
	})
	start := time.Now()
	bed.Run()
	elapsed := time.Since(start)
	bed.Call(func() {
		if !lostStop {
			t.Fatal("the probe's timer had not fired after 50 ms: no stale fire was exercised")
		}
		if finished != 1 || failed != 0 || h.Stats().Timeouts != 0 {
			t.Fatalf("finished=%d failed=%d timeouts=%d, want 1/0/0", finished, failed, h.Stats().Timeouts)
		}
		// The probe's arming and the data op's: a stale fire that reached the
		// host would have re-armed for the data op a third time.
		if h.deadlines.armed || h.deadlines.arms != 2 {
			t.Fatalf("armed=%v after %d armings, want false after 2", h.deadlines.armed, h.deadlines.arms)
		}
	})
	if elapsed > 2*time.Second {
		t.Fatalf("Run returned %v after the last op finished; its deadline was 10 s", elapsed)
	}
}

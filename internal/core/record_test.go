package core_test

import (
	"errors"
	"fmt"
	"testing"

	"draid/internal/backend"
	"draid/internal/cluster"
	"draid/internal/core"
	"draid/internal/oracle"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/recon"
	"draid/internal/repair"
	"draid/internal/sim"
	"draid/internal/ssd"
)

// The server's command records — one pooled record per admitted capsule,
// going back to its controller's free list after its last continuation —
// are checked here where they can go wrong: a reduction a media error cuts
// short, duplicated capsules, a fence or an epoch bump between a command's
// drive read and its write, a drive failing under records in flight, and the
// serial and barrier ablations. Every case runs on the simulation and on the
// realtime chan backend under the oracle, and ends on byte-exact reads and a
// clean LeakCheck.

var recBackends = []string{"sim", "realtime-chan"}

// recBed is one array for these tests, driven through the backend-neutral
// Runner so one script serves both backends, and checked by an oracle over
// its first two stripes.
type recBed struct {
	t   *testing.T
	cl  *cluster.Cluster
	h   *core.HostController
	o   *oracle.Oracle
	cfg core.Config
	// stranded counts, per member, the command records a drive failure left
	// without their callback, and the reductions they hold: never reused, so
	// still out of their slabs.
	stranded map[int]live
}

type live struct{ cmds, reductions int }

type recOpts struct {
	level   raid.Level
	serial  bool   // Pipelined off: the §5.3 ablation
	barrier bool   // BarrierReduce on: the §5.2 ablation
	epoch   uint64 // host epoch, for the epoch-bump case
}

func newRecBed(t *testing.T, backendName string, o recOpts) *recBed {
	t.Helper()
	width := 5
	if o.level == raid.Raid6 {
		width = 6
	}
	var cl *cluster.Cluster
	if backendName == "sim" {
		spec := cluster.DefaultSpec()
		spec.Targets = width
		spec.Pipelined = !o.serial
		drv := ssd.DefaultSpec()
		drv.Capacity = 4 << 20
		spec.Drive = &drv
		cl = cluster.New(spec)
	} else {
		var err error
		cl, err = cluster.NewRealtime(cluster.RealtimeSpec{Targets: width, DriveCapacity: 4 << 20, Pipelined: !o.serial})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
	}
	if o.barrier {
		for _, s := range cl.Servers {
			core.SetBarrierReduce(s)
		}
	}
	cfg := core.Config{
		Geometry: raid.Geometry{Level: o.level, Width: width, ChunkSize: chunkSize},
		Deadline: 300 * sim.Millisecond,
		// The reducer of a degraded read is the stripe's P member.
		Selector: recon.FixedSelector{},
		Epoch:    o.epoch,
	}
	b := &recBed{t: t, cl: cl, h: cl.NewDRAID(cfg), cfg: cfg, stranded: map[int]live{}}
	d := hostDevice(t, cl, func() tortureDevice { return b.h })
	leaks := d.LeakCheck
	d.LeakCheck = func() (err error) {
		if err = leaks(); err != nil {
			return err
		}
		// Every command record and reduction state is back in its server's
		// slab, but those a failed drive stranded.
		b.call(func() {
			for m, s := range cl.Servers {
				var got live
				if got.cmds, got.reductions = core.LiveRecords(s); got != b.stranded[m] {
					err = fmt.Errorf("server %d: %+v out of the slabs, want %+v", m, got, b.stranded[m])
				}
			}
		})
		return err
	}
	d.Audit = func() error { return errors.Join(stripeParity(cl, b.h, 0), stripeParity(cl, b.h, 1)) }
	b.o = newOracle(t, d, cfg.Geometry, 2*b.stripeBytes())
	return b
}

func (b *recBed) geo() raid.Geometry { return b.h.Geometry() }

func (b *recBed) stripeBytes() int64 { return b.geo().StripeDataSize() }

// call runs fn on the host's loop.
func (b *recBed) call(fn func()) { b.cl.Rt.Call(fn) }

// put writes data at off under the oracle; the write must be acknowledged.
func (b *recBed) put(off int64, data []byte) {
	b.t.Helper()
	if err := b.o.Write(off, data); err != nil {
		b.t.Fatalf("write [%d,+%d): %v", off, len(data), err)
	}
}

// failover crashes the host and has a replacement fence every bdev and
// resync the dirty stripes: the only way to sever what a duplicated capsule
// or a vanished participant leaves open on the servers.
func (b *recBed) failover() {
	b.t.Helper()
	var err error = errors.New("pending")
	b.call(func() {
		b.h.Crash()
		next := b.cl.NewDRAID(b.cfg)
		repair.Failover(b.cl.Rt, next, next.Adopt(b.h), func(e error) { err = e })
		b.h = next
	})
	b.cl.Rt.Run()
	b.call(func() {
		if err != nil {
			b.t.Errorf("failover: %v", err)
		}
	})
}

// duplicate arms a one-shot duplication of the host's next capsule to member m.
func (b *recBed) duplicate(m int) {
	b.call(func() {
		b.cl.Fab.(backend.DuplicateInjector).DuplicateNext(core.HostID, b.h.MemberNode(m))
	})
}

// slow holds member m's drive operations for ~100 ms (on either backend), so
// a command's drive read is still in flight while the test acts.
func (b *recBed) slow(m int, on bool) {
	p := backend.SlowProfile{}
	if on {
		p = backend.SlowProfile{Kind: backend.SlowConstant, Factor: 1001}
	}
	b.cl.Drives[m].SetSlowProfile(p, 1)
}

func (b *recBed) failMember(m int) {
	b.cl.FailTarget(m)
	b.call(func() { b.h.SetFailed(m, true) })
}

// rebuild recovers member m's target and rebuilds the first stripes onto it
// in place.
func (b *recBed) rebuild(m int, stripes int64) {
	b.t.Helper()
	b.cl.RecoverTarget(m)
	var err error = errors.New("pending")
	var plan core.Repair
	b.call(func() {
		var perr error
		plan, perr = b.h.PlanRebuild(m, stripes, func() (core.NodeID, bool) { return b.h.MemberNode(m), true })
		if perr != nil {
			err = perr
			return
		}
		var step func(i int64)
		step = func(i int64) {
			if i == stripes {
				err = nil
				plan.Finish(b.h, nil)
				return
			}
			plan.Do(b.h, i, func(e error) {
				if e != nil {
					err = e
					plan.Finish(b.h, e)
					return
				}
				step(i + 1)
			})
		}
		step(0)
	})
	b.cl.Rt.Run()
	b.call(func() {
		if err != nil {
			b.t.Fatalf("rebuild of member %d: %v", m, err)
		}
	})
}

// TestMediaErrorInsideReductionLeavesNothingOpen: a participant whose drive
// read fails still reports in to every reducer it names, so the reduction
// ends — failed, its accumulator recycled, nothing written or replied — and
// a drained array holds no reduction and no pooled buffer. Before, in each
// case below, the reducer waited for the missing part until a fence:
//   - (a) an unreadable sector on any participant of a degraded read;
//   - (b) one under the data range of a 4 KiB or 48 KiB read-modify-write:
//     the data bdev never forwarded its delta to P (and Q);
//   - (c) one on the parity chunk an RMW preloads: the reduction was severed,
//     and the data bdev's late contribution opened it again.
//
// The host's recovery is unchanged: the read still gets every byte it can
// (all of them on RAID-6), the write is re-driven and lands.
func TestMediaErrorInsideReductionLeavesNothingOpen(t *testing.T) {
	for _, be := range recBackends {
		for _, level := range []raid.Level{raid.Raid5, raid.Raid6} {
			t.Run(fmt.Sprintf("%s/%v", be, level), func(t *testing.T) {
				o := recOpts{level: level}
				probe := newRecBed(t, be, o)
				g := probe.geo()
				base := g.DriveOffset(0)
				lost := g.DataDrive(0, 1)
				for m := 0; m < g.Width; m++ {
					if m == lost {
						continue
					}
					t.Run(fmt.Sprintf("a/degraded-read-ure-on-m%d", m), func(t *testing.T) {
						b := newRecBed(t, be, o)
						b.put(0, randBytes(70, int(b.stripeBytes())))
						b.failMember(lost)
						b.cl.Drives[m].InjectMediaError(base+4096, 4096)
						// RAID-6 reads every byte; RAID-5, past its budget, fails typed.
						if level == raid.Raid5 {
							b.o.ExpectLoss()
						}
						if got := b.o.Read(chunkSize, chunkSize); level == raid.Raid5 && got != nil {
							t.Fatal("RAID-5 degraded read over a second erasure succeeded")
						}
						b.o.Quiesce()
					})
				}
				for _, n := range []int{4 << 10, 48 << 10} {
					t.Run(fmt.Sprintf("b/rmw-%dk-ure-on-data", n>>10), func(t *testing.T) {
						b := newRecBed(t, be, o)
						b.put(0, randBytes(70, int(b.stripeBytes())))
						b.cl.Drives[g.DataDrive(0, 0)].InjectMediaError(base, int64(n))
						b.put(0, randBytes(71, n)) // re-driven
						b.o.Sweep()
						b.o.Quiesce()
					})
				}
				parities := []int{g.PDrive(0)}
				if level == raid.Raid6 {
					parities = append(parities, g.QDrive(0))
				}
				for _, p := range parities {
					t.Run(fmt.Sprintf("c/rmw-ure-on-parity-m%d", p), func(t *testing.T) {
						b := newRecBed(t, be, o)
						b.put(0, randBytes(70, int(b.stripeBytes())))
						b.cl.Drives[p].InjectMediaError(base, chunkSize)
						b.put(0, randBytes(72, 4<<10)) // re-driven
						b.o.Sweep()
						b.o.Quiesce()
					})
				}
			})
		}
	}
}

// TestServerRecordsUnderFaults: command records survive everything that can
// happen between a record's steps. Each case ends with byte-exact reads,
// coherent parity and a clean LeakCheck.
func TestServerRecordsUnderFaults(t *testing.T) {
	for _, be := range recBackends {
		t.Run(be, func(t *testing.T) {
			t.Run("duplicate", func(t *testing.T) { recDuplicates(t, be) })
			t.Run("fence-between-read-and-write", func(t *testing.T) { recOvertaken(t, be, false) })
			t.Run("epoch-bump-between-read-and-write", func(t *testing.T) { recOvertaken(t, be, true) })
			t.Run("drive-failed-under-records", func(t *testing.T) { recDriveFailed(t, be) })
			t.Run("serial", func(t *testing.T) { recWorkload(t, newRecBed(t, be, recOpts{level: raid.Raid5, serial: true})) })
			t.Run("barrier", func(t *testing.T) { recWorkload(t, newRecBed(t, be, recOpts{level: raid.Raid5, barrier: true})) })
			t.Run("barrier-raid6", func(t *testing.T) { recWorkload(t, newRecBed(t, be, recOpts{level: raid.Raid6, barrier: true})) })
			t.Run("barrier-fence", func(t *testing.T) { recBarrierFenced(t, be) })
		})
	}
}

// recBarrierFenced fences an RMW whose parity preload never returns (P's
// drive failed under it, then came back), so the BarrierReduce ablation holds
// the data bdev's contribution until the fence severs the reduction: the
// sever releases the held record and its payload, a pooled drive-read buffer
// on realtime that nothing else would ever release.
func recBarrierFenced(t *testing.T, be string) {
	b := newRecBed(t, be, recOpts{level: raid.Raid5, barrier: true})
	b.put(0, randBytes(94, int(b.stripeBytes())))
	p := b.cl.Drives[b.geo().PDrive(0)]
	b.stranded[b.geo().PDrive(0)] = live{cmds: 1, reductions: 1} // the Parity record, preload swallowed
	data := randBytes(95, 4<<10)
	landed := b.o.BeginWrite(0, data)
	p.Fail()
	b.call(func() { b.h.Write(0, parity.FromBytes(data), func(error) {}) })
	b.cl.Rt.RunFor(20 * sim.Millisecond) // the Peer is held back at P
	p.Recover()
	b.failover()
	// The data bdev's own write landed before the fence; the resync made
	// parity agree with it.
	landed(nil)
	b.o.Sweep()
	b.o.Quiesce()
}

// recDuplicates replays, once each, every capsule a reduction takes in: the
// host's PartialWrite, Parity and Reconstruction (at the reducer and at a
// participant), and a member's Peer to its reducer, on the RMW,
// reconstruct-write and degraded-read paths. Each executes twice on its bdev,
// or arrives twice at its reducer, and its part folds once: the op completes
// on its first attempt — no deadline passes, nothing is re-driven — reads
// back byte-exact with coherent parity, and with no fence the drained array
// holds nothing. Before reductions kept the keys of their parts, a doubled
// Peer closed a reconstruct-write's parity or a degraded read's rebuilt chunk
// one part short — wrong parity, wrong bytes — and a doubled anchor left its
// reduction waiting for one WaitNum too many.
func recDuplicates(t *testing.T, be string) {
	const (
		rmw  = iota // 4 KiB into chunk 0
		rcw         // chunks 0–2 of four, whole
		read        // chunk 1, its member failed: rebuilt on P
	)
	host := func(*recBed) int { return -1 }
	data0 := func(b *recBed) int { return b.geo().DataDrive(0, 0) }
	pm := func(b *recBed) int { return b.geo().PDrive(0) }
	for _, tc := range []struct {
		name     string
		op       int
		from, to func(b *recBed) int // the duplicated capsule's way; -1 is the host
	}{
		{"partial-write", rmw, host, data0},
		{"parity", rmw, host, pm},
		{"peer-rmw", rmw, data0, pm},
		{"peer-rcw", rcw, data0, pm},
		{"reconstruction-reducer", read, host, pm},
		{"reconstruction-participant", read, host, data0},
		{"peer-degraded-read", read, data0, pm},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newRecBed(t, be, recOpts{level: raid.Raid5})
			b.put(0, randBytes(80, int(b.stripeBytes())))
			if tc.op == read {
				b.failMember(b.geo().DataDrive(0, 1))
			}
			var before core.Stats
			b.call(func() {
				before = b.h.Stats()
				node := func(m int) core.NodeID {
					if m < 0 {
						return core.HostID
					}
					return b.h.MemberNode(m)
				}
				b.cl.Fab.(backend.DuplicateInjector).DuplicateNext(node(tc.from(b)), node(tc.to(b)))
			})
			switch tc.op {
			case rmw:
				b.put(1000, randBytes(81, 4<<10))
			case rcw:
				b.put(0, randBytes(82, 3*chunkSize))
			case read:
				b.o.Read(chunkSize, chunkSize)
			}
			b.call(func() {
				st := b.h.Stats()
				if path := [...]int64{st.RMWWrites - before.RMWWrites, st.RCWWrites - before.RCWWrites,
					st.DegradedReads - before.DegradedReads}[tc.op]; path != 1 {
					t.Errorf("the op did not take its path once (%d)", path)
				}
				if st.Timeouts != before.Timeouts || st.Retries != before.Retries || st.HostFallbackWrites != before.HostFallbackWrites {
					t.Errorf("the op needed its deadline: %d timeouts, %d retries, %d fallback writes",
						st.Timeouts-before.Timeouts, st.Retries-before.Retries, st.HostFallbackWrites-before.HostFallbackWrites)
				}
			})
			b.o.Sweep()
			b.o.Quiesce()
		})
	}
}

// recOvertaken holds an RMW's drive read on the data bdev while the host is
// replaced — crashed and fenced, or seized at a higher epoch. When the read
// completes the record forwards into a severed reduction and must not write.
func recOvertaken(t *testing.T, be string, seize bool) {
	o := recOpts{level: raid.Raid5}
	if seize {
		o.epoch = 1
	}
	b := newRecBed(t, be, o)
	b.put(0, randBytes(82, int(b.stripeBytes())))
	d := b.geo().DataDrive(0, 0)
	writes := b.cl.Drives[d].Stats().WriteOps

	b.slow(d, true)
	b.call(func() { b.h.Write(0, parity.FromBytes(randBytes(83, 4<<10)), func(error) {}) })
	b.cl.Rt.RunFor(20 * sim.Millisecond) // the PartialWrite's drive read is in flight
	b.slow(d, false)
	if seize {
		var err error = errors.New("pending")
		b.call(func() {
			cfg := b.cfg
			cfg.Epoch = 2
			next := b.cl.NewDRAID(cfg)
			dirty := next.Seize(b.h)
			b.h.Crash() // the zombie would only time out and retry into rejections
			b.h, b.cfg = next, cfg
			if len(dirty) != 1 {
				err = fmt.Errorf("seized %d dirty stripes, want the RMW's", len(dirty))
				return
			}
			// First contact at epoch 2 supersedes the command under its read.
			next.ResyncStripe(dirty[0], func(e error) { err = e })
		})
		b.cl.Rt.Run()
		b.call(func() {
			if err != nil {
				t.Fatalf("resync after the seize: %v", err)
			}
		})
	} else {
		b.failover()
	}
	if got := b.cl.Drives[d].Stats().WriteOps; got != writes {
		t.Fatalf("the overtaken command wrote its drive (%d writes, had %d)", got, writes)
	}
	b.o.Sweep()
	b.o.Quiesce()
	// The controller's records serve the next commands as ever.
	b.put(0, randBytes(84, 8<<10))
	b.o.Sweep()
	b.o.Quiesce()
}

// recDriveFailed fails the data bdev while an RMW's drive read is in flight
// there: that record's callback never runs. The host finishes the write on
// the degraded path; the member comes back, is rebuilt and serves again.
func recDriveFailed(t *testing.T, be string) {
	b := newRecBed(t, be, recOpts{level: raid.Raid5})
	b.put(0, randBytes(85, int(b.stripeBytes())))
	d := b.geo().DataDrive(0, 0)
	data := randBytes(86, 4<<10)
	var werr error = errors.New("pending")
	acked := b.o.BeginWrite(0, data)
	b.slow(d, true)
	b.call(func() { b.h.Write(0, parity.FromBytes(data), func(e error) { werr = e }) })
	b.cl.Rt.RunFor(20 * sim.Millisecond)
	b.cl.FailTarget(d)
	b.stranded[d] = live{cmds: 1} // the PartialWrite, its read swallowed
	b.slow(d, false)
	b.cl.Rt.Run()
	b.call(func() { acked(werr) })
	if werr != nil {
		t.Fatalf("write with its data bdev failed under it: %v", werr)
	}
	b.o.Sweep() // degraded
	// The parity reduction that waited for the lost bdev stays open until a
	// fence; the failover's severs it.
	b.failover()
	b.rebuild(d, 1)
	b.o.Sweep()
	b.put(2000, randBytes(87, 4<<10)) // on the rebuilt member
	b.o.Sweep()
	b.o.Quiesce()
}

// recWorkload runs every server command shape — RMW, reconstruct-write,
// full-stripe, degraded read and degraded write — over two stripes.
func recWorkload(t *testing.T, b *recBed) {
	sb := b.stripeBytes()
	b.put(0, randBytes(88, int(2*sb)))
	b.put(1000, randBytes(89, 4<<10))          // RMW, one data chunk
	b.put(chunkSize-2000, randBytes(90, 9000)) // RMW across two chunks
	b.put(sb+chunkSize, randBytes(91, int(sb-2*chunkSize)))
	b.o.Sweep() // healthy
	b.failMember(b.geo().DataDrive(1, 1))
	b.o.Sweep()                                  // degraded
	b.put(sb+chunkSize+500, randBytes(92, 3000)) // into the lost chunk
	b.put(sb+100, randBytes(93, 5000))           // beside it
	b.o.Sweep()
	b.o.Quiesce()
}

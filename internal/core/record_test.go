package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"draid/internal/backend"
	"draid/internal/cluster"
	"draid/internal/core"
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
// realtime chan backend, and ends on byte-exact reads and a clean LeakCheck.

var recBackends = []string{"sim", "realtime-chan"}

// recBed is one array for these tests, driven through the backend-neutral
// Runner so one script serves both backends.
type recBed struct {
	t   *testing.T
	cl  *cluster.Cluster
	h   *core.HostController
	cfg core.Config
}

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
	return &recBed{t: t, cl: cl, h: cl.NewDRAID(cfg), cfg: cfg}
}

func (b *recBed) geo() raid.Geometry { return b.h.Geometry() }

func (b *recBed) stripeBytes() int64 { return b.geo().StripeDataSize() }

// call runs fn on the host's loop.
func (b *recBed) call(fn func()) { b.cl.Rt.Call(fn) }

func (b *recBed) write(off int64, data []byte) error {
	var err error = errors.New("pending")
	b.call(func() { b.h.Write(off, parity.FromBytes(data), func(e error) { err = e }) })
	b.cl.Rt.Run()
	var got error
	b.call(func() { got = err })
	return got
}

func (b *recBed) read(off, n int64) ([]byte, error) {
	var out []byte
	var err error = errors.New("pending")
	b.call(func() {
		b.h.Read(off, n, func(p parity.Buffer, e error) { out, err = p.Data(), e })
	})
	b.cl.Rt.Run()
	var got []byte
	var gotErr error
	b.call(func() { got, gotErr = out, err })
	return got, gotErr
}

func (b *recBed) mustWrite(off int64, data []byte) {
	b.t.Helper()
	if err := b.write(off, data); err != nil {
		b.t.Fatalf("write [%d,+%d): %v", off, len(data), err)
	}
}

// expect reads [off, off+len(want)) and compares byte for byte.
func (b *recBed) expect(off int64, want []byte, what string) {
	b.t.Helper()
	got, err := b.read(off, int64(len(want)))
	if err != nil {
		b.t.Fatalf("%s: read [%d,+%d): %v", what, off, len(want), err)
	}
	if !bytes.Equal(got, want) {
		b.t.Fatalf("%s: read [%d,+%d): payload mismatch", what, off, len(want))
	}
}

// coherent checks every stripe of shadow's extent on the raw drives.
func (b *recBed) coherent(shadow []byte) {
	b.t.Helper()
	for s := int64(0); s*b.stripeBytes() < int64(len(shadow)); s++ {
		verifyStripeParity(b.t, b.cl, b.h, s)
	}
}

func (b *recBed) leakCheck() {
	b.t.Helper()
	b.cl.Rt.Run()
	if err := b.cl.LeakCheck(); err != nil {
		b.t.Fatal(err)
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
				prime := func(b *recBed) []byte {
					shadow := randBytes(70, int(b.stripeBytes()))
					b.mustWrite(0, shadow)
					return shadow
				}
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
						shadow := prime(b)
						b.failMember(lost)
						b.cl.Drives[m].InjectMediaError(base+4096, 4096)
						got, err := b.read(chunkSize, chunkSize)
						switch {
						case level == raid.Raid6 && (err != nil || !bytes.Equal(got, shadow[chunkSize:2*chunkSize])):
							t.Fatalf("RAID-6 degraded read over one unreadable sector: err=%v", err)
						case level == raid.Raid5 && err == nil:
							t.Fatal("RAID-5 degraded read over a second erasure succeeded")
						}
						b.leakCheck()
					})
				}
				for _, n := range []int{4 << 10, 48 << 10} {
					t.Run(fmt.Sprintf("b/rmw-%dk-ure-on-data", n>>10), func(t *testing.T) {
						b := newRecBed(t, be, o)
						shadow := prime(b)
						b.cl.Drives[g.DataDrive(0, 0)].InjectMediaError(base, int64(n))
						data := randBytes(71, n)
						b.mustWrite(0, data)
						copy(shadow, data)
						b.expect(0, shadow, "after the re-driven write")
						b.coherent(shadow)
						b.leakCheck()
					})
				}
				parities := []int{g.PDrive(0)}
				if level == raid.Raid6 {
					parities = append(parities, g.QDrive(0))
				}
				for _, p := range parities {
					t.Run(fmt.Sprintf("c/rmw-ure-on-parity-m%d", p), func(t *testing.T) {
						b := newRecBed(t, be, o)
						shadow := prime(b)
						b.cl.Drives[p].InjectMediaError(base, chunkSize)
						data := randBytes(72, 4<<10)
						b.mustWrite(0, data)
						copy(shadow, data)
						b.expect(0, shadow, "after the re-driven write")
						b.coherent(shadow)
						b.leakCheck()
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
	shadow := randBytes(94, int(b.stripeBytes()))
	b.mustWrite(0, shadow)
	p := b.cl.Drives[b.geo().PDrive(0)]
	data := randBytes(95, 4<<10)
	p.Fail()
	b.call(func() { b.h.Write(0, parity.FromBytes(data), func(error) {}) })
	b.cl.Rt.RunFor(20 * sim.Millisecond) // the Peer is held back at P
	p.Recover()
	b.failover()
	// The data bdev's own write landed before the fence; the resync made
	// parity agree with it.
	copy(shadow, data)
	b.expect(0, shadow, "after the fence")
	b.coherent(shadow)
	b.leakCheck()
}

// recDuplicates replays a PartialWrite, a Parity and a Reconstruction capsule.
// Each executes twice on its bdev: two records, one reduction between them.
// A doubled anchor or contribution leaves that reduction unable to finish, so
// the op ends through its deadline — a write is re-driven by the host's
// fallback, a degraded read fails typed — and the failover fence severs what
// is left. The Reconstruction is duplicated at its reducer:
// a duplicated participant's contribution folds twice into a reduction that
// does finish, the open wrong-bytes defect of keyed reduction slots.
func recDuplicates(t *testing.T, be string) {
	for _, tc := range []struct {
		name   string
		member func(g raid.Geometry) int
		read   bool // a degraded read of chunk 1, else an RMW write into chunk 0
	}{
		{"partial-write", func(g raid.Geometry) int { return g.DataDrive(0, 0) }, false},
		{"parity", func(g raid.Geometry) int { return g.PDrive(0) }, false},
		{"reconstruction", func(g raid.Geometry) int { return g.PDrive(0) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newRecBed(t, be, recOpts{level: raid.Raid5})
			shadow := randBytes(80, int(b.stripeBytes()))
			b.mustWrite(0, shadow)
			if tc.read {
				b.failMember(b.geo().DataDrive(0, 1))
			}
			b.duplicate(tc.member(b.geo()))
			if tc.read {
				// The reducer waits for one WaitNum too many: the read ends
				// through its deadline, typed — never with wrong bytes.
				got, err := b.read(chunkSize, chunkSize)
				if err == nil && !bytes.Equal(got, shadow[chunkSize:2*chunkSize]) {
					t.Fatal("degraded read with the reducer's capsule duplicated returned wrong bytes")
				}
			} else {
				data := randBytes(81, 4<<10)
				b.mustWrite(1000, data)
				copy(shadow[1000:], data)
			}
			b.failover()
			b.expect(0, shadow, "after the duplicate")
			if !tc.read {
				b.coherent(shadow)
			}
			b.leakCheck()
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
	shadow := randBytes(82, int(b.stripeBytes()))
	b.mustWrite(0, shadow)
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
	b.expect(0, shadow, "after the takeover")
	b.coherent(shadow)
	b.leakCheck()
	// The controller's records serve the next commands as ever.
	data := randBytes(84, 8<<10)
	b.mustWrite(0, data)
	copy(shadow, data)
	b.expect(0, shadow, "a write after the takeover")
	b.coherent(shadow)
	b.leakCheck()
}

// recDriveFailed fails the data bdev while an RMW's drive read is in flight
// there: that record's callback never runs. The host finishes the write on
// the degraded path; the member comes back, is rebuilt and serves again.
func recDriveFailed(t *testing.T, be string) {
	b := newRecBed(t, be, recOpts{level: raid.Raid5})
	shadow := randBytes(85, int(b.stripeBytes()))
	b.mustWrite(0, shadow)
	d := b.geo().DataDrive(0, 0)
	data := randBytes(86, 4<<10)
	var werr error = errors.New("pending")
	b.slow(d, true)
	b.call(func() { b.h.Write(0, parity.FromBytes(data), func(e error) { werr = e }) })
	b.cl.Rt.RunFor(20 * sim.Millisecond)
	b.cl.FailTarget(d)
	b.slow(d, false)
	b.cl.Rt.Run()
	b.call(func() {
		if werr != nil {
			t.Fatalf("write with its data bdev failed under it: %v", werr)
		}
	})
	copy(shadow, data)
	b.expect(0, shadow, "degraded, after the write")
	// The parity reduction that waited for the lost bdev stays open until a
	// fence; the failover's severs it.
	b.failover()
	b.rebuild(d, 1)
	b.expect(0, shadow, "after the rebuild")
	b.coherent(shadow)
	data = randBytes(87, 4<<10)
	b.mustWrite(2000, data)
	copy(shadow[2000:], data)
	b.expect(0, shadow, "a write on the rebuilt member")
	b.coherent(shadow)
	b.leakCheck()
}

// recWorkload runs every server command shape — RMW, reconstruct-write,
// full-stripe, degraded read and degraded write — over two stripes.
func recWorkload(t *testing.T, b *recBed) {
	sb := b.stripeBytes()
	shadow := randBytes(88, int(2*sb))
	b.mustWrite(0, shadow)
	put := func(off int64, n int, seed int64) {
		data := randBytes(seed, n)
		b.mustWrite(off, data)
		copy(shadow[off:], data)
	}
	put(1000, 4<<10, 89)          // RMW, one data chunk
	put(chunkSize-2000, 9000, 90) // RMW across two chunks
	put(sb+chunkSize, int(sb-2*chunkSize), 91)
	b.expect(0, shadow, "healthy")
	b.coherent(shadow)
	b.failMember(b.geo().DataDrive(1, 1))
	b.expect(0, shadow, "degraded")
	put(sb+chunkSize+500, 3000, 92) // into the lost chunk
	put(sb+100, 5000, 93)           // beside it
	b.expect(0, shadow, "degraded, after writes")
	b.leakCheck()
}

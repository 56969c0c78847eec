package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"draid/internal/backend"
	"draid/internal/cluster"
	"draid/internal/core"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/sim"
	"draid/internal/ssd"
)

// payloadCounter wraps a transport and counts the payload bytes crossing the
// host endpoint — capsule headers, which differ between the backends' wire
// formats, are not counted.
type payloadCounter struct {
	backend.Transport
	out, in int64
}

func (p *payloadCounter) Send(from, to backend.NodeID, cmd nvmeof.Command, payload parity.Buffer) {
	if from == core.HostID {
		p.out += int64(payload.Len())
	}
	p.Transport.Send(from, to, cmd, payload)
}

func (p *payloadCounter) RegisterVolume(id backend.NodeID, vol backend.VolumeID, h backend.Handler) {
	p.Transport.RegisterVolume(id, vol, func(m backend.Message) {
		p.in += int64(m.Payload.Len())
		h(m)
	})
}

// TestClosedFormBytes pins the paper's Table 1 costs and Thomasian's RAID
// small-write penalty exactly, on the simulation and on the realtime channel
// transport, for dRAID and for the host-reduce (SPDK) profile of the same
// engine: drive bytes and host-NIC payload bytes per user byte.
func TestClosedFormBytes(t *testing.T) {
	const cs = 64 << 10
	type ratio struct{ num, den int64 } // expected bytes per user byte, num/den
	for _, tc := range []struct {
		name    string
		level   raid.Level
		fail    bool  // fail the member holding stripe 0's chunk 0, then read it
		size    int64 // bytes written at offset 0 (or read, when fail)
		drive   ratio // drive bytes (read + written) per user byte; zero: not asserted
		nicOut  [2]ratio
		nicIn   [2]ratio // [dRAID, host-reduce]
		skipNIC bool
	}{
		{name: "raid5-rmw-4k", level: raid.Raid5, size: 4 << 10, drive: ratio{4, 1},
			nicOut: [2]ratio{{1, 1}, {2, 1}}, nicIn: [2]ratio{{0, 1}, {2, 1}}},
		{name: "raid5-full-stripe", level: raid.Raid5, size: 7 * cs, drive: ratio{8, 7},
			nicOut: [2]ratio{{8, 7}, {8, 7}}, nicIn: [2]ratio{{0, 1}, {0, 1}}},
		{name: "raid5-degraded-read-chunk", level: raid.Raid5, fail: true, size: cs,
			nicOut: [2]ratio{{0, 1}, {0, 1}}, nicIn: [2]ratio{{1, 1}, {7, 1}}},
		{name: "raid6-rmw-4k", level: raid.Raid6, size: 4 << 10, drive: ratio{6, 1}, skipNIC: true},
	} {
		for _, be := range []string{"sim", "realtime"} {
			for si, sys := range []struct {
				name   string
				reduce core.Reduce
			}{{"draid", core.Reduce{}}, {"host-reduce", core.SPDK()}} {
				t.Run(fmt.Sprintf("%s/%s/%s", tc.name, be, sys.name), func(t *testing.T) {
					var cl *cluster.Cluster
					if be == "sim" {
						spec := cluster.DefaultSpec()
						spec.Targets = 8
						drv := ssd.DefaultSpec()
						drv.Capacity = 4 << 20
						spec.Drive = &drv
						cl = cluster.New(spec)
					} else {
						var err error
						if cl, err = cluster.NewRealtime(cluster.RealtimeSpec{Targets: 8, DriveCapacity: 4 << 20}); err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { cl.Close() })
					}
					fab := &payloadCounter{Transport: cl.Fab}
					geo := raid.Geometry{Level: tc.level, Width: 8, ChunkSize: cs}
					h := core.NewHost(cl.Rt, fab, cl.DriveCapacity(), core.Config{
						Geometry: geo, Costs: cl.Costs, Reduce: sys.reduce,
					})
					var drive0 int64
					driveBytes := func() (n int64) {
						for _, d := range cl.Drives {
							st := d.Stats()
							n += st.ReadBytes + st.WriteBytes
						}
						return n - drive0
					}
					if tc.fail {
						m := geo.DataDrive(0, 0)
						cl.FailTarget(m)
						cl.Rt.Call(func() { h.SetFailed(m, true) })
					}
					drive0 = driveBytes()
					var err error = errors.New("not done")
					cl.Rt.Call(func() {
						if tc.fail {
							h.Read(0, tc.size, func(_ parity.Buffer, e error) { err = e })
						} else {
							h.Write(0, parity.Alloc(int(tc.size)), func(e error) { err = e })
						}
					})
					cl.Rt.Run()
					if err != nil {
						t.Fatal(err)
					}
					check := func(what string, got int64, want ratio) {
						t.Helper()
						if got*want.den != want.num*tc.size {
							t.Errorf("%s = %d bytes for %d user bytes (%.4f×), want %d/%d×",
								what, got, tc.size, float64(got)/float64(tc.size), want.num, want.den)
						}
					}
					if tc.drive.den != 0 {
						check("drive bytes", driveBytes(), tc.drive)
					}
					if !tc.skipNIC {
						cl.Rt.Call(func() {
							check("host-NIC payload out", fab.out, tc.nicOut[si])
							check("host-NIC payload in", fab.in, tc.nicIn[si])
						})
					}
				})
			}
		}
	}
}

// profileCluster is testCluster with a reduce profile.
func profileCluster(t *testing.T, targets int, level raid.Level, r core.Reduce) (*cluster.Cluster, *core.HostController) {
	t.Helper()
	spec := cluster.DefaultSpec()
	spec.Targets = targets
	drv := ssd.DefaultSpec()
	drv.Capacity = 64 << 20
	spec.Drive = &drv
	cl := cluster.New(spec)
	h := cl.NewDRAID(core.Config{
		Geometry: raid.Geometry{Level: level, Width: targets, ChunkSize: chunkSize},
		Deadline: 50 * sim.Millisecond,
		Reduce:   r,
	})
	return cl, h
}

// TestHostReduceProfiles checks the host-centric comparison systems — the
// SPDK and Linux profiles of the one engine — for correctness under every
// write mode and the degraded paths, where their data flow is the host's.
func TestHostReduceProfiles(t *testing.T) {
	for _, p := range []struct {
		name string
		r    core.Reduce
	}{{"spdk", core.SPDK()}, {"linux", core.Linux()}} {
		for _, tc := range []struct {
			name string
			run  func(t *testing.T, r core.Reduce)
		}{
			{"round-trip-all-modes", func(t *testing.T, r core.Reduce) {
				cl, h := profileCluster(t, 8, raid.Raid5, r) // k=7
				for i, c := range []struct {
					off  int64
					size int
				}{
					{4 << 10, 8 << 10},             // RMW single chunk
					{0, 3 * chunkSize},             // RCW
					{0, 7 * chunkSize},             // full stripe
					{2*chunkSize + 100, 2 << 10},   // unaligned RMW
					{6 * chunkSize, 2 * chunkSize}, // cross-stripe
				} {
					data := randBytes(int64(100+i), c.size)
					mustWrite(t, cl, h, c.off, data)
					if got := mustRead(t, cl, h, c.off, int64(c.size)); !bytes.Equal(got, data) {
						t.Fatalf("case %d: round-trip mismatch", i)
					}
				}
				verifyStripeParity(t, cl, h, 0)
				verifyStripeParity(t, cl, h, 1)
				if st := h.Stats(); st.RMWWrites == 0 || st.RCWWrites == 0 || st.FullStripeWrites == 0 {
					t.Fatalf("stats = %+v, expected all modes exercised", st)
				}
			}},
			// Linux's parity work runs at its copy rate, Q included.
			{"raid6-round-trip", func(t *testing.T, r core.Reduce) {
				cl, h := profileCluster(t, 6, raid.Raid6, r)
				data := randBytes(1, 2*chunkSize)
				mustWrite(t, cl, h, 0, data)
				if got := mustRead(t, cl, h, 0, int64(len(data))); !bytes.Equal(got, data) {
					t.Fatal("round-trip mismatch")
				}
				mustWrite(t, cl, h, 3*chunkSize+512, randBytes(2, 4<<10)) // RMW through Q
				verifyStripeParity(t, cl, h, 0)
			}},
			// Host-centric reconstruction drags (n-1)× the data across the host
			// NIC inbound — the Table 1 D-Read overhead.
			{"degraded-read-on-host", func(t *testing.T, r core.Reduce) {
				cl, h := profileCluster(t, 5, raid.Raid5, r)
				data := randBytes(2, 16<<10)
				mustWrite(t, cl, h, 0, data)
				failMember(cl, h, h.Geometry().DataDrive(0, 0))
				cl.ResetTraffic()
				if got := mustRead(t, cl, h, 0, int64(len(data))); !bytes.Equal(got, data) {
					t.Fatal("degraded read mismatch")
				}
				if _, in := cl.TotalHostBytes(); float64(in)/float64(len(data)) < 3.5 {
					t.Fatalf("host inbound = %.2f× requested, expected ~(n-1)× amplification", float64(in)/float64(len(data)))
				}
				if h.Stats().Reconstructions == 0 || h.Stats().HostFallbackReads == 0 {
					t.Fatalf("stats = %+v, want a host-side reconstruction", h.Stats())
				}
			}},
			{"degraded-write-untouched-failed", func(t *testing.T, r core.Reduce) {
				cl, h := profileCluster(t, 5, raid.Raid5, r)
				seed := randBytes(3, 4*chunkSize)
				mustWrite(t, cl, h, 0, seed)
				failMember(cl, h, h.Geometry().DataDrive(0, 2))
				mustWrite(t, cl, h, 0, randBytes(4, chunkSize))
				if got := mustRead(t, cl, h, 2*chunkSize, chunkSize); !bytes.Equal(got, seed[2*chunkSize:3*chunkSize]) {
					t.Fatal("failed chunk no longer reconstructable after degraded RMW")
				}
			}},
			{"degraded-write-touched-failed", func(t *testing.T, r core.Reduce) {
				cl, h := profileCluster(t, 5, raid.Raid5, r)
				mustWrite(t, cl, h, 0, randBytes(5, 4*chunkSize))
				failMember(cl, h, h.Geometry().DataDrive(0, 1))
				newData := randBytes(6, chunkSize)
				mustWrite(t, cl, h, chunkSize, newData)
				if got := mustRead(t, cl, h, chunkSize, chunkSize); !bytes.Equal(got, newData) {
					t.Fatal("write to failed chunk not absorbed by parity")
				}
			}},
			// The fallback path: a multi-chunk write partially covering a failed
			// chunk needs host-side reconstruction of the lost old content.
			{"partial-cover-of-failed-chunk", func(t *testing.T, r core.Reduce) {
				cl, h := profileCluster(t, 5, raid.Raid5, r)
				seed := randBytes(23, 4*chunkSize)
				mustWrite(t, cl, h, 0, seed)
				failMember(cl, h, h.Geometry().DataDrive(0, 1))
				off := int64(chunkSize / 2)
				data := randBytes(24, chunkSize) // half of chunk 0 + half of chunk 1 (failed)
				mustWrite(t, cl, h, off, data)
				if got := mustRead(t, cl, h, off, int64(len(data))); !bytes.Equal(got, data) {
					t.Fatal("round-trip mismatch")
				}
				if tail := mustRead(t, cl, h, chunkSize+chunkSize/2, chunkSize/2); !bytes.Equal(tail, seed[chunkSize+chunkSize/2:2*chunkSize]) {
					t.Fatal("untouched range of the failed chunk corrupted")
				}
			}},
			// RAID-5 with its parity member dead degenerates to bare data writes.
			{"plain-writes-without-parity", func(t *testing.T, r core.Reduce) {
				cl, h := profileCluster(t, 5, raid.Raid5, r)
				mustWrite(t, cl, h, 0, randBytes(21, 4*chunkSize))
				failMember(cl, h, h.Geometry().PDrive(0))
				newData := randBytes(22, 8<<10)
				mustWrite(t, cl, h, 0, newData)
				if got := mustRead(t, cl, h, 0, 8<<10); !bytes.Equal(got, newData) {
					t.Fatal("plain write round-trip mismatch")
				}
			}},
			// A member that dies silently: the write's deadline marks it failed
			// and the retry goes through, as does a read's.
			{"timeout-retry-marks-failed", func(t *testing.T, r core.Reduce) {
				cl, h := profileCluster(t, 5, raid.Raid5, r)
				mustWrite(t, cl, h, 0, randBytes(7, 4*chunkSize))
				m := h.Geometry().DataDrive(0, 0)
				cl.FailTarget(m) // host not told
				newData := randBytes(8, chunkSize)
				mustWrite(t, cl, h, 0, newData)
				if st := h.Stats(); st.Timeouts == 0 || st.Retries == 0 {
					t.Fatalf("stats = %+v, want timeout+retry", st)
				}
				if got := h.FailedMembers(); len(got) != 1 || got[0] != m {
					t.Fatalf("failed members = %v, want [%d]", got, m)
				}
				if got := mustRead(t, cl, h, 0, chunkSize); !bytes.Equal(got, newData) {
					t.Fatal("post-retry read mismatch")
				}
			}},
			{"read-retry-after-silent-failure", func(t *testing.T, r core.Reduce) {
				cl, h := profileCluster(t, 5, raid.Raid5, r)
				data := randBytes(20, 16<<10)
				mustWrite(t, cl, h, 0, data)
				cl.FailTarget(h.Geometry().DataDrive(0, 0)) // host not told
				if got := mustRead(t, cl, h, 0, int64(len(data))); !bytes.Equal(got, data) {
					t.Fatal("read retry mismatch")
				}
				if st := h.Stats(); st.Timeouts == 0 || st.Retries == 0 {
					t.Fatalf("stats = %+v", st)
				}
			}},
			// Host solves through Q: data plus P lost, and two data chunks lost.
			{"raid6-data-and-p-lost", func(t *testing.T, r core.Reduce) {
				cl, h := profileCluster(t, 6, raid.Raid6, r)
				data := randBytes(25, 4*chunkSize)
				mustWrite(t, cl, h, 0, data)
				failMember(cl, h, h.Geometry().DataDrive(0, 1))
				failMember(cl, h, h.Geometry().PDrive(0))
				if got := mustRead(t, cl, h, chunkSize, chunkSize); !bytes.Equal(got, data[chunkSize:2*chunkSize]) {
					t.Fatal("data+P recovery via Q mismatch")
				}
			}},
			{"raid6-two-data-lost", func(t *testing.T, r core.Reduce) {
				cl, h := profileCluster(t, 6, raid.Raid6, r)
				data := randBytes(26, 4*chunkSize)
				mustWrite(t, cl, h, 0, data)
				for _, c := range []int{0, 2} {
					failMember(cl, h, h.Geometry().DataDrive(0, c))
				}
				for _, c := range []int{0, 2} {
					if got := mustRead(t, cl, h, int64(c)*chunkSize, chunkSize); !bytes.Equal(got, data[c*chunkSize:(c+1)*chunkSize]) {
						t.Fatalf("two-data-lost recovery mismatch for chunk %d", c)
					}
				}
			}},
			{"double-fault-read-fails", func(t *testing.T, r core.Reduce) {
				cl, h := profileCluster(t, 5, raid.Raid5, r)
				mustWrite(t, cl, h, 0, randBytes(27, 4*chunkSize))
				for _, c := range []int{0, 1} {
					failMember(cl, h, h.Geometry().DataDrive(0, c))
				}
				var err error
				h.Read(0, chunkSize, func(_ parity.Buffer, e error) { err = e })
				cl.Eng.Run()
				if err == nil {
					t.Fatal("RAID-5 double failure read should error")
				}
			}},
		} {
			t.Run(p.name+"/"+tc.name, func(t *testing.T) { tc.run(t, p.r) })
		}
	}
}

// SPDK-style RMW writes cost 2× host outbound (data + parity) and 2× inbound
// (the pre-reads) — the bandwidth ceiling the paper identifies; a two-chunk
// RMW shares one parity union, so its outbound is 1.5×.
func TestSPDKWriteTraffic(t *testing.T) {
	for _, tc := range []struct {
		chunks  int
		out, in float64
	}{{1, 2, 2}, {2, 1.5, 1.5}} {
		cl, h := profileCluster(t, 8, raid.Raid5, core.SPDK())
		mustWrite(t, cl, h, 0, randBytes(9, 128<<10))
		cl.ResetTraffic()
		user := tc.chunks * chunkSize
		mustWrite(t, cl, h, 4*chunkSize, randBytes(10, user))
		out, in := cl.TotalHostBytes()
		if r := float64(out) / float64(user); r < 0.95*tc.out || r > 1.05*tc.out {
			t.Errorf("%d-chunk RMW: host outbound = %.2f× user bytes, want ~%.1f×", tc.chunks, r, tc.out)
		}
		if r := float64(in) / float64(user); r < 0.95*tc.in || r > 1.05*tc.in {
			t.Errorf("%d-chunk RMW: host inbound = %.2f× user bytes, want ~%.1f× (pre-reads)", tc.chunks, r, tc.in)
		}
	}
}

// SPDK's reads of one stripe queue on its stripe lock; Linux's do not.
func TestHostReduceReadLocking(t *testing.T) {
	for _, tc := range []struct {
		name  string
		r     core.Reduce
		waits int64
	}{{"spdk", core.SPDK(), 3}, {"linux", core.Linux(), 0}} {
		cl, h := profileCluster(t, 5, raid.Raid5, tc.r)
		mustWrite(t, cl, h, 0, randBytes(11, 32<<10))
		before := h.Stats().QueuedStripeWaits
		done := 0
		for i := 0; i < 4; i++ {
			h.Read(0, 8<<10, func(_ parity.Buffer, err error) {
				if err != nil {
					t.Errorf("%s read: %v", tc.name, err)
				}
				done++
			})
		}
		cl.Eng.Run()
		if got := h.Stats().QueuedStripeWaits - before; done != 4 || got != tc.waits {
			t.Errorf("%s: %d reads done, %d stripe-lock waits; want 4 and %d", tc.name, done, got, tc.waits)
		}
	}
}

// Linux's single raid5d worker makes its writes measurably slower than SPDK's
// multi-core handling under concurrency.
func TestLinuxWritesSlowerThanSPDK(t *testing.T) {
	elapsed := func(r core.Reduce) sim.Time {
		cl, h := profileCluster(t, 8, raid.Raid5, r)
		pending := 0
		for i := 0; i < 32; i++ {
			pending++
			h.Write(int64(i)*7*chunkSize, parity.FromBytes(randBytes(int64(i), 16<<10)), func(err error) { // one write per stripe
				if err != nil {
					t.Errorf("write: %v", err)
				}
				pending--
			})
		}
		end := cl.Eng.Run()
		if pending != 0 {
			t.Fatal("writes did not drain")
		}
		return end
	}
	if spdk, linux := elapsed(core.SPDK()), elapsed(core.Linux()); linux <= spdk {
		t.Fatalf("linux (%v) should be slower than spdk (%v)", linux, spdk)
	}
}

// The ablation-hostparity arm: dRAID with every partial write's parity
// recomputed on the host through the consistency path.
func TestHostStripeWritesAblation(t *testing.T) {
	spec := cluster.DefaultSpec()
	spec.Targets = 5
	drv := ssd.DefaultSpec()
	drv.Capacity = 64 << 20
	spec.Drive = &drv
	cl := cluster.New(spec)
	h := cl.NewDRAID(core.Config{
		Geometry: raid.Geometry{Level: raid.Raid5, Width: 5, ChunkSize: chunkSize},
		Reduce:   core.Reduce{Writes: core.HostStripeWrites},
	})
	data := randBytes(36, 8<<10)
	mustWrite(t, cl, h, 0, data)
	if h.Stats().HostFallbackWrites == 0 {
		t.Fatal("ablation should route through host fallback")
	}
	if !bytes.Equal(mustRead(t, cl, h, 0, int64(len(data))), data) {
		t.Fatal("ablation round-trip mismatch")
	}
	verifyStripeParity(t, cl, h, 0)
}

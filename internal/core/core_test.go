package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"draid/internal/blockdev"
	"draid/internal/cluster"
	"draid/internal/core"
	"draid/internal/gf256"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/sim"
	"draid/internal/ssd"
)

const chunkSize = 64 << 10

// testCluster builds a small array: 64 KB chunks, 64 MB drives, fast fabric.
func testCluster(t *testing.T, targets int, level raid.Level) (*cluster.Cluster, *core.HostController) {
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
	})
	return cl, h
}

func mustWrite(t *testing.T, cl *cluster.Cluster, h *core.HostController, off int64, data []byte) {
	t.Helper()
	doneErr := errors.New("not done")
	h.Write(off, parity.FromBytes(data), func(err error) { doneErr = err })
	cl.Eng.Run()
	if doneErr != nil {
		t.Fatalf("write at %d (%d bytes): %v", off, len(data), doneErr)
	}
}

func mustRead(t *testing.T, cl *cluster.Cluster, h *core.HostController, off, n int64) []byte {
	t.Helper()
	var out []byte
	doneErr := errors.New("not done")
	h.Read(off, n, func(b parity.Buffer, err error) {
		doneErr = err
		out = b.Disown().Data()
	})
	cl.Eng.Run()
	if doneErr != nil {
		t.Fatalf("read at %d (%d bytes): %v", off, n, doneErr)
	}
	return out
}

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// verifyStripeParity checks P (and Q) on the raw drives for a stripe.
func verifyStripeParity(t *testing.T, cl *cluster.Cluster, h *core.HostController, stripe int64) {
	t.Helper()
	if err := stripeParity(cl, h, stripe); err != nil {
		t.Fatal(err)
	}
}

// stripeParity reports whether P (and Q) on the raw drives disagree with a
// stripe's data.
func stripeParity(cl *cluster.Cluster, h *core.HostController, stripe int64) error {
	g := h.Geometry()
	base := g.DriveOffset(stripe)
	data := make([][]byte, g.DataChunks())
	for c := 0; c < g.DataChunks(); c++ {
		data[c] = cl.Drives[g.DataDrive(stripe, c)].PeekSync(base, g.ChunkSize)
	}
	wantP := make([]byte, g.ChunkSize)
	wantQ := make([]byte, g.ChunkSize)
	gf256.SyndromePQ(wantP, wantQ, data)
	gotP := cl.Drives[g.PDrive(stripe)].PeekSync(base, g.ChunkSize)
	if !bytes.Equal(gotP, wantP) {
		return fmt.Errorf("stripe %d: P chunk inconsistent with data", stripe)
	}
	if g.Level == raid.Raid6 && !bytes.Equal(cl.Drives[g.QDrive(stripe)].PeekSync(base, g.ChunkSize), wantQ) {
		return fmt.Errorf("stripe %d: Q chunk inconsistent with data", stripe)
	}
	return nil
}

func TestSizeAndBounds(t *testing.T) {
	cl, h := testCluster(t, 4, raid.Raid5)
	want := (int64(64<<20) / chunkSize) * 3 * chunkSize
	if h.Size() != want {
		t.Fatalf("size = %d, want %d", h.Size(), want)
	}
	var rErr, wErr error
	h.Read(h.Size()-10, 20, func(_ parity.Buffer, err error) { rErr = err })
	h.Write(-1, parity.Sized(4), func(err error) { wErr = err })
	cl.Eng.Run()
	if !errors.Is(rErr, blockdev.ErrOutOfRange) || !errors.Is(wErr, blockdev.ErrOutOfRange) {
		t.Fatalf("rErr=%v wErr=%v", rErr, wErr)
	}
}

func TestRMWWriteReadRoundTrip(t *testing.T) {
	cl, h := testCluster(t, 5, raid.Raid5)
	data := randBytes(1, 8<<10)
	mustWrite(t, cl, h, 4<<10, data)
	if h.Stats().RMWWrites != 1 {
		t.Fatalf("stats = %+v, want 1 RMW write", h.Stats())
	}
	got := mustRead(t, cl, h, 4<<10, int64(len(data)))
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
	verifyStripeParity(t, cl, h, 0)
}

func TestRMWUpdatesParityIncrementally(t *testing.T) {
	cl, h := testCluster(t, 5, raid.Raid5)
	// Two successive writes to the same chunk range must leave parity
	// consistent (delta applied on top of delta).
	mustWrite(t, cl, h, 0, randBytes(2, 16<<10))
	mustWrite(t, cl, h, 0, randBytes(3, 16<<10))
	verifyStripeParity(t, cl, h, 0)
}

func TestMultiChunkRMWSameStripe(t *testing.T) {
	cl, h := testCluster(t, 8, raid.Raid5) // k=7
	// Write spanning chunks 1..2 with different in-chunk ranges.
	off := int64(chunkSize + chunkSize/2)
	data := randBytes(4, chunkSize)
	mustWrite(t, cl, h, off, data)
	got := mustRead(t, cl, h, off, int64(len(data)))
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
	verifyStripeParity(t, cl, h, 0)
}

func TestFullStripeWrite(t *testing.T) {
	cl, h := testCluster(t, 5, raid.Raid5) // k=4, stripe 256 KB
	stripeData := randBytes(5, 4*chunkSize)
	mustWrite(t, cl, h, 0, stripeData)
	if h.Stats().FullStripeWrites != 1 {
		t.Fatalf("stats = %+v, want 1 full-stripe write", h.Stats())
	}
	got := mustRead(t, cl, h, 0, int64(len(stripeData)))
	if !bytes.Equal(got, stripeData) {
		t.Fatal("read-back mismatch")
	}
	verifyStripeParity(t, cl, h, 0)
}

func TestRCWWrite(t *testing.T) {
	cl, h := testCluster(t, 8, raid.Raid5) // k=7
	// 3 full chunks (of 7): RMW needs 4 pre-reads, RCW needs 4 ⇒ RCW on tie.
	data := randBytes(6, 3*chunkSize)
	mustWrite(t, cl, h, chunkSize, data)
	if h.Stats().RCWWrites != 1 {
		t.Fatalf("stats = %+v, want 1 RCW write", h.Stats())
	}
	got := mustRead(t, cl, h, chunkSize, int64(len(data)))
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
	verifyStripeParity(t, cl, h, 0)
}

// TestPoisonedAccumulatorGoesBackToThePool: over drives that store no bytes,
// a reconstruct-write's parity reduction folds the written members' real
// bytes first and the untouched members' elided reads after. The first
// elided one poisons the accumulator, whose storage must go back to the
// server's pool rather than be written off, so the next reduction reuses it.
func TestPoisonedAccumulatorGoesBackToThePool(t *testing.T) {
	spec := cluster.DefaultSpec()
	drv := ssd.DefaultSpec()
	drv.Capacity = 64 << 20
	drv.StoreData = false
	spec.Drive = &drv
	cl := cluster.New(spec)
	h := cl.NewDRAID(core.Config{Geometry: raid.Geometry{Level: raid.Raid5, Width: 8, ChunkSize: chunkSize}})
	data := randBytes(6, 3*chunkSize)
	for i := 0; i < 2; i++ {
		mustWrite(t, cl, h, chunkSize, data) // 3 of 7 chunks: reconstruct-write
	}
	if h.Stats().RCWWrites != 2 {
		t.Fatalf("stats = %+v, want 2 RCW writes", h.Stats())
	}
	var total parity.PoolStats
	for _, s := range cl.Servers {
		st := s.BufferStats()
		total.Gets += st.Gets
		total.Hits += st.Hits
		total.Puts += st.Puts
		total.Disowned += st.Disowned
	}
	if total.Gets != 2 || total.Hits != 1 || total.Puts != 2 || total.Disowned != 0 {
		t.Fatalf("server accumulator pools %+v, want 2 gets (1 recycled), 2 puts, none disowned", total)
	}
	if err := cl.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiStripeWrite(t *testing.T) {
	cl, h := testCluster(t, 4, raid.Raid5) // k=3, stripe 192 KB
	data := randBytes(7, 5*chunkSize)      // crosses stripe boundary
	off := int64(2 * chunkSize)
	mustWrite(t, cl, h, off, data)
	got := mustRead(t, cl, h, off, int64(len(data)))
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
	verifyStripeParity(t, cl, h, 0)
	verifyStripeParity(t, cl, h, 1)
	verifyStripeParity(t, cl, h, 2)
}

func TestWritesToDistinctRangesOfAStripeSerialize(t *testing.T) {
	cl, h := testCluster(t, 5, raid.Raid5)
	a := randBytes(8, 8<<10)
	b := randBytes(9, 8<<10)
	done := 0
	h.Write(0, parity.FromBytes(a), func(err error) {
		if err != nil {
			t.Errorf("write a: %v", err)
		}
		done++
	})
	h.Write(16<<10, parity.FromBytes(b), func(err error) {
		if err != nil {
			t.Errorf("write b: %v", err)
		}
		done++
	})
	cl.Eng.Run()
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	if h.Stats().QueuedStripeWaits != 1 {
		t.Fatalf("stats = %+v, want 1 queued stripe wait", h.Stats())
	}
	if !bytes.Equal(mustRead(t, cl, h, 0, 8<<10), a) || !bytes.Equal(mustRead(t, cl, h, 16<<10, 8<<10), b) {
		t.Fatal("read-back mismatch")
	}
	verifyStripeParity(t, cl, h, 0)
}

func TestOverlappingWritesSerializeLastWins(t *testing.T) {
	cl, h := testCluster(t, 5, raid.Raid5)
	a := randBytes(10, 8<<10)
	b := randBytes(11, 8<<10)
	h.Write(0, parity.FromBytes(a), func(err error) {})
	h.Write(0, parity.FromBytes(b), func(err error) {})
	cl.Eng.Run()
	if !bytes.Equal(mustRead(t, cl, h, 0, 8<<10), b) {
		t.Fatal("second write should win")
	}
	verifyStripeParity(t, cl, h, 0)
}

func TestReadUnwrittenReturnsZeros(t *testing.T) {
	cl, h := testCluster(t, 4, raid.Raid5)
	got := mustRead(t, cl, h, 1<<20, 4096)
	for _, v := range got {
		if v != 0 {
			t.Fatal("unwritten data not zero")
		}
	}
}

// --- Degraded operation -----------------------------------------------------

func failMember(cl *cluster.Cluster, h *core.HostController, m int) {
	cl.FailTarget(m)
	h.SetFailed(m, true)
}

func TestDegradedReadReconstructsData(t *testing.T) {
	cl, h := testCluster(t, 5, raid.Raid5)
	data := randBytes(12, 16<<10)
	mustWrite(t, cl, h, 0, data) // chunk 0 of stripe 0 → member DataDrive(0,0)
	m := h.Geometry().DataDrive(0, 0)
	failMember(cl, h, m)
	got := mustRead(t, cl, h, 0, int64(len(data)))
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read returned wrong data")
	}
	if h.Stats().DegradedReads == 0 || h.Stats().Reconstructions == 0 {
		t.Fatalf("stats = %+v", h.Stats())
	}
}

func TestDegradedReadMixedNormalAndReconstructed(t *testing.T) {
	cl, h := testCluster(t, 5, raid.Raid5) // k=4
	data := randBytes(13, 3*chunkSize)     // chunks 0,1,2 of stripe 0
	mustWrite(t, cl, h, 0, data)
	m := h.Geometry().DataDrive(0, 1) // fail the middle chunk
	failMember(cl, h, m)
	got := mustRead(t, cl, h, 0, int64(len(data)))
	if !bytes.Equal(got, data) {
		t.Fatal("mixed degraded read mismatch")
	}
}

func TestDegradedReadOfParityMemberIsNormal(t *testing.T) {
	cl, h := testCluster(t, 5, raid.Raid5)
	data := randBytes(14, 8<<10)
	mustWrite(t, cl, h, 0, data)
	failMember(cl, h, h.Geometry().PDrive(0))
	got := mustRead(t, cl, h, 0, int64(len(data)))
	if !bytes.Equal(got, data) {
		t.Fatal("read with failed parity member mismatch")
	}
	if h.Stats().DegradedReads != 0 {
		t.Fatal("parity failure should not degrade reads of this stripe")
	}
}

func TestDegradedWriteUntouchedFailedChunkUsesRMW(t *testing.T) {
	cl, h := testCluster(t, 5, raid.Raid5) // k=4
	// Seed the whole stripe, then fail the member holding chunk 2.
	seed := randBytes(15, 4*chunkSize)
	mustWrite(t, cl, h, 0, seed)
	m := h.Geometry().DataDrive(0, 2)
	failMember(cl, h, m)

	// Overwrite chunk 0; chunk 2 (failed) is untouched.
	newData := randBytes(16, chunkSize)
	mustWrite(t, cl, h, 0, newData)

	// The failed chunk must still reconstruct to its original content.
	got := mustRead(t, cl, h, 2*chunkSize, chunkSize)
	if !bytes.Equal(got, seed[2*chunkSize:3*chunkSize]) {
		t.Fatal("degraded RMW corrupted the failed chunk's parity encoding")
	}
	if !bytes.Equal(mustRead(t, cl, h, 0, chunkSize), newData) {
		t.Fatal("written chunk mismatch")
	}
}

func TestDegradedWriteToFailedChunkReflectsInParity(t *testing.T) {
	cl, h := testCluster(t, 5, raid.Raid5)
	seed := randBytes(17, 4*chunkSize)
	mustWrite(t, cl, h, 0, seed)
	m := h.Geometry().DataDrive(0, 1)
	failMember(cl, h, m)

	// Write the failed chunk: data can't be persisted there, but parity
	// must absorb it so reads reconstruct the new content.
	newData := randBytes(18, chunkSize)
	mustWrite(t, cl, h, chunkSize, newData)
	got := mustRead(t, cl, h, chunkSize, chunkSize)
	if !bytes.Equal(got, newData) {
		t.Fatal("write to failed chunk not reflected in parity")
	}
	// Neighbours unaffected.
	if !bytes.Equal(mustRead(t, cl, h, 0, chunkSize), seed[:chunkSize]) {
		t.Fatal("neighbour chunk corrupted")
	}
}

func TestDegradedPartialWriteToFailedChunkFallsBack(t *testing.T) {
	cl, h := testCluster(t, 5, raid.Raid5)
	seed := randBytes(19, 4*chunkSize)
	mustWrite(t, cl, h, 0, seed)
	m := h.Geometry().DataDrive(0, 1)
	failMember(cl, h, m)

	// Multi-chunk write partially covering the failed chunk: union is
	// bigger than the failed chunk's written range ⇒ host fallback.
	off := int64(chunkSize / 2)
	data := randBytes(20, chunkSize) // covers half of chunk 0 and half of chunk 1
	mustWrite(t, cl, h, off, data)
	if h.Stats().HostFallbackWrites == 0 {
		t.Fatalf("stats = %+v, expected host fallback", h.Stats())
	}
	got := mustRead(t, cl, h, off, int64(len(data)))
	if !bytes.Equal(got, data) {
		t.Fatal("fallback write round-trip mismatch")
	}
	// Untouched tail of the failed chunk preserved.
	tail := mustRead(t, cl, h, chunkSize+chunkSize/2, chunkSize/2)
	if !bytes.Equal(tail, seed[chunkSize+chunkSize/2:2*chunkSize]) {
		t.Fatal("fallback corrupted untouched range of failed chunk")
	}
}

func TestWriteTimeoutMarksFailedAndRetries(t *testing.T) {
	cl, h := testCluster(t, 5, raid.Raid5)
	seed := randBytes(21, 4*chunkSize)
	mustWrite(t, cl, h, 0, seed)

	// Fail a data member WITHOUT telling the host.
	m := h.Geometry().DataDrive(0, 0)
	cl.FailTarget(m)

	var werr error = errors.New("pending")
	newData := randBytes(22, chunkSize)
	h.Write(0, parity.FromBytes(newData), func(err error) { werr = err })
	cl.Eng.Run()
	if werr != nil {
		t.Fatalf("retried write failed: %v", werr)
	}
	st := h.Stats()
	if st.Timeouts == 0 || st.Retries == 0 {
		t.Fatalf("stats = %+v, want timeout+retry", st)
	}
	if len(h.FailedMembers()) != 1 || h.FailedMembers()[0] != m {
		t.Fatalf("failed members = %v, want [%d]", h.FailedMembers(), m)
	}
	// The write took effect (reconstructable through parity).
	got := mustRead(t, cl, h, 0, chunkSize)
	if !bytes.Equal(got, newData) {
		t.Fatal("post-retry content mismatch")
	}
}

func TestReadTimeoutDegradesAndRetries(t *testing.T) {
	cl, h := testCluster(t, 5, raid.Raid5)
	data := randBytes(23, 16<<10)
	mustWrite(t, cl, h, 0, data)
	m := h.Geometry().DataDrive(0, 0)
	cl.FailTarget(m) // host not informed

	got := mustRead(t, cl, h, 0, int64(len(data)))
	if !bytes.Equal(got, data) {
		t.Fatal("read after transparent failure mismatch")
	}
	if h.Stats().Timeouts == 0 {
		t.Fatalf("stats = %+v, want a timeout", h.Stats())
	}
}

func TestLateParityCommandStillReduces(t *testing.T) {
	cl, h := testCluster(t, 5, raid.Raid5)
	seed := randBytes(24, 4*chunkSize)
	mustWrite(t, cl, h, 0, seed)
	// Delay host→P delivery so Peer contributions beat the Parity command.
	p := h.Geometry().PDrive(0)
	cl.Fabric.Connection(core.HostID, core.NodeID(p)).InjectDelay(5 * sim.Millisecond)
	data := randBytes(25, 8<<10)
	mustWrite(t, cl, h, 0, data)
	cl.Fabric.Connection(core.HostID, core.NodeID(p)).InjectDelay(0)
	verifyStripeParity(t, cl, h, 0)
}

// --- RAID-6 -----------------------------------------------------------------

func TestRaid6WriteReadAndParity(t *testing.T) {
	cl, h := testCluster(t, 6, raid.Raid6) // k=4
	data := randBytes(26, 24<<10)
	mustWrite(t, cl, h, 8<<10, data)
	got := mustRead(t, cl, h, 8<<10, int64(len(data)))
	if !bytes.Equal(got, data) {
		t.Fatal("round-trip mismatch")
	}
	verifyStripeParity(t, cl, h, 0)
}

func TestRaid6FullStripeParity(t *testing.T) {
	cl, h := testCluster(t, 6, raid.Raid6)
	data := randBytes(27, 4*chunkSize)
	mustWrite(t, cl, h, 0, data)
	verifyStripeParity(t, cl, h, 0)
}

func TestRaid6RCWParity(t *testing.T) {
	cl, h := testCluster(t, 6, raid.Raid6) // k=4; 2 chunks ⇒ tie ⇒ RCW
	data := randBytes(28, 2*chunkSize)
	mustWrite(t, cl, h, 0, data)
	if h.Stats().RCWWrites != 1 {
		t.Fatalf("stats = %+v", h.Stats())
	}
	verifyStripeParity(t, cl, h, 0)
}

func TestRaid6SingleFailureDegradedRead(t *testing.T) {
	cl, h := testCluster(t, 6, raid.Raid6)
	data := randBytes(29, 16<<10)
	mustWrite(t, cl, h, 0, data)
	failMember(cl, h, h.Geometry().DataDrive(0, 0))
	got := mustRead(t, cl, h, 0, int64(len(data)))
	if !bytes.Equal(got, data) {
		t.Fatal("RAID-6 single-failure degraded read mismatch")
	}
}

// A full-stripe read over two failed data chunks gathers each survivor once:
// one host-side decode, the user's bytes inbound and little else.
func TestRaid6DualDataFailureRead(t *testing.T) {
	cl, h := testCluster(t, 6, raid.Raid6)
	data := randBytes(30, 4*chunkSize) // full stripe
	mustWrite(t, cl, h, 0, data)
	failMember(cl, h, h.Geometry().DataDrive(0, 0))
	failMember(cl, h, h.Geometry().DataDrive(0, 2))
	cl.ResetTraffic()
	got := mustRead(t, cl, h, 0, int64(len(data)))
	if !bytes.Equal(got, data) {
		t.Fatal("RAID-6 dual-data-failure read mismatch")
	}
	if n := h.Stats().HostFallbackReads; n != 1 {
		t.Fatalf("host fallback reads = %d, want one gather for the stripe", n)
	}
	_, in := cl.TotalHostBytes()
	if ratio := float64(in) / float64(len(data)); ratio > 1.05 {
		t.Fatalf("host inbound = %.2f× user bytes, want ≤ 1.05×", ratio)
	}
}

// rebuildStripe0 brings failed member m back: its target recovers and stripe
// 0 is rebuilt onto it in place.
func rebuildStripe0(t *testing.T, cl *cluster.Cluster, h *core.HostController, m int) {
	t.Helper()
	cl.RecoverTarget(m)
	plan, err := h.PlanRebuild(m, 1, func() (core.NodeID, bool) { return h.MemberNode(m), true })
	if err != nil {
		t.Fatalf("plan rebuild of member %d: %v", m, err)
	}
	rerr := errors.New("pending")
	plan.Do(h, 0, func(err error) { rerr = err })
	cl.Eng.Run()
	plan.Finish(h, rerr)
	if rerr != nil {
		t.Fatalf("rebuild of member %d: %v", m, rerr)
	}
}

// driveBytesRead sums the bytes every drive has served to reads.
func driveBytesRead(cl *cluster.Cluster) int64 {
	var n int64
	for _, d := range cl.Drives {
		n += d.Stats().ReadBytes
	}
	return n
}

// RAID-6 with two erasures in a stripe still takes every write: the fallback
// writer solves the lost chunks' old content through whatever parity is left.
func TestRaid6DoubleDegradedWrites(t *testing.T) {
	for _, tc := range []struct {
		name   string
		failed func(g raid.Geometry) []int // members the host knows are failed
		silent func(g raid.Geometry) []int // members that crashed unannounced
		off, n int64
		full   bool // a full-stripe write: host-side parity, nothing read
	}{
		{"4k into a failed chunk, second data chunk failed",
			func(g raid.Geometry) []int { return []int{g.DataDrive(0, 0), g.DataDrive(0, 2)} }, nil,
			1000, 4 << 10, false},
		{"straddling a healthy and a failed chunk, P failed",
			func(g raid.Geometry) []int { return []int{g.DataDrive(0, 1), g.PDrive(0)} }, nil,
			chunkSize - 3000, 9000, false},
		{"timeout retry onto a doubly degraded stripe",
			func(g raid.Geometry) []int { return []int{g.DataDrive(0, 0)} },
			func(g raid.Geometry) []int { return []int{g.DataDrive(0, 2)} },
			2*chunkSize + 500, 4 << 10, false},
		{"full stripe over two failed data chunks",
			func(g raid.Geometry) []int { return []int{g.DataDrive(0, 1), g.DataDrive(0, 3)} }, nil,
			0, 4 * chunkSize, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, h := testCluster(t, 6, raid.Raid6)
			want := randBytes(40, 4*chunkSize)
			mustWrite(t, cl, h, 0, want)
			down := tc.failed(h.Geometry())
			for _, m := range down {
				failMember(cl, h, m)
			}
			if tc.silent != nil {
				for _, m := range tc.silent(h.Geometry()) {
					cl.FailTarget(m)
					down = append(down, m)
				}
			}
			data := randBytes(41, int(tc.n))
			copy(want[tc.off:], data)
			before, readBefore := h.Stats(), driveBytesRead(cl)
			mustWrite(t, cl, h, tc.off, data)
			if tc.silent != nil && h.Stats().Retries == 0 {
				t.Fatalf("stats = %+v, want a timeout-driven retry", h.Stats())
			}
			if st := h.Stats(); tc.full && (st.FullStripeWrites != before.FullStripeWrites+1 ||
				st.HostFallbackWrites != before.HostFallbackWrites || driveBytesRead(cl) != readBefore) {
				t.Fatalf("full-stripe write inside the parity budget: full=+%d fallback=+%d drive bytes read=%d; want +1, +0, 0",
					st.FullStripeWrites-before.FullStripeWrites, st.HostFallbackWrites-before.HostFallbackWrites,
					driveBytesRead(cl)-readBefore)
			}
			if !bytes.Equal(mustRead(t, cl, h, 0, int64(len(want))), want) {
				t.Fatal("stripe read back wrong while doubly degraded")
			}
			for _, m := range down {
				rebuildStripe0(t, cl, h, m)
			}
			verifyStripeParity(t, cl, h, 0)
			if !bytes.Equal(mustRead(t, cl, h, 0, int64(len(want))), want) {
				t.Fatal("stripe read back wrong after the members returned")
			}
		})
	}
}

// Running out of parity budget through member failures alone is a plain
// double fault: not a media error, and no bytes are recorded lost — whether
// the third failure was known up front or a gather reader vanished.
func TestGatherPastBudgetWithoutMediaIsPlainDoubleFault(t *testing.T) {
	for _, silent := range []bool{false, true} {
		cl, h := testCluster(t, 6, raid.Raid6)
		mustWrite(t, cl, h, 0, randBytes(42, 4*chunkSize))
		g := h.Geometry()
		failMember(cl, h, g.DataDrive(0, 0))
		failMember(cl, h, g.DataDrive(0, 1))
		if silent {
			cl.FailTarget(g.DataDrive(0, 3))
		} else {
			failMember(cl, h, g.QDrive(0))
		}
		rerr := errors.New("pending")
		h.Read(0, 2*chunkSize, func(_ parity.Buffer, err error) { rerr = err })
		cl.Eng.Run()
		if !errors.Is(rerr, blockdev.ErrDoubleFault) || errors.Is(rerr, blockdev.ErrMediaError) {
			t.Fatalf("silent=%v: read past the parity budget: %v, want ErrDoubleFault and not ErrMediaError", silent, rerr)
		}
		if lost := h.LostRegions(); len(lost) != 0 || h.LostRegionsEver() != 0 {
			t.Fatalf("silent=%v: member failures recorded lost regions: %v", silent, lost)
		}
	}
}

// A failed data chunk whose P is failed too is still reconstructed on a peer
// — the Q-scaled reduction — not gathered to the host: only the user's bytes
// come in. A participant with unreadable sectors sends the read to the host
// gather as ever, which here is past the parity budget and says so.
func TestRaid6DataPlusPFailureRead(t *testing.T) {
	for _, tc := range []struct {
		name   string
		off, n int64
	}{
		{"the failed chunk", chunkSize, chunkSize},
		{"the failed chunk and riders either side", chunkSize / 2, 2 * chunkSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, h := testCluster(t, 6, raid.Raid6)
			data := randBytes(31, 4*chunkSize)
			mustWrite(t, cl, h, 0, data)
			failMember(cl, h, h.Geometry().DataDrive(0, 1))
			failMember(cl, h, h.Geometry().PDrive(0))
			cl.ResetTraffic()
			got := mustRead(t, cl, h, tc.off, tc.n)
			if !bytes.Equal(got, data[tc.off:tc.off+tc.n]) {
				t.Fatal("RAID-6 data+P failure read mismatch (Q recovery)")
			}
			if st := h.Stats(); st.HostFallbackReads != 0 || st.DegradedReads != 1 {
				t.Fatalf("host fallback reads = %d, degraded reads = %d; want the peer reduction", st.HostFallbackReads, st.DegradedReads)
			}
			_, in := cl.TotalHostBytes()
			if ratio := float64(in) / float64(tc.n); ratio > 1.05 {
				t.Fatalf("host inbound = %.2f× user bytes, want ≤ 1.05×", ratio)
			}

			cl.Drives[h.Geometry().DataDrive(0, 2)].InjectMediaError(h.Geometry().DriveOffset(0)+chunkSize-4096, 4096)
			rerr := errors.New("pending")
			h.Read(tc.off, tc.n, func(_ parity.Buffer, err error) { rerr = err })
			cl.Eng.Run()
			if !errors.Is(rerr, blockdev.ErrMediaError) || h.Stats().MediaErrors == 0 {
				t.Fatalf("read over a third erasure: %v, want ErrMediaError from the host gather", rerr)
			}
		})
	}
}

func TestRaid6DegradedWriteWithQOnly(t *testing.T) {
	cl, h := testCluster(t, 6, raid.Raid6)
	seed := randBytes(32, 4*chunkSize)
	mustWrite(t, cl, h, 0, seed)
	// Fail P: writes should keep maintaining Q.
	failMember(cl, h, h.Geometry().PDrive(0))
	newData := randBytes(33, chunkSize)
	mustWrite(t, cl, h, 0, newData)
	// Now also fail the member we just wrote; content must reconstruct
	// through Q.
	failMember(cl, h, h.Geometry().DataDrive(0, 0))
	got := mustRead(t, cl, h, 0, chunkSize)
	if !bytes.Equal(got, newData) {
		t.Fatal("Q-only degraded write not reconstructable")
	}
}

// --- Rebuild ----------------------------------------------------------------

func TestReconstructStripeChunkDataPQ(t *testing.T) {
	cl, h := testCluster(t, 6, raid.Raid6)
	data := randBytes(34, 4*chunkSize)
	mustWrite(t, cl, h, 0, data)

	g := h.Geometry()
	base := g.DriveOffset(0)
	for _, m := range []int{g.DataDrive(0, 1), g.PDrive(0), g.QDrive(0)} {
		want := cl.Drives[m].PeekSync(base, chunkSize)
		failMember(cl, h, m)
		var got parity.Buffer
		var rerr error = errors.New("pending")
		h.ReconstructStripeChunk(0, m, func(b parity.Buffer, err error) { got, rerr = b, err })
		cl.Eng.Run()
		if rerr != nil {
			t.Fatalf("reconstruct member %d: %v", m, rerr)
		}
		if !bytes.Equal(got.Data(), want) {
			t.Fatalf("reconstructed chunk for member %d mismatches", m)
		}
		cl.RecoverTarget(m)
		h.SetFailed(m, false)
	}
}

func TestReconstructNotFailedErrors(t *testing.T) {
	cl, h := testCluster(t, 5, raid.Raid5)
	var rerr error
	h.ReconstructStripeChunk(0, 0, func(_ parity.Buffer, err error) { rerr = err })
	cl.Eng.Run()
	if rerr == nil {
		t.Fatal("reconstructing a healthy member should error")
	}
}

// --- Configuration variants ---------------------------------------------------

func TestSerialPipelineStillCorrect(t *testing.T) {
	spec := cluster.DefaultSpec()
	spec.Targets = 5
	spec.Pipelined = false
	drv := ssd.DefaultSpec()
	drv.Capacity = 64 << 20
	spec.Drive = &drv
	cl := cluster.New(spec)
	h := cl.NewDRAID(core.Config{
		Geometry: raid.Geometry{Level: raid.Raid5, Width: 5, ChunkSize: chunkSize},
	})
	data := randBytes(35, 16<<10)
	mustWrite(t, cl, h, 0, data)
	if !bytes.Equal(mustRead(t, cl, h, 0, int64(len(data))), data) {
		t.Fatal("serial pipeline round-trip mismatch")
	}
	verifyStripeParity(t, cl, h, 0)
}

func TestElidedModeFlowsSizes(t *testing.T) {
	spec := cluster.DefaultSpec()
	spec.Targets = 5
	spec.Elide = true
	drv := ssd.DefaultSpec()
	drv.Capacity = 64 << 20
	drv.StoreData = false
	spec.Drive = &drv
	cl := cluster.New(spec)
	h := cl.NewDRAID(core.Config{Geometry: raid.Geometry{Level: raid.Raid5, Width: 5, ChunkSize: chunkSize}})
	var werr error = errors.New("pending")
	h.Write(0, parity.Sized(16<<10), func(err error) { werr = err })
	cl.Eng.Run()
	if werr != nil {
		t.Fatalf("elided write: %v", werr)
	}
	var got parity.Buffer
	h.Read(0, 16<<10, func(b parity.Buffer, err error) {
		if err != nil {
			t.Errorf("elided read: %v", err)
		}
		got = b
	})
	cl.Eng.Run()
	if !got.Elided() || got.Len() != 16<<10 {
		t.Fatalf("elided read returned %d bytes (elided=%v)", got.Len(), got.Elided())
	}
}

// --- Traffic accounting (the paper's headline property) ----------------------

// dRAID partial-stripe writes must cost ~1× user bytes of host outbound
// traffic (Table 1): the host sends only the new data plus small capsules.
func TestRMWHostTrafficIsOnex(t *testing.T) {
	cl, h := testCluster(t, 8, raid.Raid5)
	warm := randBytes(37, 128<<10)
	mustWrite(t, cl, h, 0, warm)
	cl.ResetTraffic()

	const userBytes = 128 << 10
	data := randBytes(38, userBytes)
	mustWrite(t, cl, h, 4*chunkSize, data) // chunks 4,5 of stripe 0 (RMW)
	out, in := cl.TotalHostBytes()
	if ratio := float64(out) / userBytes; ratio > 1.1 {
		t.Fatalf("host outbound = %.2f× user bytes, want ~1×", ratio)
	}
	// Host inbound: only completion capsules, no data.
	if in > 16<<10 {
		t.Fatalf("host inbound = %d bytes, want only capsules", in)
	}
}

// Degraded reads must cost ~1× on host inbound: reconstruction happens
// peer-to-peer, and only the requested bytes reach the host.
func TestDegradedReadHostTrafficIsOnex(t *testing.T) {
	cl, h := testCluster(t, 8, raid.Raid5)
	data := randBytes(39, 128<<10)
	mustWrite(t, cl, h, 0, data)
	m := h.Geometry().DataDrive(0, 0)
	failMember(cl, h, m)
	cl.ResetTraffic()

	const n = 32 << 10
	got := mustRead(t, cl, h, 0, n)
	if !bytes.Equal(got, data[:n]) {
		t.Fatal("degraded read mismatch")
	}
	_, in := cl.TotalHostBytes()
	if ratio := float64(in) / n; ratio > 1.2 {
		t.Fatalf("host inbound = %.2f× requested bytes, want ~1×", ratio)
	}
}

func TestFabricConnectionLookup(t *testing.T) {
	cl, _ := testCluster(t, 4, raid.Raid5)
	if cl.Fabric.Connection(core.HostID, 2) == nil {
		t.Fatal("host-target connection missing")
	}
	if cl.Fabric.Connection(1, 3) == nil || cl.Fabric.Connection(3, 1) == nil {
		t.Fatal("mesh connection missing")
	}
}

func TestBarrierReduceAblationCorrect(t *testing.T) {
	spec := cluster.DefaultSpec()
	spec.Targets = 5
	spec.BarrierReduce = true
	drv := ssd.DefaultSpec()
	drv.Capacity = 64 << 20
	spec.Drive = &drv
	cl := cluster.New(spec)
	h := cl.NewDRAID(core.Config{
		Geometry: raid.Geometry{Level: raid.Raid5, Width: 5, ChunkSize: chunkSize},
	})
	seed := randBytes(40, 4*chunkSize)
	mustWrite(t, cl, h, 0, seed)
	// Delay the Parity command so contributions arrive first and must be
	// buffered by the barrier.
	p := h.Geometry().PDrive(0)
	cl.Fabric.Connection(core.HostID, core.NodeID(p)).InjectDelay(2 * sim.Millisecond)
	data := randBytes(41, 8<<10)
	mustWrite(t, cl, h, 0, data)
	cl.Fabric.Connection(core.HostID, core.NodeID(p)).InjectDelay(0)
	verifyStripeParity(t, cl, h, 0)
	if !bytes.Equal(mustRead(t, cl, h, 0, 8<<10), data) {
		t.Fatal("barrier-mode round-trip mismatch")
	}
}

// The §5.2 design point: with the non-blocking reduce, a delayed Parity
// command costs no more than the delay itself; with the barrier ablation,
// peer reduction work also queues behind it. Both must stay correct; the
// non-blocking path must not be slower.
func TestNonBlockingReduceNoSlowerThanBarrier(t *testing.T) {
	elapsed := func(barrier bool) sim.Time {
		spec := cluster.DefaultSpec()
		spec.Targets = 8
		spec.BarrierReduce = barrier
		drv := ssd.DefaultSpec()
		drv.Capacity = 64 << 20
		spec.Drive = &drv
		cl := cluster.New(spec)
		h := cl.NewDRAID(core.Config{
			Geometry: raid.Geometry{Level: raid.Raid5, Width: 8, ChunkSize: chunkSize},
		})
		// Delay every host→parity-capable link slightly so Parity commands
		// trail the data-path contributions.
		for i := 0; i < 8; i++ {
			cl.Fabric.Connection(core.HostID, core.NodeID(i)).InjectDelay(50 * sim.Microsecond)
		}
		pending := 0
		for i := 0; i < 20; i++ {
			pending++
			off := int64(i) * 7 * chunkSize
			h.Write(off, parity.FromBytes(randBytes(int64(i), 32<<10)), func(err error) {
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
	nb, barrier := elapsed(false), elapsed(true)
	if nb > barrier {
		t.Fatalf("non-blocking reduce (%v) slower than barrier (%v)", nb, barrier)
	}
}

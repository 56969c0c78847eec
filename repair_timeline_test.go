package draid_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"draid"
)

var updateRepairGolden = flag.Bool("update-repair-golden", false,
	"rewrite testdata/golden/repair_timeline.txt from this tree")

// timelineLog accumulates one line per repair operation: the virtual time it
// finished at, the host's relocation counter, the host NIC bytes and a hash
// of every drive's contents.
type timelineLog struct {
	t *testing.T
	b strings.Builder
}

func (l *timelineLog) record(step string, arr *draid.Array, extra string) {
	l.t.Helper()
	h := sha256.New()
	for _, d := range arr.Cluster().Drives {
		h.Write(d.PeekSync(0, d.Capacity()))
	}
	out, in := arr.HostTraffic()
	st := arr.Status().Counters
	fmt.Fprintf(&l.b, "%-28s end=%dns rebuilt=%d recon=%d resyncs=%d hostOut=%d hostIn=%d drives=%x %s\n",
		step, int64(arr.Now()), st.RebuiltStripes, st.Reconstructions, st.Resyncs, out, in, h.Sum(nil)[:8], extra)
}

func (l *timelineLog) must(err error) {
	l.t.Helper()
	if err != nil {
		l.t.Fatal(err)
	}
}

// doneAt returns when the supervisor logged its latest event of the kind —
// the repair's own finish time, which the array clock (advanced further by
// whatever foreground timer Run drained last) does not show.
func (l *timelineLog) doneAt(arr *draid.Array, kind string) string {
	at := int64(-1)
	for _, e := range arr.Status().Events {
		if e.Kind == kind {
			at = int64(e.Time)
		}
	}
	return fmt.Sprintf("%s@%dns", kind, at)
}

func (l *timelineLog) traceHash(arr *draid.Array) string {
	var buf bytes.Buffer
	l.must(arr.Trace().WriteChrome(&buf))
	return fmt.Sprintf("trace=%x", sha256.Sum256(buf.Bytes()))[:22]
}

// TestRepairTimelineGolden pins the timing, traffic and on-drive outcome of
// every repair loop — rebuild (fixed in place, supervised onto a spare,
// declustered), rebalance fill and drain, scrub, failover resync — on fixed
// seeds. The golden was captured from the tree before the loops were folded
// into one paced walker; the walker must reproduce it byte for byte.
func TestRepairTimelineGolden(t *testing.T) {
	l := &timelineLog{t: t}
	fixed := draid.Config{Drives: 5, ChunkSize: 64 << 10, DriveCapacity: 1 << 20, Seed: 11}
	decl := draid.Config{Drives: 4, ClusterDrives: 8, Declustered: true, ChunkSize: 64 << 10, DriveCapacity: 2 << 20, Seed: 13}
	open := func(cfg draid.Config, seed int64) *draid.Array {
		arr, err := draid.New(cfg)
		l.must(err)
		l.must(arr.WriteSync(0, randBytes(seed, int(arr.Size()))))
		return arr
	}

	// Fixed layout, in-place rebuild through Array.RebuildDrive: a bounded
	// prefix first, then the whole member.
	arr := open(fixed, 1)
	arr.FailDrive(2)
	l.must(arr.RebuildDrive(2, 4))
	l.record("fixed-rebuild-4-stripes", arr, "")
	arr.FailDrive(2)
	l.must(arr.RebuildDrive(2, 0))
	l.record("fixed-rebuild-full", arr, fmt.Sprintf("failed=%v", arr.Status().Failed))

	// Supervised rebuild onto a hot spare, paced at 400 MB/s, traced.
	cfg := fixed
	cfg.Spares, cfg.RebuildRateMBps, cfg.Observe = 1, 400, draid.Observe{Trace: true}
	arr = open(cfg, 2)
	arr.FailDrive(1)
	arr.Run()
	rs := arr.Status().Rebuild
	l.record("supervised-spare-400MBps", arr, fmt.Sprintf("failed=%v done=%d/%d %s %s",
		arr.Status().Failed, rs.Done, rs.Total, l.doneAt(arr, "rebuild-done"), l.traceHash(arr)))

	// Declustered many-to-many rebuild through Array.RebuildDrive (no
	// supervisor): a bounded prefix of another drive, then a full drive.
	arr = open(decl, 3)
	arr.FailDrive(5)
	l.must(arr.RebuildDrive(5, 3))
	l.record("declustered-rebuild-3-slots", arr, "")
	arr.RecoverDrive(5)
	arr.FailDrive(3)
	l.must(arr.RebuildDrive(3, 0))
	l.record("declustered-rebuild-full", arr, fmt.Sprintf("failed=%v", arr.Status().Failed))

	// Supervised declustered: a failure heals itself into spare slots, then
	// the cluster grows by a drive and shrinks by another, all paced.
	cfg = decl
	cfg.Spares, cfg.RebuildRateMBps, cfg.Observe = 2, 300, draid.Observe{Trace: true}
	arr = open(cfg, 4)
	arr.FailDrive(6)
	arr.Run()
	rs = arr.Status().Rebuild
	l.record("supervised-declustered", arr, fmt.Sprintf("done=%d/%d %s", rs.Done, rs.Total, l.doneAt(arr, "rebuild-done")))
	idx, err := arr.AddDrive()
	l.must(err)
	l.must(arr.WaitRebalance())
	rb := arr.Status().Rebalance
	l.record("add-drive-fill", arr, fmt.Sprintf("drive=%d done=%d/%d skipped=%d %s",
		idx, rb.Done, rb.Total, rb.Skipped, l.doneAt(arr, "rebalance-done")))
	l.must(arr.RemoveDrive(0))
	l.must(arr.WaitRebalance())
	rb = arr.Status().Rebalance
	l.record("remove-drive-drain", arr, fmt.Sprintf("done=%d/%d %s %s",
		rb.Done, rb.Total, l.doneAt(arr, "rebalance-done"), l.traceHash(arr)))

	// Throttled foreground scrub over planted damage.
	cfg = fixed
	cfg.Integrity, cfg.ScrubRateMBps = true, 800
	arr = open(cfg, 5)
	l.must(arr.Inject().MediaError(100<<10, 8<<10))
	l.must(arr.Inject().BitRot(900<<10, 4<<10))
	ss, err := arr.ScrubNow()
	l.must(err)
	l.record("scrub-now-800MBps", arr, fmt.Sprintf("scrubbed=%d media=%d parity=%d errors=%d",
		ss.ScrubbedStripes, ss.MediaRepairs, ss.ParityRepairs, ss.Errors))

	// Host crash mid-write, replacement resyncs the dirty stripes.
	arr = open(fixed, 6)
	stripe := 4 * 64 << 10
	for i := 0; i < 3; i++ {
		arr.Write(int64(2*i*stripe), randBytes(int64(60+i), stripe), func(error) {})
	}
	arr.RunFor(20 * time.Microsecond)
	n, err := arr.FailoverHost()
	l.must(err)
	l.record("failover-resync", arr, fmt.Sprintf("dirty=%d", n))

	// Two pool volumes degraded by one fault rebuild concurrently out of one
	// shared 50 MB/s budget.
	p := newTestPool(t, draid.PoolConfig{Spares: 2, RebuildRateMBps: 50})
	var vols []*draid.Array
	for i, name := range []string{"a", "b"} {
		v, err := p.OpenVolume(draid.VolumeConfig{Name: name, ChunkSize: 64 << 10, Extent: 256 << 10})
		l.must(err)
		l.must(v.WriteSync(0, randBytes(int64(70+i), int(v.Size()))))
		vols = append(vols, v)
	}
	p.FailDrive(1)
	p.Run()
	for i, v := range vols {
		l.record(fmt.Sprintf("pool-shared-50MBps-vol%d", i), v,
			fmt.Sprintf("failed=%v %s", v.Status().Failed, l.doneAt(v, "rebuild-done")))
	}

	const path = "testdata/golden/repair_timeline.txt"
	if *updateRepairGolden {
		l.must(os.WriteFile(path, []byte(l.b.String()), 0o644))
		return
	}
	want, err := os.ReadFile(path)
	l.must(err)
	if got := l.b.String(); got != string(want) {
		t.Errorf("repair timeline drifted from the pre-walker golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

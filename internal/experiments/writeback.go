package experiments

import (
	"fmt"

	"draid"
	"draid/internal/parity"
	"draid/internal/sim"
)

// writeback is the write-back staging experiment: a sequential small-write
// stream (the RMW worst case fig10 sweeps) runs with and without the host
// stage on an 8-wide RAID-5 array with 64 KB chunks, and each point reports
// the DRIVE-BYTE AMPLIFICATION — total bytes the member drives wrote divided
// by user bytes written, measured after a final Flush so every staged byte is
// on the drives. Unstaged sub-chunk writes pay the RMW penalty (data +
// parity, ~2x); staged writes coalesce into full-stripe destages and pay
// (k+parity)/k = 8/7 ~ 1.14x. The full-stripe point (448 KB) is the control:
// both paths write full stripes and meet at ~1.14x. Extra carries the
// amplification — a byte count, so it reads the same on either backend; BW
// is user goodput over the run.
func writeback(o Options) (Figure, error) {
	sizesKB := []int64{16, 64, 448}
	if o.Quick {
		sizesKB = []int64{64}
	}
	series, err := runGrid(o, []string{"unstaged", "staged"}, len(sizesKB), func(si, pi int) (Point, error) {
		return writebackPoint(o, sizesKB[pi]<<10, si == 1)
	})
	return Figure{
		ID:         "writeback",
		Title:      "Write-back staging: small-write drive-byte amplification (8-wide RAID-5, 64 KB chunks, sequential writes + flush)",
		XLabel:     "write size",
		ExtraLabel: "amp x",
		Series:     series,
		Notes: []string{
			"Extra column is drive-byte amplification (drive write bytes / user bytes, post-flush)",
			"unstaged sub-chunk writes pay RMW (~2x); staged destage full stripes ((k+1)/k ~ 1.14x)",
		},
	}, err
}

// writebackPoint streams 48 stripes of sequential bytes in `size`-sized
// writes at queue depth 8 onto a fresh array, flushes the stage, and measures
// amplification from the member drives' write counters.
func writebackPoint(o Options, size int64, staged bool) (Point, error) {
	arr, err := draid.New(draid.Config{
		Backend: o.Backend, Realtime: o.Realtime,
		Drives: 8, ChunkSize: 64 << 10, Seed: o.Seed,
		SizeOnly:      o.Realtime.Dir == "", // file media need real bytes
		DriveCapacity: 1 << 30,
		WriteBack:     staged,
	})
	if err != nil {
		return Point{}, err
	}
	defer arr.Close()
	const qd, stripes = 8, 48
	total := stripes * arr.Controller().Geometry().StripeDataSize()
	dev := arr.Controller()
	start := arr.Now()

	var next int64
	var werr error
	inflight := 0
	var issue func()
	issue = func() {
		for inflight < qd && next < total {
			off := next
			next += size
			n := size
			if off+n > total {
				n = total - off
			}
			inflight++
			dev.Write(off, parity.Sized(int(n)), func(err error) {
				if err != nil && werr == nil {
					werr = fmt.Errorf("writeback: write at %d: %w", off, err)
				}
				inflight--
				issue()
			})
		}
	}
	arr.Cluster().Rt.Call(issue)
	arr.Run()
	if werr != nil {
		return Point{}, werr
	}
	if err := arr.Flush(); err != nil {
		return Point{}, fmt.Errorf("writeback: flush: %w", err)
	}
	elapsed := arr.Now() - start

	var driveBytes int64
	for _, d := range arr.Cluster().Drives {
		driveBytes += d.Stats().WriteBytes
	}
	pt := Point{X: float64(size >> 10), Label: fmt.Sprintf("%dKB", size>>10)}
	if st := arr.Status().Counters; st.UserBytesWritten > 0 {
		pt.Extra = float64(driveBytes) / float64(st.UserBytesWritten)
	}
	if elapsed > 0 {
		pt.BW = float64(total) / 1e6 / sim.Seconds(sim.Duration(elapsed))
	}
	return pt, arr.Cluster().LeakCheck()
}

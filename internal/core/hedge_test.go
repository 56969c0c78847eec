package core_test

import (
	"bytes"
	"testing"

	"draid/internal/backend"
	"draid/internal/cluster"
	"draid/internal/core"
	"draid/internal/raid"
	"draid/internal/sim"
	"draid/internal/ssd"
)

// A hedge is a decode with the straggler as the erasure: it reuses what the
// read already holds, fetches the rest, and goes through whatever parity the
// stripe has left — P, or Q on RAID-6 when P is gone.
func TestHedgeSolvesStragglerThroughRemainingParity(t *testing.T) {
	for _, tc := range []struct {
		name    string
		level   raid.Level
		width   int
		failP   bool
		off, n  int64
		fetches int64 // drive reads the hedge adds
	}{
		{"RAID-5 full stripe: one parity read", raid.Raid5, 5, false, 0, 4 * chunkSize, 1},
		{"RAID-5 inside the slow chunk: siblings fetched too", raid.Raid5, 5, false, chunkSize + 4096, 8192, 4},
		{"RAID-6, P failed: through Q", raid.Raid6, 6, true, 0, 4 * chunkSize, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := cluster.DefaultSpec()
			spec.Targets = tc.width
			drv := ssd.DefaultSpec()
			drv.Capacity = 64 << 20
			spec.Drive = &drv
			cl := cluster.New(spec)
			h := cl.NewDRAID(core.Config{
				Geometry: raid.Geometry{Level: tc.level, Width: tc.width, ChunkSize: chunkSize},
				Deadline: 50 * sim.Millisecond,
				Hedge:    core.HedgeConfig{Policy: core.HedgeFixedDelay, Delay: 300 * sim.Microsecond},
			})
			data := randBytes(60, 4*chunkSize)
			mustWrite(t, cl, h, 0, data)
			if tc.failP {
				failMember(cl, h, h.Geometry().PDrive(0))
			}
			slow := h.Geometry().DataDrive(0, 1)
			cl.Drives[slow].SetSlowProfile(backend.SlowProfile{Kind: backend.SlowConstant, Factor: 100}, 1)
			reads := driveReadOps(cl)
			got := mustRead(t, cl, h, tc.off, tc.n)
			if !bytes.Equal(got, data[tc.off:tc.off+tc.n]) {
				t.Fatal("hedged read returned wrong bytes")
			}
			st := h.Stats()
			if st.HedgedReads != 1 || st.HedgeWins != 1 || st.Timeouts != 0 {
				t.Fatalf("hedged=%d wins=%d timeouts=%d, want one winning hedge", st.HedgedReads, st.HedgeWins, st.Timeouts)
			}
			extents := (tc.off+tc.n-1)/chunkSize - tc.off/chunkSize + 1
			if n := driveReadOps(cl) - reads - extents; n != tc.fetches {
				t.Fatalf("hedge added %d drive reads, want %d", n, tc.fetches)
			}
		})
	}
}

func driveReadOps(cl *cluster.Cluster) int64 {
	var n int64
	for _, d := range cl.Drives {
		n += d.Stats().ReadOps
	}
	return n
}

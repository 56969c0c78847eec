package experiments

import (
	"testing"

	"draid/internal/raid"
)

// TestCalibrationSnapshot logs the key operating points the paper reports,
// so calibration drift is visible in -v output. The assertions encode only
// the SHAPE requirements (who wins, roughly by how much); EXPERIMENTS.md
// records the absolute numbers.
func TestCalibrationSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs several simulated seconds")
	}
	o := Options{}.withDefaults()

	run := func(sys System, targets int, level raid.Level, failed []int, ratio float64, ioKB int64, qd int) (bw, lat float64) {
		s := Setup{System: sys, Targets: targets, Level: level, FailedMembers: failed}
		r, err := measure(s, o, ioKB<<10, ratio, qd)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-6s t=%2d %v fail=%v ratio=%.2f io=%5dKB qd=%3d → bw=%8.1f MB/s lat=%8.1f us",
			sys, targets, level, failed, ratio, ioKB, qd, r.BandwidthMBps(), r.AvgLatency())
		return r.BandwidthMBps(), r.AvgLatency()
	}

	// Fig 9 anchor: 128 KB normal reads, 6 targets — everyone ~NIC goodput.
	for _, sys := range AllSystems {
		bw, _ := run(sys, 6, raid.Raid5, nil, 1, 128, 32)
		if bw < 9000 {
			t.Errorf("%s 128KB read = %.0f MB/s, want ~11500 (NIC goodput)", sys, bw)
		}
	}

	// Fig 10 anchor: 128 KB RMW writes, 8 targets — dRAID ~1.7× SPDK,
	// Linux far behind.
	dBW, _ := run(DRAID, 8, raid.Raid5, nil, 0, 128, 12)
	sBW, _ := run(SPDK, 8, raid.Raid5, nil, 0, 128, 12)
	lBW, _ := run(Linux, 8, raid.Raid5, nil, 0, 128, 12)
	if dBW < 1.3*sBW {
		t.Errorf("dRAID/SPDK 128KB write = %.2f×, want ≥1.3 (paper 1.7×)", dBW/sBW)
	}
	if lBW > 0.8*sBW {
		t.Errorf("Linux (%.0f) should trail SPDK (%.0f) on writes", lBW, sBW)
	}

	// Fig 12 anchor: 18 targets, 128 KB writes — SPDK caps ~½ goodput,
	// dRAID approaches goodput.
	dBW18, _ := run(DRAID, 18, raid.Raid5, nil, 0, 128, 64)
	sBW18, _ := run(SPDK, 18, raid.Raid5, nil, 0, 128, 64)
	if sBW18 > 6500 {
		t.Errorf("SPDK 18-target write = %.0f MB/s, should cap near half goodput (~5750)", sBW18)
	}
	if dBW18 < 8500 {
		t.Errorf("dRAID 18-target write = %.0f MB/s, want near goodput (~10500)", dBW18)
	}

	// Fig 15 anchor: degraded 128 KB reads, 8 targets — dRAID ≈ 95% of
	// normal read; SPDK ≈ 57%; Linux collapses.
	dN, _ := run(DRAID, 8, raid.Raid5, nil, 1, 128, 32)
	dD, _ := run(DRAID, 8, raid.Raid5, []int{0}, 1, 128, 32)
	sD, _ := run(SPDK, 8, raid.Raid5, []int{0}, 1, 128, 32)
	lD, _ := run(Linux, 8, raid.Raid5, []int{0}, 1, 128, 32)
	if dD < 0.80*dN {
		t.Errorf("dRAID degraded read = %.0f%% of normal, want ≥80%% (paper 95%%)", 100*dD/dN)
	}
	if sD > 0.80*dD {
		t.Errorf("SPDK degraded (%.0f) should clearly trail dRAID (%.0f)", sD, dD)
	}
	if lD > 0.6*sD {
		t.Errorf("Linux degraded read (%.0f) should collapse well below SPDK (%.0f)", lD, sD)
	}
}

package core_test

import (
	"errors"
	"fmt"
	"testing"

	"draid/internal/backend"
	"draid/internal/core"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/sim"
)

// A duplicated completion must never stand in for a missing one. For every
// op shape and every ordered pair of its participants: duplicate the next
// completion of one while the op's capsule to the other is cut. The op can
// only end through its deadline — a write is then completed by the §5.4
// retry once the fabric has healed, a degraded read fails typed — and never
// in success with a participant unheard: afterwards the stripe reads back as
// the oracle's model and its parity is coherent.
func TestDuplicatedCompletionNeverStandsInForAMissingOne(t *testing.T) {
	const width = 5
	all := []int{0, 1, 2, 3, 4}
	for _, shape := range []struct {
		name   string
		failed int // data chunk failed up front, or -1
		write  bool
		off, n int64
		mode   func(core.Stats) int64
		// participants lists the members the op sends a capsule to.
		participants func(g raid.Geometry) []int
	}{
		{"full-stripe", -1, true, 0, 4 * chunkSize,
			func(s core.Stats) int64 { return s.FullStripeWrites },
			func(raid.Geometry) []int { return all }},
		{"RMW", -1, true, 1000, 4 << 10,
			func(s core.Stats) int64 { return s.RMWWrites },
			func(g raid.Geometry) []int { return []int{g.DataDrive(0, 0), g.PDrive(0)} }},
		{"RCW", -1, true, 0, 3 * chunkSize,
			func(s core.Stats) int64 { return s.RCWWrites },
			func(raid.Geometry) []int { return all }},
		{"degraded read", 1, false, 0, 4 * chunkSize,
			func(s core.Stats) int64 { return s.DegradedReads },
			func(g raid.Geometry) []int {
				return []int{g.PDrive(0), g.DataDrive(0, 0), g.DataDrive(0, 2), g.DataDrive(0, 3)}
			}},
	} {
		members := shape.participants(raid.Geometry{Level: raid.Raid5, Width: width, ChunkSize: chunkSize})
		for _, dup := range members {
			for _, cut := range members {
				if dup == cut {
					continue
				}
				t.Run(fmt.Sprintf("%s/dup-m%d/cut-m%d", shape.name, dup, cut), func(t *testing.T) {
					cl, h := testCluster(t, width, raid.Raid5)
					d := hostDevice(t, cl, func() tortureDevice { return h })
					d.Audit = func() error { return stripeParity(cl, h, 0) }
					o := newOracle(t, d, h.Geometry(), 4*chunkSize)
					if err := o.Write(0, randBytes(50, 4*chunkSize)); err != nil {
						t.Fatal(err)
					}
					if shape.failed >= 0 {
						failMember(cl, h, h.Geometry().DataDrive(0, shape.failed))
					}
					before := h.Stats()

					cl.Fabric.DuplicateNext(core.NodeID(dup), core.HostID)
					cl.Fabric.InjectPartition(core.HostID, core.NodeID(cut), backend.PartitionAToB)
					// Heal well after the capsule was lost and well before the
					// deadline, so the retry finds a whole fabric.
					cl.Eng.After(10*sim.Millisecond, func() {
						cl.Fabric.HealPartition(core.HostID, core.NodeID(cut), backend.PartitionAToB)
					})

					err := errors.New("pending")
					if shape.write {
						data := randBytes(51, int(shape.n))
						end := o.BeginWrite(shape.off, data)
						h.Write(shape.off, parity.FromBytes(data), func(e error) { err = e; end(e) })
					} else {
						h.Read(shape.off, shape.n, func(_ parity.Buffer, e error) { err = e })
					}
					cl.Eng.Run()

					st := h.Stats()
					if shape.mode(st) != shape.mode(before)+1 {
						t.Fatalf("op did not take the %s path", shape.name)
					}
					if st.Timeouts == before.Timeouts {
						t.Fatalf("op ended (err=%v) without its deadline although m%d never got its capsule", err, cut)
					}
					if shape.write && (err != nil || st.Retries == before.Retries) {
						t.Fatalf("write: err=%v, retries=%d; want the §5.4 retry to complete it", err, st.Retries-before.Retries)
					}
					if !shape.write && err == nil {
						t.Fatal("degraded read succeeded with a participant unheard")
					}
					o.Sweep()
				})
			}
		}
	}
}

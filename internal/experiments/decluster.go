package experiments

import (
	"fmt"

	"draid"
	"draid/internal/sim"
)

// decluster is the declustered-placement rebuild experiment: a width-4
// RAID-5 volume holding a constant 64 stripes of data lives on clusters of
// 6, 12, and 18 drives, once with the classic fixed layout (the volume
// welded to a contiguous 4-drive window) and once with seeded parity
// declustering spread over every drive. One drive fails and is rebuilt;
// each point reports the rebuild rate (MB of relocated chunk data per
// second) and the rebuild duration. Declustered rebuild is
// many-to-many — the failed drive holds only ~stripes*W/D chunks and the
// reconstruction fans out over all survivors — so its time shrinks as the
// cluster grows, while the fixed layout cannot use drives outside its
// window and stays flat.
func decluster(o Options) (Figure, error) {
	clusters := []int{6, 12, 18}
	if o.Quick {
		clusters = []int{6, 18}
	}
	series, err := runGrid(o, []string{"fixed", "declustered"}, len(clusters), func(si, pi int) (Point, error) {
		return declusterPoint(o, clusters[pi], si == 1)
	})
	return Figure{
		ID:     "decluster",
		Title:  "Declustered placement: rebuild rate vs cluster size (width-4 RAID-5, 64 stripes, one drive failed)",
		XLabel: "cluster drives",
		Series: series,
		Notes: []string{
			"BW is relocated chunk MB per second of rebuild; Lat is the rebuild duration in us",
			"declustered rebuild is many-to-many: time shrinks ~1/drives as the cluster grows",
			"fixed volumes are welded to their 4-drive window: extra drives cannot help",
		},
	}, err
}

// declusterPoint builds a D-drive cluster carrying one width-4 volume (fixed
// window or declustered over all D drives), fills it, fails one drive the
// volume occupies, rebuilds, and measures the rebuild from the member
// drives' write counters: every byte written during the rebuild is a
// relocated or reconstructed chunk.
func declusterPoint(o Options, drives int, declustered bool) (Point, error) {
	const width, stripes = 4, 64
	chunk := int64(64 << 10)
	extent := stripes * chunk // fixed: one chunk per member per stripe
	if declustered {
		// Rows pack spr = (D-1)/W stripes each; keep stripes constant so the
		// protected data volume is identical at every cluster size.
		spr := (drives - 1) / width
		extent = int64((stripes+spr-1)/spr) * chunk
	}
	p, err := draid.NewPool(draid.PoolConfig{
		Backend: o.Backend, Realtime: o.Realtime,
		Drives: drives, DriveCapacity: extent, Seed: o.Seed,
	})
	if err != nil {
		return Point{}, err
	}
	defer p.Close()
	arr, err := p.OpenVolume(draid.VolumeConfig{
		Name: "vol", Drives: width, ChunkSize: chunk, Declustered: declustered,
	})
	if err != nil {
		return Point{}, err
	}
	if err := arr.WriteSync(0, patternBytes(o.Seed, int(arr.Size()))); err != nil {
		return Point{}, fmt.Errorf("decluster: fill: %w", err)
	}

	driveWrites := func() int64 {
		var total int64
		for _, d := range arr.Cluster().Drives {
			total += d.Stats().WriteBytes
		}
		return total
	}
	const victim = 1 // inside the fixed window and always populated
	before := driveWrites()
	start := arr.Now()
	arr.FailDrive(victim)
	if err := arr.RebuildDrive(victim, 0); err != nil {
		return Point{}, fmt.Errorf("decluster: rebuild d=%d declustered=%v: %w", drives, declustered, err)
	}
	elapsed := sim.Duration(arr.Now() - start)
	moved := driveWrites() - before

	pt := Point{
		X:     float64(drives),
		Label: fmt.Sprintf("%d", drives),
		Lat:   float64(elapsed) / 1e3, // us
	}
	if secs := sim.Seconds(elapsed); secs > 0 {
		pt.BW = float64(moved) / 1e6 / secs
	}
	return pt, arr.Cluster().LeakCheck()
}

// patternBytes is a cheap deterministic fill (the rebuild moves bytes; their
// values only need to exist).
func patternBytes(seed int64, n int) []byte {
	out := make([]byte, n)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}

package cluster

import (
	"fmt"
	"os"
	"path/filepath"

	"draid/internal/backend"
	"draid/internal/backend/realtime"
	"draid/internal/core"
	"draid/internal/cpu"
)

// RealtimeSpec describes a real-time testbed: the same protocol stack as the
// simulation, scheduled on goroutine event loops against wall-clock timers.
type RealtimeSpec struct {
	// Targets is the number of member bdevs (= array width).
	Targets int
	// Spares adds hot-spare bdevs beyond Targets.
	Spares int
	// DriveCapacity is the per-drive byte capacity (default 256 MiB — sized
	// for tests; real media are files, see Dir).
	DriveCapacity int64
	// Seed feeds the per-node random sources.
	Seed int64
	// TCP routes capsules over loopback TCP sockets instead of in-process
	// channels.
	TCP bool
	// Dir stores each drive's bytes in a sparse file under this directory;
	// empty keeps them in memory. Either way the drive has the same fault
	// model and takes every injection. Ignored when SizeOnly.
	Dir string
	// SizeOnly elides payload bytes (benchmark mode).
	SizeOnly bool
	// Integrity enables per-chunk checksums on the servers.
	Integrity bool
	// Pipelined controls the §5.3 server-side pipeline.
	Pipelined bool
}

// NewRealtime assembles a real-time cluster: a Bed of node loops, a channel
// or TCP transport, and memory- or file-backed drives. The returned Cluster
// exposes only the backend-neutral surface (Rt, Fab, Drives, Servers,
// Spares); the simulation-only fields stay nil. Callers must Close it.
func NewRealtime(spec RealtimeSpec) (*Cluster, error) {
	if spec.Targets < 3 {
		return nil, fmt.Errorf("cluster: need at least 3 targets, got %d", spec.Targets)
	}
	if spec.Spares < 0 {
		return nil, fmt.Errorf("cluster: negative spare count %d", spec.Spares)
	}
	if spec.Integrity && spec.SizeOnly {
		return nil, fmt.Errorf("cluster: Integrity requires stored data (incompatible with Elide)")
	}
	if spec.DriveCapacity <= 0 {
		spec.DriveCapacity = 256 << 20
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	width := spec.Targets + spec.Spares
	bed := realtime.NewBed(spec.Seed, width)

	var fab backend.Transport
	var closeTransport func() error
	if spec.TCP {
		t, err := realtime.NewTCPTransport(bed, width)
		if err != nil {
			bed.Close()
			return nil, err
		}
		fab, closeTransport = t, t.Close
	} else {
		fab = realtime.NewChanTransport(bed, width)
	}

	costs := cpu.DefaultCosts()
	c := &Cluster{
		Costs: costs, Rt: bed, Fab: fab,
		spec: Spec{
			Targets: spec.Targets, Spares: spec.Spares, Seed: spec.Seed,
			Pipelined: spec.Pipelined, Integrity: spec.Integrity,
			Elide: spec.SizeOnly,
		},
	}

	path := func(i int) string { return filepath.Join(spec.Dir, fmt.Sprintf("drive%d.img", i)) }
	var files []*realtime.Drive // drive i's file is path(i)
	cleanup := func() {
		if closeTransport != nil {
			closeTransport()
		}
		bed.Close()
		for i, d := range files {
			d.Close()
			os.Remove(path(i))
		}
	}
	for i := 0; i < width; i++ {
		rt := bed.NodeRuntime(backend.NodeID(i))
		var drive *realtime.Drive
		if spec.Dir != "" && !spec.SizeOnly {
			var err error
			if drive, err = realtime.NewFileDrive(rt, path(i), spec.DriveCapacity); err != nil {
				cleanup()
				return nil, fmt.Errorf("cluster: file drive %d: %w", i, err)
			}
			files = append(files, drive)
		} else {
			drive = realtime.NewMemDrive(rt, spec.DriveCapacity, !spec.SizeOnly)
		}
		c.Drives = append(c.Drives, drive)
		scfg := core.ServerConfig{
			Costs: costs, Pipelined: spec.Pipelined,
			Integrity: spec.Integrity,
		}
		c.Servers = append(c.Servers, core.NewServer(core.NodeID(i), rt, fab, drive, rt, scfg))
	}
	c.Spares = core.NewSparePool(c.SpareIDs())
	c.close = func() error {
		cleanup()
		return nil
	}
	return c, nil
}

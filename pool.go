package draid

import (
	"fmt"
	"time"

	"draid/internal/cluster"
	"draid/internal/core"
	"draid/internal/repair"
	"draid/internal/sim"
)

// PoolConfig describes a shared cluster: drives, NICs, cores, and hot
// spares that several volumes divide among themselves. It carries the
// physical-substrate half of Config; the per-volume half (level, width,
// chunk size) moves to VolumeConfig.
type PoolConfig struct {
	// Backend and Realtime select the substrate the pool and every volume on
	// it run on, as on Config (default: the simulation). A realtime pool
	// rejects what a realtime array rejects, and must be Closed.
	Backend  BackendKind
	Realtime RealtimeOptions
	// Drives is the number of shared member drives (default 8). Every
	// volume stripes over a prefix of these; a volume's width may not
	// exceed it.
	Drives int
	// DriveCapacity overrides the per-drive capacity (default 1.6 TB).
	// Volumes carve disjoint extents out of each drive until it is full.
	DriveCapacity int64
	// HostNICGbps and TargetNICGbps set line rates (default 100).
	// TargetNICGbpsList overrides per-target rates.
	HostNICGbps       float64
	TargetNICGbps     float64
	TargetNICGbpsList []float64
	// DrivesPerServer co-locates several member drives on one physical
	// storage server (§5.5). Default 1.
	DrivesPerServer int
	// SizeOnly runs the data plane without materializing payload bytes.
	SizeOnly bool
	// Seed drives all randomness (default 1).
	Seed int64
	// Observe configures the tracing and metrics subsystem (shared by all
	// volumes; volume 0 owns the bare "host" tracks, others get "host/vN").
	Observe Observe
	// Spares provisions hot-spare servers shared by every volume's rebuild
	// supervisor, first claim wins.
	Spares int
	// RebuildRateMBps is a shared token-bucket budget for reconstruction
	// bytes: concurrent rebuilds across volumes split this rate instead of
	// each claiming it in full. 0 means unthrottled.
	RebuildRateMBps float64
	// QoSWindowBytes enables the shared per-volume fair scheduler: user I/O
	// from every volume is admitted through weighted fair queuing over this
	// many in-flight bytes, bounding how deeply a noisy neighbor can bury a
	// victim's requests in device queues. 0 disables QoS (the default);
	// negative selects the 4 MiB default window. Per-volume weights come
	// from VolumeConfig.QoSWeight.
	QoSWindowBytes int64
}

// Pool is a shared cluster plus the arbitration state volumes contend on
// (spare pool, rebuild-rate budget). Open volumes with OpenVolume; all
// volumes share one clock — on the simulation a virtual one, advanced by any
// volume's *Sync methods or by Pool.Run. Like an Array, a Pool is driven from
// one goroutine.
type Pool struct {
	cl      *cluster.Cluster
	cfg     PoolConfig
	limiter *repair.RateLimiter
	arrays  []*Array
	// pending lists the volumes whose layouts the last AddDrive/RemoveDrive
	// is still migrating; WaitRebalance drains it.
	pending []*Array
}

// volume returns the Config of one volume on this pool: the pool's half (the
// physical substrate, which NewPool also sizes the shared cluster from) plus
// the volume's own.
func (c PoolConfig) volume(vc VolumeConfig) Config {
	cfg := Config{
		Backend:           c.Backend,
		Realtime:          c.Realtime,
		Drives:            c.Drives,
		DriveCapacity:     c.DriveCapacity,
		HostNICGbps:       c.HostNICGbps,
		TargetNICGbps:     c.TargetNICGbps,
		TargetNICGbpsList: c.TargetNICGbpsList,
		DrivesPerServer:   c.DrivesPerServer,
		SizeOnly:          c.SizeOnly,
		Seed:              c.Seed,
		Observe:           c.Observe,
		Spares:            c.Spares,
		RebuildRateMBps:   c.RebuildRateMBps,

		Level:             vc.Level,
		ChunkSize:         vc.ChunkSize,
		ReducerPolicy:     vc.ReducerPolicy,
		Hedge:             vc.Hedge,
		Health:            vc.Health,
		WriteBack:         vc.WriteBack,
		StageMB:           vc.StageMB,
		CacheMB:           vc.CacheMB,
		DestageIntervalMs: vc.DestageIntervalMs,
		EpochFencing:      vc.EpochFencing,
		HostLease:         vc.HostLease,
		MaxRetries:        vc.MaxRetries,
		RetryBackoff:      vc.RetryBackoff,
		OpDeadline:        vc.OpDeadline,
	}
	if vc.Drives != 0 {
		cfg.Drives = vc.Drives
	}
	if vc.Declustered {
		cfg.Declustered, cfg.ClusterDrives = true, c.Drives
	}
	return cfg.withDefaults()
}

// NewPool assembles the shared testbed, simulated or realtime as cfg.Backend
// names. The pool's half of the configuration is checked by the rules
// Config.Validate applies to a standalone array's.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.Drives == 0 {
		cfg.Drives = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	substrate := cfg.volume(VolumeConfig{})
	if err := substrate.validate(); err != nil {
		return nil, err
	}
	cl, err := substrate.newCluster()
	if err != nil {
		return nil, err
	}
	p := &Pool{cl: cl, cfg: cfg}
	if cfg.RebuildRateMBps > 0 {
		p.limiter = repair.NewRateLimiter(p.cl.Rt, cfg.RebuildRateMBps)
	}
	if cfg.QoSWindowBytes != 0 {
		window := cfg.QoSWindowBytes
		if window < 0 {
			window = 0 // core.NewQoS defaults it
		}
		p.cl.EnableQoS(window)
	}
	return p, nil
}

// Close releases the shared testbed under every volume (see Array.Close).
func (p *Pool) Close() error { return p.cl.Close() }

// VolumeConfig describes one virtual array on a shared pool.
type VolumeConfig struct {
	// Name labels the volume in the registry (default "volN").
	Name string
	// Level is the RAID level (default Raid5).
	Level Level
	// Drives is the stripe width (default: the pool's drive count). A
	// narrower volume stripes over members 0..Drives-1 — unless Declustered
	// is set, in which case the width-Drives parity groups spread over every
	// pool drive.
	Drives int
	// Declustered spreads this volume's stripes across all pool drives with
	// seeded parity declustering instead of pinning them to a contiguous
	// member window: rebuild becomes many-to-many (shrinking as the pool
	// grows) and the volume follows Pool.AddDrive/RemoveDrive expansions.
	// Requires a stripe width (Drives) strictly below the pool's drive
	// count, so every row keeps distributed spare slots.
	Declustered bool
	// ChunkSize is the stripe chunk size (default 512 KB).
	ChunkSize int64
	// Extent is the volume's slice of every member drive in bytes; 0 claims
	// all remaining capacity (so the last volume takes the rest).
	Extent int64
	// ReducerPolicy selects degraded-read reducer placement.
	ReducerPolicy ReducerPolicy
	// Hedge tunes hedged reads against slow members (see HedgeConfig).
	Hedge HedgeConfig
	// QoSWeight is this volume's share weight under the pool's QoS
	// scheduler (default 1; larger is more; ignored without
	// PoolConfig.QoSWindowBytes).
	QoSWeight float64
	// Health configures automatic failure detection for this volume.
	Health HealthConfig
	// WriteBack / StageMB / CacheMB / DestageIntervalMs as in Config: this
	// volume's write-back staging layer, accounted per volume.
	WriteBack         bool
	StageMB           int
	CacheMB           int
	DestageIntervalMs int
	// EpochFencing / HostLease as in Config: membership epochs and the
	// lease watchdog for this volume's controller, granted from the shared
	// cluster's per-volume epoch registry.
	EpochFencing bool
	HostLease    time.Duration
	// MaxRetries / RetryBackoff / OpDeadline as in Config.
	MaxRetries   int
	RetryBackoff time.Duration
	OpDeadline   time.Duration
}

// OpenVolume registers a new volume on the pool and returns it as an Array.
// The array shares the pool's engine, drives, NICs, and spares with its
// co-tenants; HostTraffic reports only this volume's share of the host NIC.
// The volume's configuration is checked by the rules Config.Validate applies
// to a standalone array.
func (p *Pool) OpenVolume(vc VolumeConfig) (*Array, error) {
	if vc.Name == "" {
		vc.Name = fmt.Sprintf("vol%d", len(p.cl.Volumes()))
	}
	cfg := p.cfg.volume(vc)
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("volume %q: %w", vc.Name, err)
	}
	arr, err := open(p.cl, cfg, vc.Name, vc.Extent, vc.QoSWeight, p.limiter)
	if err != nil {
		return nil, err
	}
	arr.vol = p.cl.VolumeByID(arr.hostCfg.Volume)
	p.arrays = append(p.arrays, arr)
	return arr, nil
}

// Volumes returns the pool's open volumes as Arrays were created, by name
// and ID order.
func (p *Pool) Volumes() []*cluster.Volume { return p.cl.Volumes() }

// Cluster exposes the shared testbed for fault injection and inspection.
func (p *Pool) Cluster() *cluster.Cluster { return p.cl }

// Run blocks until all volumes' outstanding work completes (advancing the
// shared virtual clock on the simulation).
func (p *Pool) Run() { p.cl.Rt.Run() }

// RunFor advances the shared clock by d.
func (p *Pool) RunFor(d time.Duration) { p.cl.Rt.RunFor(sim.Duration(d)) }

// Now returns the current time on the shared clock.
func (p *Pool) Now() time.Duration { return time.Duration(p.cl.Rt.Now()) }

// FailDrive takes shared drive i offline for every volume striped over it
// and notifies each affected volume's controller and supervisor — one
// physical fault degrading N tenants at once.
func (p *Pool) FailDrive(i int) {
	p.cl.FailTarget(i) // whether or not a volume stripes over it; failing twice is harmless
	for _, a := range p.arrays {
		if i < a.Status().Drives {
			a.FailDrive(i)
		}
	}
}

// AddDrive grows the pool by one drive: it claims an idle hot-spare
// endpoint (PoolConfig.Spares) and adds it to every declustered volume's
// layout, each volume rebalancing its fair share of chunks onto the
// newcomer in the background, paced by the shared RebuildRateMBps budget.
// Returns the new drive index immediately; WaitRebalance observes
// convergence. Fixed-layout volumes are unaffected — their windows stay
// where they are.
func (p *Pool) AddDrive() (int, error) {
	grow, err := p.declustered("AddDrive")
	if err != nil {
		return 0, err
	}
	idx := -1
	p.pending = grow
	p.cl.Rt.Call(func() { // the spare pool belongs to the supervisors' loop
		node, ok := p.cl.Spares.Claim()
		if !ok {
			err = fmt.Errorf("draid: no spare endpoint left to add")
			return
		}
		for _, a := range grow {
			if idx, err = a.sup.AddDrive(node); err != nil {
				return
			}
		}
	})
	return idx, err
}

// declustered lists the volumes a drive add or removal acts on: every
// declustered one, each of which needs a supervisor to run the migration.
func (p *Pool) declustered(what string) (vols []*Array, err error) {
	for _, a := range p.arrays {
		if !a.host.Declustered() {
			continue
		}
		if a.sup == nil {
			return nil, fmt.Errorf("draid: %s: volume %q has no supervisor (configure PoolConfig.Spares)", what, a.vol.Name)
		}
		vols = append(vols, a)
	}
	if len(vols) == 0 {
		return nil, fmt.Errorf("draid: %s: pool has no declustered volumes: %w", what, ErrUnsupported)
	}
	return vols, nil
}

// RemoveDrive drains drive i out of every declustered volume's layout and
// retires it — online shrink. Returns immediately; WaitRebalance observes
// the drains. Fails if any volume's fixed window covers the drive, since a
// fixed layout cannot give it up.
func (p *Pool) RemoveDrive(i int) error {
	for _, a := range p.arrays {
		if !a.host.Declustered() && i < a.Status().Drives {
			return fmt.Errorf("draid: RemoveDrive: fixed-layout volume %q stripes over drive %d: %w", a.vol.Name, i, ErrUnsupported)
		}
	}
	drain, err := p.declustered("RemoveDrive")
	p.pending = drain
	for _, a := range drain {
		if err = a.RemoveDrive(i); err != nil {
			break
		}
	}
	return err
}

// WaitRebalance advances the shared clock until every migration started by
// the last AddDrive/RemoveDrive converges, returning the first error.
func (p *Pool) WaitRebalance() error {
	p.cl.Rt.Run()
	for _, a := range p.pending {
		if st := a.Status().Rebalance; st.Active {
			return fmt.Errorf("draid: rebalance of volume %q stalled", a.vol.Name)
		} else if st.Err != nil {
			return st.Err
		}
	}
	return nil
}

// TotalHostTraffic reports the shared host NIC counters (all volumes).
func (p *Pool) TotalHostTraffic() (out, in int64) { return p.cl.TotalHostBytes() }

// VolumeHostTraffic reports one volume's share of the host NIC.
func (p *Pool) VolumeHostTraffic(id int) (out, in int64) {
	return p.cl.VolumeHostBytes(core.VolumeID(id))
}

// ResetTraffic zeroes all NIC counters and the per-volume attribution.
func (p *Pool) ResetTraffic() { p.cl.ResetTraffic() }

// Trace returns the shared trace collector (nil unless Observe).
func (p *Pool) Trace() *Tracer { return p.cl.Tracer }

// SparesAvailable returns how many shared hot spares remain claimable. The
// count is read on the supervisors' loop, where they claim spares.
func (p *Pool) SparesAvailable() (n int) {
	p.cl.Rt.Call(func() { n = p.cl.Spares.Available() })
	return n
}

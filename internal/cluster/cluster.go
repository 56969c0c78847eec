// Package cluster assembles simulated testbeds: a host plus N storage
// servers with NICs, drives, and per-server controller cores, wired through
// a Fabric — the software equivalent of the paper's CloudLab profile
// (c6525-100g: 100 Gbps ConnectX-5 NICs, enterprise NVMe SSDs, one
// controller core per drive).
package cluster

import (
	"errors"
	"fmt"
	"strings"

	"draid/internal/backend"
	"draid/internal/core"
	"draid/internal/cpu"
	"draid/internal/raid"
	"draid/internal/recon"
	"draid/internal/sim"
	"draid/internal/simnet"
	"draid/internal/ssd"
	"draid/internal/trace"
)

// ErrNoCapacity reports a volume allocation that exceeds the drives'
// remaining capacity: the per-drive allocation cursor has no room for the
// requested extent. Callers match it with errors.Is.
var ErrNoCapacity = errors.New("cluster: insufficient drive capacity")

// Spec describes a testbed.
type Spec struct {
	// Targets is the number of member bdevs (= array width).
	Targets int
	// BdevsPerServer co-locates this many member bdevs per physical
	// storage server, sharing one controller core and NIC (§5.5 resource
	// sharing). Default 1 (one drive per server, the paper's main setup).
	BdevsPerServer int
	// OffloadController runs the RAID controller on the first storage
	// server's node (§7): the fabric's host endpoint shares that node with
	// its members, and HostNode is a thin client one NVMe-oF hop away.
	OffloadController bool
	// Spares adds this many hot-spare bdevs beyond Targets, each on its own
	// server with its own NIC, core, and drive. Spares are idle until a
	// rebuild manager (internal/repair) promotes one to replace a failed
	// member; they are not part of the array geometry.
	Spares int
	// HostGbps is the host NIC line rate (default 100).
	HostGbps float64
	// TargetGbps is the per-target NIC line rate (default 100). Use
	// TargetGbpsList for heterogeneous setups (Figure 17b).
	TargetGbps     float64
	TargetGbpsList []float64
	// Drive overrides the per-target drive model (default ssd.DefaultSpec).
	Drive *ssd.Spec
	// Net overrides fabric parameters (default simnet.DefaultConfig).
	Net *simnet.Config
	// Costs overrides the CPU cost model (default cpu.DefaultCosts).
	Costs *cpu.Costs
	// Pipelined controls the §5.3 server-side I/O pipeline (dRAID default
	// true; the ablation sets it false).
	Pipelined bool
	// Integrity enables per-chunk CRC32C checksums with verify-on-read on
	// every server (the T10 DIF stand-in). Requires data-storing drives, so
	// it cannot be combined with Elide.
	Integrity bool
	// BarrierReduce enables the §5.2 barrier ablation on the servers.
	BarrierReduce bool
	// Seed drives all randomness (default 1).
	Seed int64
	// Elide runs the data plane size-only (benchmark mode).
	Elide bool
	// Observe enables the structured virtual-time tracing subsystem: spans
	// from NICs, drives, and controllers plus periodic gauge samples.
	Observe bool
	// SampleEvery sets the gauge ticker period (default 50µs; needs Observe).
	SampleEvery sim.Duration
}

// DefaultSpec returns the paper's default testbed shape: 8 targets, 100 Gbps
// everywhere, the calibrated drive model.
func DefaultSpec() Spec {
	return Spec{Targets: 8, HostGbps: 100, TargetGbps: 100, Pipelined: true, Seed: 1}
}

// Cluster is an assembled testbed. Rt, Fab, Drives, and Servers are set on
// every backend; Eng, Net, Fabric, HostNode, Targets, and Cores are the
// concrete simulation parts and are nil on the real-time backend — code that
// needs them is simulation-only by construction.
type Cluster struct {
	Eng    *sim.Engine
	Net    *simnet.Network
	Fabric *core.Fabric
	// HostNode is where user I/O enters the testbed, and whose NIC Table 1
	// accounts: the host running the controller, or with the controller
	// offloaded the thin client in front of it (Fabric.HostNode() is then
	// Targets[0]).
	HostNode *simnet.Node
	Targets  []*simnet.Node
	Drives   []backend.Drive
	Cores    []*cpu.Core
	Servers  []*core.ServerController
	Costs    cpu.Costs
	// Rt is the backend runner the controllers are scheduled on; Fab is the
	// transport they exchange capsules over. On the simulation these wrap
	// Eng and Fabric.
	Rt  backend.Runner
	Fab backend.Transport
	// Spares arbitrates the cluster's hot spares among its volumes'
	// rebuild supervisors (first claim wins).
	Spares *core.SparePool
	// Tracer is the structured trace collector (nil unless Spec.Observe).
	Tracer *trace.Collector
	spec   Spec

	// volumes registers the virtual arrays sharing this cluster's drives,
	// indexed by VolumeID. nextBase is the per-drive allocation cursor:
	// volume extents are carved off each drive front to back.
	volumes  []*Volume
	nextBase int64
	// qos is the shared per-volume fair scheduler (nil until EnableQoS);
	// volumes registered afterwards are admitted through it.
	qos *core.QoS

	// epochs is the membership registry: the highest host epoch granted per
	// volume. The cluster is the (modelled) membership authority — grants
	// are serial and monotone, so a replacement host always outranks every
	// predecessor at the bdevs.
	epochs map[core.VolumeID]uint64

	// close releases backend resources (real-time loops, listeners, files);
	// nil on the simulation, which holds nothing to release.
	close func() error
}

// Volume is one virtual array registered on a shared cluster: its own
// geometry and host controller over an exclusive extent of every drive.
type Volume struct {
	ID   core.VolumeID
	Name string
	Host *core.HostController
	Cfg  core.Config
	// Base and Extent delimit the volume's slice [Base, Base+Extent) of
	// every member drive.
	Base   int64
	Extent int64
}

// Validate reports why a spec cannot be assembled (too few or negative
// targets yield zero-drive clusters whose accessors would otherwise
// index-panic).
func (s Spec) Validate() error {
	if s.Targets < 3 {
		return fmt.Errorf("cluster: need at least 3 targets, got %d", s.Targets)
	}
	if s.Spares < 0 {
		return fmt.Errorf("cluster: negative spare count %d", s.Spares)
	}
	if s.Integrity && s.Elide {
		return fmt.Errorf("cluster: Integrity requires stored data (incompatible with Elide)")
	}
	return nil
}

// New builds a cluster.
func New(spec Spec) *Cluster {
	if err := spec.Validate(); err != nil {
		panic(err.Error())
	}
	if spec.HostGbps == 0 {
		spec.HostGbps = 100
	}
	if spec.TargetGbps == 0 {
		spec.TargetGbps = 100
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	eng := sim.NewEngine(spec.Seed)
	netCfg := simnet.DefaultConfig()
	if spec.Net != nil {
		netCfg = *spec.Net
	}
	net := simnet.New(eng, netCfg)
	var tracer *trace.Collector
	if spec.Observe {
		tracer = trace.New(eng, trace.Options{SampleEvery: spec.SampleEvery})
		eng.SetObserver(tracer)
		net.SetTracer(tracer) // before nodes, so every NIC registers its track
	}
	costs := cpu.DefaultCosts()
	if spec.Costs != nil {
		costs = *spec.Costs
	}
	driveSpec := ssd.DefaultSpec()
	if spec.Drive != nil {
		driveSpec = *spec.Drive
	}
	if spec.Elide {
		driveSpec.StoreData = false
	}

	hostName := "host"
	if spec.OffloadController {
		hostName = "client"
	}
	hostNode := net.NewNode(hostName)
	hostNode.AddNIC("nic0", spec.HostGbps)

	perServer := spec.BdevsPerServer
	if perServer <= 0 {
		perServer = 1
	}
	c := &Cluster{Eng: eng, Net: net, HostNode: hostNode, Costs: costs, Tracer: tracer, spec: spec,
		Rt: backend.SimRunner(eng)}
	var serverNode *simnet.Node
	var serverCore *cpu.Core
	for i := 0; i < spec.Targets; i++ {
		if i%perServer == 0 {
			serverNode = net.NewNode(fmt.Sprintf("server%d", i/perServer))
			gbps := spec.TargetGbps
			if spec.TargetGbpsList != nil {
				gbps = spec.TargetGbpsList[(i/perServer)%len(spec.TargetGbpsList)]
			}
			serverNode.AddNIC("nic0", gbps)
			serverCore = cpu.NewCore(eng)
			if tracer.Enabled() {
				node, core := serverNode, serverCore
				tracer.AddGauge(tracer.Track(node.Name(), "core"), node.Name()+" core busy",
					trace.UtilizationGauge(eng, core.BusyTotal))
			}
		}
		c.Targets = append(c.Targets, serverNode)
		drive := ssd.New(eng, driveSpec)
		if tracer.Enabled() {
			drive.SetTracer(tracer, tracer.Track(serverNode.Name(), fmt.Sprintf("bdev%d", i)))
		}
		c.Drives = append(c.Drives, drive)
		c.Cores = append(c.Cores, serverCore)
	}
	// Hot spares ride on the same fabric as extra targets past the array
	// width: the server-controller loop below gives each one a full bdev
	// stack, so a promoted spare serves I/O exactly like a member.
	for i := 0; i < spec.Spares; i++ {
		spareNode := net.NewNode(fmt.Sprintf("spare%d", i))
		spareNode.AddNIC("nic0", spec.TargetGbps)
		spareCore := cpu.NewCore(eng)
		if tracer.Enabled() {
			node, core := spareNode, spareCore
			tracer.AddGauge(tracer.Track(node.Name(), "core"), node.Name()+" core busy",
				trace.UtilizationGauge(eng, core.BusyTotal))
		}
		c.Targets = append(c.Targets, spareNode)
		drive := ssd.New(eng, driveSpec)
		if tracer.Enabled() {
			drive.SetTracer(tracer, tracer.Track(spareNode.Name(), fmt.Sprintf("bdev%d", spec.Targets+i)))
		}
		c.Drives = append(c.Drives, drive)
		c.Cores = append(c.Cores, spareCore)
	}
	ctrlNode := hostNode
	if spec.OffloadController {
		ctrlNode = c.Targets[0]
	}
	c.Fabric = core.NewFabric(net, ctrlNode, c.Targets)
	c.Fab = c.Fabric
	for i := range c.Targets {
		scfg := core.ServerConfig{
			Costs:         costs,
			Pipelined:     spec.Pipelined,
			BarrierReduce: spec.BarrierReduce,
			Integrity:     spec.Integrity,
		}
		if tracer.Enabled() {
			scfg.Tracer = tracer
			scfg.TraceTrack = tracer.Track(c.Targets[i].Name(), fmt.Sprintf("bdev%d", i))
		}
		c.Servers = append(c.Servers, core.NewServer(core.NodeID(i), c.Rt, c.Fab, c.Drives[i], c.Cores[i], scfg))
	}
	c.Spares = core.NewSparePool(c.SpareIDs())
	return c
}

// DriveCapacity returns the per-drive capacity.
func (c *Cluster) DriveCapacity() int64 {
	if len(c.Drives) == 0 {
		panic("cluster: no drives configured (zero-target spec?)")
	}
	return c.Drives[0].Capacity()
}

// Close releases backend resources. On the simulation it is a no-op; on the
// real-time backend it stops the node loops, closes transport listeners, and
// removes file-backed media.
func (c *Cluster) Close() error {
	if c.close == nil {
		return nil
	}
	return c.close()
}

// SpareIDs returns the fabric NodeIDs of the hot spares, in pool order.
func (c *Cluster) SpareIDs() []core.NodeID {
	ids := make([]core.NodeID, c.spec.Spares)
	for i := range ids {
		ids[i] = core.NodeID(c.spec.Targets + i)
	}
	return ids
}

// resolveConfig fills zero Config fields with the cluster defaults.
func (c *Cluster) resolveConfig(cfg core.Config) core.Config {
	if cfg.Geometry.Width == 0 {
		cfg.Geometry = raid.Geometry{Level: raid.Raid5, Width: c.spec.Targets, ChunkSize: 512 << 10}
	}
	if cfg.Costs == (cpu.Costs{}) {
		cfg.Costs = c.Costs
	}
	if cfg.Tracer == nil {
		cfg.Tracer = c.Tracer
	}
	if cfg.QoS == nil {
		cfg.QoS = c.qos
	}
	return cfg
}

// EnableQoS installs a shared weighted-fair I/O arbiter on the cluster:
// every volume registered afterwards has its user reads and writes admitted
// through start-time fair queuing over a shared in-flight byte window, so a
// noisy neighbor cannot bury a victim volume's tail latency in device
// queues. window <= 0 selects the default (4 MiB). Per-volume weights come
// from core.Config.QoSWeight. Idempotent; returns the arbiter.
func (c *Cluster) EnableQoS(window int64) *core.QoS {
	if c.qos == nil {
		c.qos = core.NewQoS(c.Rt, window)
	}
	return c.qos
}

// QoS returns the shared arbiter, or nil when EnableQoS was never called.
func (c *Cluster) QoS() *core.QoS { return c.qos }

// GrantEpoch advances and returns a volume's host epoch: one grant per
// controller session (volume open, failover, seize). The first grant
// returns 1, so a granted epoch is always distinguishable from the zero
// "fencing off" value.
func (c *Cluster) GrantEpoch(id core.VolumeID) uint64 {
	if c.epochs == nil {
		c.epochs = make(map[core.VolumeID]uint64)
	}
	c.epochs[id]++
	return c.epochs[id]
}

// CurrentEpoch returns the highest epoch granted for a volume (0 when epoch
// fencing was never used). A host whose epoch is below this must not renew
// its lease.
func (c *Cluster) CurrentEpoch(id core.VolumeID) uint64 {
	return c.epochs[id]
}

// AddVolume registers a virtual array on the cluster: a dRAID host
// controller over the next free extent of every drive. extent is the
// per-drive slice length in bytes; 0 claims all remaining capacity. Config
// fields left zero pick up the cluster defaults; Volume and DriveBase are
// assigned by the registry.
func (c *Cluster) AddVolume(name string, extent int64, cfg core.Config) (*Volume, error) {
	remaining := c.DriveCapacity() - c.nextBase
	if extent == 0 {
		extent = remaining
	}
	if extent <= 0 || extent > remaining {
		return nil, fmt.Errorf("cluster: volume %q wants %d bytes/drive, %d remaining: %w",
			name, extent, remaining, ErrNoCapacity)
	}
	cfg = c.resolveConfig(cfg)
	cfg.Volume = core.VolumeID(len(c.volumes))
	cfg.DriveBase = c.nextBase
	if cfg.Layout == nil && cfg.LayoutFor != nil {
		// Materialize the layout here rather than in NewHost, so the stored
		// Volume.Cfg carries the same layout instance a failover replacement
		// must reuse — a declustered layout accumulates relocation overrides
		// that a freshly seeded copy would not have.
		cfg.Layout = cfg.LayoutFor(cfg.DriveBase, extent)
	}
	v := &Volume{
		ID: cfg.Volume, Name: name, Cfg: cfg,
		Base: c.nextBase, Extent: extent,
	}
	v.Host = core.NewHost(c.Rt, c.Fab, extent, cfg)
	c.volumes = append(c.volumes, v)
	c.nextBase += extent
	return v, nil
}

// Volumes returns the registered volumes in creation (= VolumeID) order.
func (c *Cluster) Volumes() []*Volume { return c.volumes }

// VolumeByID returns a registered volume, or nil.
func (c *Cluster) VolumeByID(id core.VolumeID) *Volume {
	if int(id) >= len(c.volumes) {
		return nil
	}
	return c.volumes[id]
}

// NewDRAID attaches a dRAID host controller for the given geometry. Config
// fields left zero pick up the cluster defaults.
//
// This is the single-volume compatibility entry: the first call registers
// volume cfg.Volume (normally 0) over the drives' full remaining capacity;
// a later call naming an already-registered volume builds a replacement
// controller on the same extent and takes over its fabric endpoint (host
// failover). Multi-tenant setups use AddVolume directly.
func (c *Cluster) NewDRAID(cfg core.Config) *core.HostController {
	if int(cfg.Volume) < len(c.volumes) {
		v := c.volumes[cfg.Volume]
		cfg = c.resolveConfig(cfg)
		cfg.Volume = v.ID
		cfg.DriveBase = v.Base
		if cfg.Layout == nil {
			// Failover re-entry: reuse the volume's materialized layout (its
			// relocation overrides included) rather than re-seeding one.
			cfg.Layout = v.Cfg.Layout
		}
		v.Cfg = cfg
		v.Host = core.NewHost(c.Rt, c.Fab, v.Extent, cfg)
		return v.Host
	}
	v, err := c.AddVolume(fmt.Sprintf("vol%d", len(c.volumes)), 0, cfg)
	if err != nil {
		panic(err.Error())
	}
	return v.Host
}

// BWAwareSelector returns the §6.2 bandwidth-aware reducer policy for an
// array of the given width, tracking each target's first NIC in member
// order. It samples simulated NIC queues, so it exists on the simulation
// only.
func (c *Cluster) BWAwareSelector(width int) *recon.BWAwareSelector {
	nics := make([]*simnet.NIC, len(c.Targets))
	for i, t := range c.Targets {
		nics[i] = t.NICs()[0]
	}
	tr := recon.NewBandwidthTracker(c.Eng, nics, 2*sim.Millisecond)
	return &recon.BWAwareSelector{Rng: c.Eng.Rand(), Tracker: tr, Fanout: width - 2}
}

// FailTarget fails a target end to end: the endpoint drops off the transport
// and its drive stops completing I/O. Pair with HostController.SetFailed
// (the host notices either via timeouts or via explicit administrative
// action, as in the paper's evaluation).
func (c *Cluster) FailTarget(i int) {
	c.Fab.SetDown(core.NodeID(i), true)
	c.Drives[i].Fail()
}

// RecoverTarget reverses FailTarget.
func (c *Cluster) RecoverTarget(i int) {
	c.Fab.SetDown(core.NodeID(i), false)
	c.Drives[i].Recover()
}

// LeakCheck reports what a drained cluster still holds that an idle one must
// not: pooled buffers some owner never released (every drive's read free list,
// every server's accumulator pool and, on a transport that pools what each
// endpoint receives, every endpoint's receive pool must balance: gets =
// releases + handed off), reductions still open on a server, and anything a
// volume's host controller still holds (HostController.Quiescent: ops in
// flight, stripe locks, dirty marks, open rebuilds, reserved layout slots).
// Call it after Run() has drained, with no background I/O in flight. Neither a
// media error (the failing participant still reports in) nor a duplicated
// capsule (its part is dropped) strands a reduction; only a partition does, or
// a duplicate trailing its reduction's end by more than the server remembers,
// and those are only severed by a fence or an epoch bump, so a harness that cut
// the fabric fences before it checks. A server whose node is down is skipped,
// its receive pool too: what it held went down with it.
func (c *Cluster) LeakCheck() error {
	var leaks []string
	pool := func(what string, i int, x any) {
		if acct, ok := x.(backend.BufferAccounting); ok {
			if st := acct.BufferStats(); st.Outstanding() != 0 {
				leaks = append(leaks, fmt.Sprintf("%s %d: %d pooled buffers outstanding (%+v)", what, i, st.Outstanding(), st))
			}
		}
	}
	for i, d := range c.Drives {
		pool("drive", i, d)
	}
	recv, _ := c.Fab.(backend.EndpointBufferAccounting)
	received := func(id core.NodeID) {
		if recv == nil {
			return
		}
		if st := recv.EndpointBufferStats(id); st.Outstanding() != 0 {
			leaks = append(leaks, fmt.Sprintf("endpoint %d: %d received payloads outstanding (%+v)", id, st.Outstanding(), st))
		}
	}
	received(core.HostID)
	for i, s := range c.Servers {
		if c.Fab.Down(core.NodeID(i)) {
			continue
		}
		pool("server", i, s)
		received(core.NodeID(i))
		if n := s.OpenReductions(); n != 0 {
			leaks = append(leaks, fmt.Sprintf("server %d: %d reductions still open", i, n))
		}
	}
	c.Rt.Call(func() {
		for _, v := range c.volumes {
			if err := v.Host.Quiescent(); err != nil {
				leaks = append(leaks, err.Error())
			}
		}
	})
	if len(leaks) > 0 {
		return fmt.Errorf("cluster: leaked at quiescence: %s", strings.Join(leaks, "; "))
	}
	return nil
}

// TotalHostBytes reports the host NIC traffic (out, in) since the last
// counter reset — the quantity Table 1 accounts, aggregated over all
// volumes sharing the host NIC.
func (c *Cluster) TotalHostBytes() (out, in int64) {
	if c.HostNode != nil {
		return c.HostNode.BytesOut(), c.HostNode.BytesIn()
	}
	if t, ok := c.Fab.(backend.Traffic); ok {
		return t.HostBytes()
	}
	return 0, 0
}

// VolumeHostBytes reports the host NIC traffic (out, in) attributed to one
// volume. Summed over Volumes() it equals TotalHostBytes, except with the
// controller offloaded: HostNode is then the client, which the fabric's
// attribution never sees.
func (c *Cluster) VolumeHostBytes(id core.VolumeID) (out, in int64) {
	if c.Fabric != nil {
		return c.Fabric.HostVolumeBytes(id)
	}
	if t, ok := c.Fab.(backend.Traffic); ok {
		return t.HostVolumeBytes(id)
	}
	return 0, 0
}

// ResetTraffic zeroes all NIC counters on the host and targets, and the
// per-volume attribution alongside them.
func (c *Cluster) ResetTraffic() {
	if c.HostNode == nil {
		if t, ok := c.Fab.(backend.Traffic); ok {
			t.ResetTraffic()
		}
		return
	}
	c.HostNode.ResetCounters()
	for _, t := range c.Targets {
		t.ResetCounters()
	}
	c.Fabric.ResetHostVolumeBytes()
}

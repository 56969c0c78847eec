package main

import (
	"encoding/json"
	"os"
)

// The load shape every realtime workload shares. Callers of a block device
// wait for a reply before sending their next request, so the loop is closed;
// two ops in flight is one per core on the 2-core sandbox (at 8 in flight the
// cores saturate and throughput swings ±25% run to run).
const (
	inFlight = 2
	nSlices  = 5
	warmup   = 1 // seconds of closed-loop load before the measured window
	setups   = 5 // array builds per run; setup_s is their median
)

// The common realtime array: the path every user gets, all opt-in features
// (integrity, hedging, write-back, epochs, declustering) left off.
const (
	rtDrives    = 8
	rtChunk     = 64 << 10
	rtDriveCap  = 16 << 20
	rtStripe    = (rtDrives - 1) * rtChunk // 448 KiB of user data per stripe
	failedDrive = 2
)

// workload is one named set of inputs. Names are final: later changes cite
// them.
type workload struct {
	name string
	why  string
	// sim selects the three-phase paper mix on the simulated backend; the
	// remaining fields describe a realtime closed loop.
	sim       bool
	tcp       bool
	ioSize    int64
	readShare float64
	degraded  bool
}

var workloads = []workload{
	{name: "rt-read-128k", ioSize: 128 << 10, readShare: 1,
		why: "random 128 KiB reads on chan transport: the copy-and-allocate read path, parity kernels idle"},
	{name: "rt-write-4k", ioSize: 4 << 10,
		why: "random 4 KiB writes: the paper's peer-to-peer RMW path, capsule count and loop wake-ups, almost no payload"},
	{name: "rt-write-stripe", ioSize: rtStripe,
		why: "aligned 448 KiB full-stripe writes: host-side parity and large buffer movement through the same write entry point"},
	{name: "rt-degraded-mix-64k", ioSize: 64 << 10, readShare: 0.7, degraded: true,
		why: "member 2 failed, 70/30 random 64 KiB: server-side reconstruction on the read path, degraded write variants"},
	{name: "rt-tcp-mix-16k", tcp: true, ioSize: 16 << 10, readShare: 0.7,
		why: "loopback TCP, 70/30 random 16 KiB: capsule encode/decode, CRC framing and socket syscalls do most of the work"},
	{name: "sim-paper-mix", sim: true,
		why: "simulated backend at the paper's shape, three fixed virtual windows: the simulator's own speed, realtime transport idle"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics carry none. Moves names the end-to-end
// metric a per-layer metric is expected to move, Source how it is taken:
// "T" from the traced pass, "R" from a rung (fixed-iteration calls into a
// layer's exported functions), "run" from the untraced run's own counters.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
	Source string
	// Exact marks a value the simulator computes in virtual time: two runs
	// with one seed must agree on it bit for bit.
	Exact bool
}

// endToEnd lists what a user of the system sees. Every workload reports every
// one of them, so each is defined for the realtime arrays and for the
// simulator alike (see README.md for the sim reading of each).
var endToEnd = []metricDef{
	// Build + prefill (+ FailDrive) before the timed window; median of 5 set-ups.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Verified user bytes (10^6) per wall second, median of 5 slices.
	{Name: "mbps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	// Median wall-clock latency of a user op, all op types of the workload.
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	// Process user+sys CPU (getrusage) per completed user op, median of slices.
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	// Go heap objects allocated per user op.
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	// Go heap bytes allocated per user byte: the copy proxy.
	{Name: "alloc_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.05},
	// Host NIC out+in bytes per user byte: the paper's headline ratio.
	{Name: "host_nic_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.02},
	// Sum of drive read+write bytes per user byte.
	{Name: "drive_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.02},
	// Ru_maxrss of the workload's own process.
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer lists the single-layer metrics. A metric whose layer a workload
// does not exercise reads 0 on that workload.
var perLayer = []metricDef{
	// core host (HostController), traced pass.
	// Mean user-op span, issue to callback.
	{Name: "host.span_us_per_op", Unit: "us", Better: "lower", Source: "T", Moves: "op_p50_us"},
	// User-op span minus the union of its transport, server and drive spans.
	{Name: "host.self_us_per_op", Unit: "us", Better: "lower", Source: "T", Moves: "op_p50_us, cpu_us_per_op, allocs_per_op"},
	{Name: "host.read_p50_us", Unit: "us", Better: "lower", Source: "T", Moves: "op_p50_us"},
	{Name: "host.write_p50_us", Unit: "us", Better: "lower", Source: "T", Moves: "op_p50_us"},
	{Name: "host.read_p99_us", Unit: "us", Better: "lower", Source: "T", Moves: "op_p50_us"},
	{Name: "host.write_p99_us", Unit: "us", Better: "lower", Source: "T", Moves: "op_p50_us"},
	// 0 unless at least ten samples lie beyond it.
	{Name: "host.read_p999_us", Unit: "us", Better: "lower", Source: "T", Moves: "op_p50_us"},
	// 0 unless at least ten samples lie beyond it.
	{Name: "host.write_p999_us", Unit: "us", Better: "lower", Source: "T", Moves: "op_p50_us"},
	// core server (ServerController), traced pass.
	// Server spans (node × command ID) per user op.
	{Name: "server.cmds_per_op", Unit: "count", Better: "lower", Source: "T", Moves: "op_p50_us, cpu_us_per_op"},
	// Server spans minus their drive spans and inbound peer deliveries, per user op.
	{Name: "server.self_us_per_op", Unit: "us", Better: "lower", Source: "T", Moves: "cpu_us_per_op"},
	// Median server span: command delivered to node n until n's last capsule for it is sent.
	{Name: "server.cmd_p50_us", Unit: "us", Better: "lower", Source: "T", Moves: "op_p50_us"},
	// backend/realtime transport and loops.
	{Name: "transport.capsules_per_op", Unit: "count", Better: "lower", Source: "T", Moves: "host_nic_bytes_per_user_byte, cpu_us_per_op"},
	// Target-to-target wire bytes per user byte.
	{Name: "transport.peer_bytes_per_user_byte", Unit: "ratio", Better: "lower", Source: "T", Moves: "mbps"},
	// Median Send until the destination handler is invoked.
	{Name: "transport.deliver_p50_us", Unit: "us", Better: "lower", Source: "T", Moves: "op_p50_us"},
	{Name: "transport.deliver_us_per_op", Unit: "us", Better: "lower", Source: "T", Moves: "op_p50_us"},
	{Name: "realtime.chan_rtt_us", Unit: "us", Better: "lower", Source: "R", Moves: "op_p50_us"},
	{Name: "realtime.tcp_rtt_us", Unit: "us", Better: "lower", Source: "R", Moves: "op_p50_us"},
	// Nvmeof capsule codec.
	{Name: "realtime.tcp_64k_mbps", Unit: "MB/s", Better: "higher", Source: "R", Moves: "mbps"},
	{Name: "nvmeof.encode_ns", Unit: "ns", Better: "lower", Source: "R", Moves: "cpu_us_per_op"},
	{Name: "nvmeof.decode_ns", Unit: "ns", Better: "lower", Source: "R", Moves: "cpu_us_per_op"},
	{Name: "nvmeof.encode_epoch_ns", Unit: "ns", Better: "lower", Source: "R", Moves: "cpu_us_per_op"},
	{Name: "nvmeof.decode_epoch_ns", Unit: "ns", Better: "lower", Source: "R", Moves: "cpu_us_per_op"},
	// Drive (realtime.MemDrive).
	{Name: "nvmeof.encode_allocs", Unit: "count", Better: "lower", Source: "R", Moves: "allocs_per_op"},
	{Name: "drive.ops_per_op", Unit: "count", Better: "lower", Source: "T", Moves: "drive_bytes_per_user_byte"},
	{Name: "drive.read_bytes_per_user_byte", Unit: "ratio", Better: "lower", Source: "T", Moves: "drive_bytes_per_user_byte"},
	{Name: "drive.write_bytes_per_user_byte", Unit: "ratio", Better: "lower", Source: "T", Moves: "drive_bytes_per_user_byte"},
	// Median drive Read/Write call until its callback.
	{Name: "drive.svc_p50_us", Unit: "us", Better: "lower", Source: "T", Moves: "op_p50_us"},
	{Name: "drive.us_per_op", Unit: "us", Better: "lower", Source: "T", Moves: "op_p50_us"},
	{Name: "memdrive.read_64k_us", Unit: "us", Better: "lower", Source: "R", Moves: "mbps"},
	{Name: "memdrive.write_64k_us", Unit: "us", Better: "lower", Source: "R", Moves: "mbps"},
	// Gf256 / parity kernels.
	{Name: "memdrive.read_alloc_bytes", Unit: "B", Better: "lower", Source: "R", Moves: "alloc_bytes_per_user_byte"},
	{Name: "gf256.xor_64k_gbps", Unit: "GB/s", Better: "higher", Source: "R", Moves: "mbps, cpu_us_per_op"},
	{Name: "gf256.muladd_64k_gbps", Unit: "GB/s", Better: "higher", Source: "R", Moves: "mbps, cpu_us_per_op"},
	{Name: "gf256.syndrome_pq_64k_gbps", Unit: "GB/s", Better: "higher", Source: "R", Moves: "mbps, cpu_us_per_op"},
	{Name: "parity.compute_p_7x64k_us", Unit: "us", Better: "lower", Source: "R", Moves: "mbps, cpu_us_per_op"},
	// Raid / placement address arithmetic.
	{Name: "parity.pool_get_put_ns", Unit: "ns", Better: "lower", Source: "R", Moves: "cpu_us_per_op"},
	{Name: "raid.split_ns", Unit: "ns", Better: "lower", Source: "R", Moves: "cpu_us_per_op"},
	{Name: "placement.fixed_lookup_ns", Unit: "ns", Better: "lower", Source: "R", Moves: "cpu_us_per_op"},
	// Sim / simnet / ssd.
	{Name: "placement.declustered_lookup_ns", Unit: "ns", Better: "lower", Source: "R", Moves: "cpu_us_per_op"},
	{Name: "sim.engine_events_per_s", Unit: "events/s", Better: "higher", Source: "R", Moves: "mbps, cpu_us_per_op"},
	{Name: "simnet.msgs_per_s", Unit: "1/s", Better: "higher", Source: "R", Moves: "mbps, cpu_us_per_op"},
	{Name: "ssd.ops_per_s", Unit: "1/s", Better: "higher", Source: "R", Moves: "mbps, cpu_us_per_op"},
	// Engine.Processed() over the three measured windows per wall second.
	{Name: "sim.events_per_s", Unit: "events/s", Better: "higher", Source: "run", Moves: "mbps"},
	{Name: "sim.wall_s_per_virtual_s", Unit: "ratio", Better: "lower", Source: "run", Moves: "mbps"},
	// Phase 1 simulated goodput, virtual time; exact per seed.
	{Name: "sim.write_mbps", Unit: "MB/s", Better: "higher", Source: "run", Moves: "none", Exact: true},
	// Phase 2 simulated goodput, virtual time; exact per seed.
	{Name: "sim.smallwrite_mbps", Unit: "MB/s", Better: "higher", Source: "run", Moves: "none", Exact: true},
	// Phase 3 simulated goodput, virtual time; exact per seed.
	{Name: "sim.dread_mbps", Unit: "MB/s", Better: "higher", Source: "run", Moves: "none", Exact: true},
	{Name: "simmodel.write.host_nic_out_per_user_byte", Unit: "ratio", Better: "lower", Source: "run", Exact: true, Moves: "host_nic_bytes_per_user_byte"},
	{Name: "simmodel.write.events_per_user_op", Unit: "count", Better: "lower", Source: "run", Exact: true, Moves: "cpu_us_per_op"},
	{Name: "simmodel.smallwrite.host_nic_out_per_user_byte", Unit: "ratio", Better: "lower", Source: "run", Exact: true, Moves: "host_nic_bytes_per_user_byte"},
	{Name: "simmodel.smallwrite.events_per_user_op", Unit: "count", Better: "lower", Source: "run", Exact: true, Moves: "cpu_us_per_op"},
	{Name: "simmodel.dread.host_nic_out_per_user_byte", Unit: "ratio", Better: "lower", Source: "run", Exact: true, Moves: "host_nic_bytes_per_user_byte"},
	// Go runtime, untraced window.
	{Name: "simmodel.dread.events_per_user_op", Unit: "count", Better: "lower", Source: "run", Exact: true, Moves: "cpu_us_per_op"},
	{Name: "go.gc_cpu_share", Unit: "ratio", Better: "lower", Source: "run", Moves: "cpu_us_per_op, mbps"},
	// The benchmark itself.
	{Name: "go.gc_cycles_per_kop", Unit: "count", Better: "lower", Source: "run", Moves: "cpu_us_per_op, mbps"},
	// Traced over untraced cpu_us_per_op, minus 1.
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Source: "T", Moves: "none"},
	// Generator + verifier self time per user op, untraced window.
	{Name: "gen.us_per_op", Unit: "us", Better: "lower", Source: "run", Moves: "none"},
}

// manifest is BENCHMARK.json: exactly the keys the driver's contract names.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestLayer  `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one run measures when the driver passes the
// manifest's value: five 3 s slices. The driver makes 136 runs inside 57
// minutes, so a run with its set-ups, warm-up and read-back has to stay
// well under 25 s.
const runSeconds = 15

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

// writeManifest renders BENCHMARK.json at path. The file is only ever
// written by this function, never by hand.
func writeManifest(path string) error {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

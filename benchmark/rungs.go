package main

import (
	"fmt"
	"sync"
	"time"

	"draid/internal/backend"
	"draid/internal/backend/realtime"
	"draid/internal/gf256"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/placement"
	"draid/internal/sim"
	"draid/internal/simnet"
	"draid/internal/ssd"
)

// Rungs are fixed-iteration timed calls straight into one layer's exported
// functions, at the shapes the workloads use. Each is repeated rungReps
// times and the median is reported, so a rung costs the same wall time on
// every run and does not depend on the workload.
const rungReps = 3

// sink keeps the compiler from discarding a rung's work.
var sink int

// timed runs fn rungReps times and returns the median seconds per run and
// the Go heap objects and bytes one run allocated.
func timed(fn func()) (seconds, objects, bytes float64) {
	var ts, os, bs []float64
	for r := 0; r < rungReps; r++ {
		g0, t0 := readGoCounters(), time.Now()
		fn()
		ts = append(ts, time.Since(t0).Seconds())
		g := readGoCounters().sub(g0)
		os = append(os, g.allocObjects)
		bs = append(bs, g.allocBytes)
	}
	return median(ts), median(os), median(bs)
}

// runRungs fills in every rung metric.
func runRungs(res *result) error {
	rungKernels(res)
	rungCodec(res)
	rungAddressing(res)
	rungSim(res)
	rungMemDrive(res)
	return rungTransports(res)
}

func rungKernels(res *result) {
	const n, iters = rtChunk, 2000
	chunks := make([][]byte, rtDrives-1)
	bufs := make([]parity.Buffer, len(chunks))
	for i := range chunks {
		chunks[i] = make([]byte, n)
		fillBlock(chunks[i][:blockSize], uint64(i+1))
		bufs[i] = parity.FromBytes(chunks[i])
	}
	dst, p, q := make([]byte, n), make([]byte, n), make([]byte, n)
	gbps := func(bytes int, s float64) float64 { return float64(bytes) * iters / s / 1e9 }

	s, _, _ := timed(func() {
		for i := 0; i < iters; i++ {
			gf256.XORSlice(dst, chunks[i%len(chunks)])
		}
	})
	res.set("gf256.xor_64k_gbps", gbps(n, s), rungReps)
	s, _, _ = timed(func() {
		for i := 0; i < iters; i++ {
			gf256.MulAddSlice(dst, chunks[i%len(chunks)], byte(i%254+2))
		}
	})
	res.set("gf256.muladd_64k_gbps", gbps(n, s), rungReps)
	s, _, _ = timed(func() {
		for i := 0; i < iters; i++ {
			gf256.SyndromePQ(p, q, chunks)
		}
	})
	res.set("gf256.syndrome_pq_64k_gbps", gbps(n*len(chunks), s), rungReps)
	s, _, _ = timed(func() {
		for i := 0; i < iters; i++ {
			sink += parity.ComputeP(bufs).Len()
		}
	})
	res.set("parity.compute_p_7x64k_us", s/iters*1e6, rungReps)
	pool := parity.NewPool()
	pool.Put(pool.Get(n))
	const poolIters = 20000
	s, _, _ = timed(func() {
		for i := 0; i < poolIters; i++ {
			pool.Put(pool.Get(n))
		}
	})
	res.set("parity.pool_get_put_ns", s/poolIters*1e9, rungReps)
}

func rungCodec(res *result) {
	const iters = 200000
	cmd := nvmeof.Command{ID: 42, Opcode: nvmeof.OpPartialWrite, NSID: 0, Offset: 1 << 20, Length: 4096,
		Subtype: nvmeof.SubRMW, FwdOffset: 8192, FwdLength: 4096, NextDest: 3, WaitNum: 1}
	for _, v := range []struct {
		suffix string
		epoch  uint64
	}{{"", 0}, {"_epoch", 7}} {
		c := cmd
		c.Epoch = v.epoch
		s, objs, _ := timed(func() {
			for i := 0; i < iters; i++ {
				sink += len(c.Encode())
			}
		})
		res.set("nvmeof.encode"+v.suffix+"_ns", s/iters*1e9, rungReps)
		if v.epoch == 0 {
			res.set("nvmeof.encode_allocs", objs/iters, rungReps)
		}
		wire := c.Encode()
		s, _, _ = timed(func() {
			for i := 0; i < iters; i++ {
				d, err := nvmeof.Decode(wire)
				if err != nil {
					panic(err) // our own encoding must decode
				}
				sink += int(d.ID)
			}
		})
		res.set("nvmeof.decode"+v.suffix+"_ns", s/iters*1e9, rungReps)
	}
}

func rungAddressing(res *result) {
	const iters = 200000
	size := rtGeometry.VirtualSize(rtDriveCap)
	s, _, _ := timed(func() {
		for i := 0; i < iters; i++ {
			off := int64(i) * 4096 * 7919 % (size - 4096)
			sink += len(rtGeometry.Split(off&^4095, 4096))
		}
	})
	res.set("raid.split_ns", s/iters*1e9, rungReps)

	lookup := func(l placement.Layout) float64 {
		stripes := l.Stripes()
		s, _, _ := timed(func() {
			for i := 0; i < iters; i++ {
				stripe := int64(i) * 7919 % stripes
				sink += l.Drive(stripe, i%l.Width()) + int(l.StripeBase(stripe))
			}
		})
		return s / iters * 1e9
	}
	res.set("placement.fixed_lookup_ns", lookup(placement.NewFixed(0, rtChunk, rtDrives, rtDriveCap)), rungReps)
	decl, err := placement.NewDeclustered(0, rtDriveCap, rtChunk, rtDrives, rtDrives+4, 1)
	if err != nil {
		panic(err) // constant, valid arguments
	}
	res.set("placement.declustered_lookup_ns", lookup(decl), rungReps)
}

func rungSim(res *result) {
	const events = 300000
	s, _, _ := timed(func() {
		eng := sim.NewEngine(1)
		left := events
		var tick func()
		tick = func() {
			if left--; left > 0 {
				eng.After(sim.Microsecond, tick)
			}
		}
		for i := 0; i < 32; i++ { // 32 concurrent chains, the sim phases' queue depth
			eng.After(sim.Duration(i), tick)
		}
		eng.Run()
		sink += int(eng.Processed())
	})
	res.set("sim.engine_events_per_s", events/s, rungReps)

	const msgs = 100000
	s, _, _ = timed(func() {
		eng := sim.NewEngine(1)
		net := simnet.New(eng, simnet.DefaultConfig())
		a, b := net.NewNode("a"), net.NewNode("b")
		a.AddNIC("nic0", 100)
		b.AddNIC("nic0", 100)
		conn := net.Connect(a, b)
		left := msgs
		var send func()
		send = func() {
			if left--; left >= 0 {
				conn.Send(a, 4096, send)
			}
		}
		for i := 0; i < 32; i++ {
			send()
		}
		eng.Run()
	})
	res.set("simnet.msgs_per_s", msgs/s, rungReps)

	const driveOps = 100000
	s, _, _ = timed(func() {
		eng := sim.NewEngine(1)
		spec := ssd.DefaultSpec()
		spec.StoreData = false
		d := ssd.New(eng, spec)
		left := driveOps
		var next func(parity.Buffer, error)
		next = func(parity.Buffer, error) {
			if left--; left >= 0 {
				d.Read(int64(left)*4096, 4096, next)
			}
		}
		for i := 0; i < 32; i++ {
			next(parity.Buffer{}, nil)
		}
		eng.Run()
	})
	res.set("ssd.ops_per_s", driveOps/s, rungReps)
}

func rungMemDrive(res *result) {
	const ops = 4000
	rb := realtime.NewBed(1, 1)
	defer rb.Close() //nolint:errcheck // always nil
	d := realtime.NewMemDrive(rb.NodeRuntime(0), rtDriveCap, true)
	payload := parity.Alloc(rtChunk)
	slots := int64(rtDriveCap / rtChunk)
	// chain runs ops back to back, each issued from the previous callback.
	chain := func(issue func(i int64, done func())) func() {
		return func() {
			var wg sync.WaitGroup
			wg.Add(1)
			var step func(i int64)
			step = func(i int64) {
				if i == ops {
					wg.Done()
					return
				}
				issue(i, func() { step(i + 1) })
			}
			step(0)
			wg.Wait()
		}
	}
	s, _, _ := timed(chain(func(i int64, done func()) {
		d.Write(i%slots*rtChunk, payload, func(error) { done() })
	}))
	res.set("memdrive.write_64k_us", s/ops*1e6, rungReps)
	s, _, bytes := timed(chain(func(i int64, done func()) {
		d.Read(i%slots*rtChunk, rtChunk, func(parity.Buffer, error) { done() })
	}))
	res.set("memdrive.read_64k_us", s/ops*1e6, rungReps)
	res.set("memdrive.read_alloc_bytes", bytes/ops, rungReps)
}

// pingPong measures a transport: the host sends count capsules carrying
// payload to target 0 with window in flight; target 0 answers each with an
// empty completion. It returns the seconds one such exchange of count took.
func pingPong(rb *realtime.Bed, fab backend.Transport, count, window int, payload parity.Buffer) float64 {
	fab.Register(0, func(m backend.Message) {
		fab.Send(0, backend.HostID, nvmeof.Command{ID: m.Cmd.ID, Opcode: nvmeof.OpCompletion}, parity.Buffer{})
	})
	var wg sync.WaitGroup
	sent := 0 // host loop only
	send := func() {
		sent++
		fab.Send(backend.HostID, 0, nvmeof.Command{ID: uint64(sent), Opcode: nvmeof.OpWrite, Length: int64(payload.Len())}, payload)
	}
	fab.RegisterVolume(backend.HostID, 0, func(backend.Message) {
		if sent < count {
			send()
		} else {
			wg.Done()
		}
	})
	s, _, _ := timed(func() {
		wg.Add(window)
		rb.Call(func() {
			sent = 0
			for i := 0; i < window; i++ {
				send()
			}
		})
		wg.Wait()
	})
	return s
}

func rungTransports(res *result) error {
	const rtts = 10000
	rb := realtime.NewBed(1, 1)
	defer rb.Close() //nolint:errcheck // always nil
	s := pingPong(rb, realtime.NewChanTransport(rb, 1), rtts, 1, parity.Buffer{})
	res.set("realtime.chan_rtt_us", s/rtts*1e6, rungReps)

	tb := realtime.NewBed(1, 1)
	defer tb.Close() //nolint:errcheck // always nil
	tcp, err := realtime.NewTCPTransport(tb, 1)
	if err != nil {
		return fmt.Errorf("tcp rung: %w", err)
	}
	defer tcp.Close() //nolint:errcheck // rung results are already taken
	s = pingPong(tb, tcp, rtts, 1, parity.Buffer{})
	res.set("realtime.tcp_rtt_us", s/rtts*1e6, rungReps)
	const bulk = 3000
	s = pingPong(tb, tcp, bulk, 4, parity.Alloc(rtChunk))
	res.set("realtime.tcp_64k_mbps", float64(bulk)*rtChunk/s/1e6, rungReps)
	return nil
}

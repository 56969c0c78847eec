package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"draid"
	"draid/internal/backend"
	"draid/internal/parity"
	"draid/internal/raid"
)

var rtGeometry = raid.Geometry{Level: raid.Raid5, Width: rtDrives, ChunkSize: rtChunk}

// blockDevice is the user-facing surface the closed loop drives. draid.Array
// satisfies it; so does the traced assembly's device decorator.
type blockDevice interface {
	Size() int64
	Read(off, n int64, cb func([]byte, error))
	Write(off int64, data []byte, cb func(error))
}

// bed is one assembled realtime array plus the outside-in counters the
// benchmark reads from it.
type bed struct {
	dev       blockDevice
	drives    []backend.Drive
	hostBytes func() (out, in int64)
	fail      func(member int)
	close     func() error
}

// rtConfig is the array every rt-* workload runs on.
func rtConfig(w workload, seed int64) draid.Config {
	return draid.Config{
		Backend: draid.BackendRealtime, Realtime: draid.RealtimeOptions{TCP: w.tcp},
		Level: draid.Raid5, Drives: rtDrives, ChunkSize: rtChunk, DriveCapacity: rtDriveCap,
		Seed: seed,
	}
}

// newArrayBed builds the array through the public draid.New path.
func newArrayBed(w workload, seed int64) (*bed, error) {
	arr, err := draid.New(rtConfig(w, seed))
	if err != nil {
		return nil, err
	}
	return &bed{
		dev: arr, drives: arr.Cluster().Drives,
		hostBytes: arr.HostTraffic, fail: arr.FailDrive, close: arr.Close,
	}, nil
}

// driveBytes sums the drives' completed read and write bytes and ops.
func (b *bed) driveBytes() (read, write, ops int64) {
	for _, d := range b.drives {
		st := d.Stats()
		read += st.ReadBytes
		write += st.WriteBytes
		ops += st.ReadOps + st.WriteOps
	}
	return
}

// setUp builds a bed, prefills the whole array with the shadow's version-0
// image by full-stripe writes (an empty sparse MemDrive keeps the live heap
// near zero, which is not what a populated array does), and fails the
// workload's member if it runs degraded. The elapsed time is setup_s.
func setUp(w workload, seed int64, build func(workload, int64) (*bed, error)) (*bed, *shadow, float64, error) {
	start := time.Now()
	b, err := build(w, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	sh := newShadow(seed, b.dev.Size())
	if err := prefill(b.dev, sh); err != nil {
		_ = b.close() // the prefill error is the one to report
		return nil, nil, 0, err
	}
	if w.degraded {
		b.fail(failedDrive)
	}
	return b, sh, time.Since(start).Seconds(), nil
}

// prefill writes every stripe once, inFlight sequential writers each
// walking its own share of the array.
func prefill(dev blockDevice, sh *shadow) error {
	stripes := dev.Size() / rtStripe
	var wg sync.WaitGroup
	errs := make([]error, inFlight)
	for i := 0; i < inFlight; i++ {
		lo, hi := stripes*int64(i)/inFlight, stripes*int64(i+1)/inFlight
		buf := make([]byte, rtStripe)
		wg.Add(1)
		var step func(s int64)
		i := i
		step = func(s int64) {
			if s == hi || errs[i] != nil {
				wg.Done()
				return
			}
			sh.fill(buf, s*rtStripe)
			dev.Write(s*rtStripe, buf, func(err error) {
				if err != nil {
					errs[i] = fmt.Errorf("prefill stripe %d: %w", s, err)
				}
				step(s + 1)
			})
		}
		step(lo)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loopCounters are the closed loop's cumulative counters. The host loop
// writes them, the measuring goroutine reads them at slice boundaries.
type loopCounters struct {
	ops, bytes, failed atomic.Int64
	genNanos           atomic.Int64
}

// snapshot is one reading of everything that is sliced.
type snapshot struct {
	at         time.Time
	ops, bytes float64
	cpu        float64
	goc        goCounters
}

func (c *loopCounters) snap() snapshot {
	return snapshot{at: time.Now(), ops: float64(c.ops.Load()), bytes: float64(c.bytes.Load()),
		cpu: cpuSeconds(), goc: readGoCounters()}
}

// loopResult is what one closed-loop window measured.
type loopResult struct {
	snaps     []snapshot // slices+1 readings, the first at the window start
	readLat   []uint32   // ns, ascending
	writeLat  []uint32
	attempted int64
	failed    int64
	userBytes int64 // verified bytes of the whole window, drained
	genNanos  int64
	// hostNIC and drive are the outside-in byte counts of exactly the
	// window's ops: both ends are read with the array quiescent.
	hostNIC                            int64
	driveRead, driveWrite, driveOpsCnt int64
}

// client is one lane's closed loop: exactly one op in flight, the next
// issued from the completion callback on the host loop, as internal/fio
// does. Its callbacks are bound once, so steady state allocates nothing of
// its own.
type client struct {
	lane   *lane
	dev    blockDevice
	sh     *shadow
	c      *loopCounters
	stop   *atomic.Bool
	budget int64 // ops left to issue; negative means until stop
	done   func()
	buf    []byte
	op     userOp
	issued time.Time
	// latencies in ns, in completion order
	readLat, writeLat []uint32
	onRead            func([]byte, error)
	onWrite           func(error)
}

func newClient(l *lane, dev blockDevice, sh *shadow, c *loopCounters, stop *atomic.Bool, budget int64, done func()) *client {
	cl := &client{lane: l, dev: dev, sh: sh, c: c, stop: stop, budget: budget, done: done,
		buf:     make([]byte, l.ioSize),
		readLat: make([]uint32, 0, 1<<16), writeLat: make([]uint32, 0, 1<<16)}
	cl.onRead = func(data []byte, err error) {
		v0 := time.Now()
		ok := err == nil && sh.check(data, cl.op.off)
		c.genNanos.Add(int64(time.Since(v0)))
		cl.complete(ok, v0)
	}
	cl.onWrite = func(err error) { cl.complete(err == nil, time.Now()) }
	return cl
}

// issue draws the next op, makes its payload and sends it.
func (cl *client) issue() {
	if cl.stop.Load() || cl.budget == 0 {
		cl.done()
		return
	}
	cl.budget--
	g0 := time.Now()
	cl.op = cl.lane.next()
	if !cl.op.read {
		cl.sh.bump(cl.op.off, cl.lane.ioSize)
		cl.sh.fill(cl.buf, cl.op.off)
	}
	cl.issued = time.Now()
	cl.c.genNanos.Add(int64(cl.issued.Sub(g0)))
	if cl.op.read {
		cl.dev.Read(cl.op.off, cl.lane.ioSize, cl.onRead)
	} else {
		cl.dev.Write(cl.op.off, cl.buf, cl.onWrite)
	}
}

func (cl *client) complete(ok bool, at time.Time) {
	switch lat := uint32(at.Sub(cl.issued)); {
	case !ok:
		cl.c.failed.Add(1)
	case cl.op.read:
		cl.c.bytes.Add(cl.lane.ioSize)
		cl.readLat = append(cl.readLat, lat)
	default:
		cl.c.bytes.Add(cl.lane.ioSize)
		cl.writeLat = append(cl.writeLat, lat)
	}
	cl.c.ops.Add(1)
	cl.issue()
}

// closedLoop drives the bed with one client per lane for d, cut into n
// slices; with d zero it instead runs perLane ops on every lane. Every read
// is checked against the shadow as it completes. The window starts and ends
// with the array quiescent, so the outside-in byte counts belong to exactly
// the window's ops.
func closedLoop(b *bed, sh *shadow, lanes []*lane, d time.Duration, n int, perLane int64) *loopResult {
	var c loopCounters
	var stop atomic.Bool
	var wg sync.WaitGroup
	res := &loopResult{}

	out0, in0 := b.hostBytes()
	dr0, dw0, do0 := b.driveBytes()
	clients := make([]*client, len(lanes))
	for i, l := range lanes {
		budget := int64(-1)
		if d == 0 {
			budget = perLane
		}
		clients[i] = newClient(l, b.dev, sh, &c, &stop, budget, wg.Done)
	}
	wg.Add(len(clients))
	res.snaps = append(res.snaps, c.snap())
	for _, cl := range clients {
		cl.issue()
	}
	start := res.snaps[0].at
	for s := 1; s <= n && d > 0; s++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(s) / time.Duration(n))))
		res.snaps = append(res.snaps, c.snap())
	}
	if d > 0 {
		stop.Store(true)
	}
	wg.Wait()

	out1, in1 := b.hostBytes()
	dr1, dw1, do1 := b.driveBytes()
	res.hostNIC = out1 - out0 + in1 - in0
	res.driveRead, res.driveWrite, res.driveOpsCnt = dr1-dr0, dw1-dw0, do1-do0
	res.attempted, res.failed = c.ops.Load(), c.failed.Load()
	res.userBytes, res.genNanos = c.bytes.Load(), c.genNanos.Load()
	for _, cl := range clients {
		res.readLat = append(res.readLat, cl.readLat...)
		res.writeLat = append(res.writeLat, cl.writeLat...)
	}
	slices.Sort(res.readLat)
	slices.Sort(res.writeLat)
	return res
}

// readSync issues one read and waits for it.
func readSync(dev blockDevice, off, n int64) ([]byte, error) {
	var data []byte
	var err error
	done := make(chan struct{})
	dev.Read(off, n, func(d []byte, e error) { data, err = d, e; close(done) })
	<-done
	return data, err
}

// verify reads back every chunk the run wrote (version above 0) plus a seeded
// 1/16 sample of the chunks it did not, and compares them with the shadow. On a healthy
// array it also recomputes P over 256 seeded stripes straight from the
// drives. It returns how many checks it made and how many failed.
func verify(b *bed, w workload, sh *shadow, seed int64) (checked, bad int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	size := b.dev.Size()
	for off := int64(0); off < size; off += rtChunk {
		want := false
		for blk := off / blockSize; blk < (off+rtChunk)/blockSize && !want; blk++ {
			want = sh.versions[blk] > 0
		}
		if !want && rng.Intn(16) != 0 {
			continue
		}
		checked++
		data, err := readSync(b.dev, off, rtChunk)
		if err != nil || !sh.check(data, off) {
			bad++
		}
	}
	if w.degraded {
		return checked, bad
	}
	stripes := size / rtStripe
	for i := 0; i < 256; i++ {
		stripe := rng.Int63n(stripes)
		off := rtGeometry.DriveOffset(stripe)
		chunks := make([]parity.Buffer, 0, rtGeometry.DataChunks())
		for k := 0; k < rtGeometry.DataChunks(); k++ {
			chunks = append(chunks, parity.FromBytes(b.drives[rtGeometry.DataDrive(stripe, k)].PeekSync(off, rtChunk)))
		}
		stored := parity.FromBytes(b.drives[rtGeometry.PDrive(stripe)].PeekSync(off, rtChunk))
		checked++
		if !parity.ComputeP(chunks).Equal(stored) {
			bad++
		}
	}
	return checked, bad
}

// Package ssd models an NVMe solid-state drive at the fidelity the dRAID
// evaluation needs: a finite service rate that reads and writes share, and a
// per-operation access latency that overlaps across queued operations. What
// the drive holds and how it fails — bytes, fail state, media errors, bit
// rot, latent errors, the grey-failure profile — is the backend.Medium it
// embeds, the same one the realtime drives run on; this package adds only
// time.
//
// Service time (size/rate) occupies the drive's internal bandwidth FIFO;
// access latency is added after service and does not consume bandwidth, so
// a deep queue reaches the drive's full rate — as on real NVMe.
package ssd

import (
	"fmt"

	"draid/internal/backend"
	"draid/internal/parity"
	"draid/internal/sim"
	"draid/internal/trace"
)

// Spec describes a drive model.
type Spec struct {
	Capacity     int64        // bytes
	ReadBps      int64        // sustained read, bytes/sec
	WriteBps     int64        // sustained write, bytes/sec
	ReadLatency  sim.Duration // per-op access latency (read)
	WriteLatency sim.Duration // per-op access latency (write)
	StoreData    bool         // keep real bytes (false ⇒ size-only payloads)
}

// DefaultSpec is calibrated to the paper's Dell Ent NVMe AGN MU 1.6 TB
// drives: ~19 Gbps (2.4 GB/s) writes, ~26 Gbps (3.2 GB/s) reads.
func DefaultSpec() Spec {
	return Spec{
		Capacity:     1600 << 30, // 1.6 TB
		ReadBps:      3200 << 20, // 3.2 GB/s
		WriteBps:     2375 << 20, // 2.375 GB/s ≈ 19 Gbps
		ReadLatency:  80 * sim.Microsecond,
		WriteLatency: 15 * sim.Microsecond,
		StoreData:    true,
	}
}

// Drive is one simulated SSD: the timing model over a backend.Medium. All
// methods must be called from engine callbacks (single-threaded simulation
// discipline).
//
// A slow profile scales the service rate and access latency by its factor —
// slowness serializes inside the device, so queue depth compounds it — while
// a stall delays completions without consuming bandwidth.
type Drive struct {
	*backend.Medium
	eng  *sim.Engine
	spec Spec
	busy sim.Time // FIFO bandwidth reservation
	// inflight counts submitted-but-incomplete operations (queue depth).
	inflight int
	tracer   *trace.Collector
	track    trace.Track
	// free holds op records no operation is using.
	free []*op
}

// SetTracer enables per-operation service spans on the given track and a
// queue-depth gauge; nil disables.
func (d *Drive) SetTracer(c *trace.Collector, tr trace.Track) {
	d.tracer, d.track = c, tr
	if c.Enabled() {
		c.AddGauge(tr, "queue depth", func() float64 { return float64(d.inflight) })
	}
}

// New creates a drive.
func New(eng *sim.Engine, spec Spec) *Drive {
	if spec.Capacity <= 0 || spec.ReadBps <= 0 || spec.WriteBps <= 0 {
		panic(fmt.Sprintf("ssd: invalid spec %+v", spec))
	}
	return &Drive{Medium: backend.NewMedium(eng.Now, spec.Capacity, spec.StoreData), eng: eng, spec: spec}
}

// issue admits an op of size bytes at the given rate and access latency and
// reserves its service: it returns when service starts and when the op
// completes, or false on a failed drive (the op never completes).
func (d *Drive) issue(size, rate int64, lat sim.Duration) (start, end sim.Time, ok bool) {
	slow, ok := d.Admit()
	if !ok {
		return 0, 0, false
	}
	if slow.Factor > 1 {
		rate = int64(float64(rate) / slow.Factor)
		lat = sim.Duration(float64(lat) * slow.Factor)
	}
	start = max(d.eng.Now(), d.busy)
	d.busy = start + sim.Time(float64(size)/(float64(rate)/1e9))
	d.inflight++
	return start, d.busy + sim.Time(lat) + sim.Time(slow.Stall), true
}

// opKind names what an op does when it completes.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opTrim
)

// op is one drive operation on its way to completion. Records are pooled by
// the drive and runFn is bound once, so an op allocates no closure; the drive
// makes the same Defer/At/After calls at the same times as it would for one.
type op struct {
	d          *Drive
	kind       opKind
	off, n     int64
	start, end sim.Time      // service start and completion, for the trace span
	b          parity.Buffer // a write's snapshot
	err        error         // a range error, delivered as is
	readCB     func(parity.Buffer, error)
	doneCB     func(error)
	runFn      func()
}

func (d *Drive) newOp(kind opKind, off, n int64) *op {
	var o *op
	if k := len(d.free); k > 0 {
		o = d.free[k-1]
		d.free = d.free[:k-1]
	} else {
		o = &op{d: d}
		o.runFn = o.run
	}
	o.kind, o.off, o.n = kind, off, n
	return o
}

// run completes o. The record is freed before the callback, which may well
// issue the next op.
func (o *op) run() {
	d, kind, off, n, start, end, b, err, readCB, doneCB := o.d, o.kind, o.off, o.n, o.start, o.end, o.b, o.err, o.readCB, o.doneCB
	*o = op{d: d, runFn: o.runFn}
	d.free = append(d.free, o)
	if err != nil {
		if readCB != nil {
			readCB(parity.Buffer{}, err)
		} else {
			doneCB(err)
		}
		return
	}
	d.inflight--
	var ok bool
	switch kind {
	case opRead:
		if b, ok, err = d.Medium.Read(off, n, nil); ok {
			d.span("read", start, end, n)
			readCB(b, err)
		}
	case opWrite:
		if ok, err = d.Medium.Write(off, b); ok {
			d.span("write", start, end, n)
			doneCB(err)
		}
	default:
		if ok, err = d.Medium.Trim(off, n); ok {
			doneCB(err)
		}
	}
}

// span records one op's service span when tracing.
func (d *Drive) span(name string, start, end sim.Time, n int64) {
	if t := d.tracer; t.Enabled() {
		t.Span(d.track, "drive", name, start, end, trace.I64("bytes", n))
	}
}

// Read fetches n bytes at off. cb receives the payload (zeros for
// never-written ranges; elided when StoreData is false).
func (d *Drive) Read(off, n int64, cb func(parity.Buffer, error)) {
	if err := d.Check(off, n); err != nil {
		o := d.newOp(opRead, off, n)
		o.readCB, o.err = cb, err
		d.eng.Defer(o.runFn)
		return
	}
	start, end, ok := d.issue(n, d.spec.ReadBps, d.spec.ReadLatency)
	if !ok {
		return
	}
	o := d.newOp(opRead, off, n)
	o.readCB, o.start, o.end = cb, start, end
	d.eng.At(end, o.runFn)
}

// Write persists b at off. cb receives nil on success.
func (d *Drive) Write(off int64, b parity.Buffer, cb func(error)) {
	n := int64(b.Len())
	if err := d.Check(off, n); err != nil {
		o := d.newOp(opWrite, off, n)
		o.doneCB, o.err = cb, err
		d.eng.Defer(o.runFn)
		return
	}
	start, end, ok := d.issue(n, d.spec.WriteBps, d.spec.WriteLatency)
	if !ok {
		return
	}
	o := d.newOp(opWrite, off, n)
	o.doneCB, o.start, o.end = cb, start, end
	// Capture payload bytes at submission time (DMA semantics): the caller
	// may reuse its buffer immediately after Write returns.
	o.b = parity.Sized(int(n))
	if d.StoresData() && !b.Elided() {
		o.b = parity.FromBytes(append([]byte(nil), b.Data()...))
	}
	d.eng.At(end, o.runFn)
}

// Trim discards [off, off+n): subsequent reads return zeros. Modeled as a
// metadata operation — per-op write latency, no bandwidth reservation, no
// slow profile. Like a write, it clears media-error and rot state over its
// range.
func (d *Drive) Trim(off, n int64, cb func(error)) {
	if err := d.Check(off, n); err != nil {
		o := d.newOp(opTrim, off, n)
		o.doneCB, o.err = cb, err
		d.eng.Defer(o.runFn)
		return
	}
	if d.Failed() {
		return
	}
	d.inflight++
	o := d.newOp(opTrim, off, n)
	o.doneCB = cb
	d.eng.After(d.spec.WriteLatency, o.runFn)
}

var _ backend.Drive = (*Drive)(nil)

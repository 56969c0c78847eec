// Package fio is a flexible I/O tester for asynchronous block devices, modelled
// on the tool the paper evaluates with: random reads/writes of a fixed I/O
// size at a fixed queue depth (closed loop), with a ramp-up window excluded
// from measurement, reporting bandwidth, IOPS, and latency percentiles.
package fio

import (
	"fmt"
	"math/rand"

	"draid/internal/blockdev"
	"draid/internal/hist"
	"draid/internal/parity"
	"draid/internal/sim"
)

// Engine is the clock/scheduler surface fio needs: the simulation engine or
// a realtime backend runner. Call marshals a function into the device's
// callback context (inline on the simulation), which Start uses so the
// closed loop's state is only ever touched from that context.
type Engine interface {
	Now() sim.Time
	RunUntil(t sim.Time)
	Call(fn func())
}

// Job describes one benchmark run.
type Job struct {
	Name string
	Dev  blockdev.Device
	Eng  Engine
	// IOSize is the per-operation transfer size in bytes.
	IOSize int64
	// ReadRatio in [0,1]: fraction of operations that are reads.
	ReadRatio float64
	// QueueDepth is the number of operations kept in flight (closed loop).
	QueueDepth int
	// Ramp is excluded from measurement; Measure is the recorded window.
	Ramp    sim.Duration
	Measure sim.Duration
	// WorkingSet restricts offsets to [0, WorkingSet); 0 means the whole
	// device.
	WorkingSet int64
	// Align overrides offset alignment (default IOSize).
	Align int64
	// Seed drives offset/op randomness (default 1).
	Seed int64
	// Materialize sends real random payloads instead of size-only buffers.
	Materialize bool
	// Sequential issues offsets front to back (wrapping) instead of
	// randomly — the streaming-writer tenant profile.
	Sequential bool
}

// Result summarizes a run.
type Result struct {
	Name       string
	ReadBytes  int64
	WriteBytes int64
	ReadOps    int64
	WriteOps   int64
	Elapsed    sim.Duration
	ReadLat    hist.Summary
	WriteLat   hist.Summary
	Errors     int64
}

// BandwidthMBps returns total goodput in MB/s (10^6 bytes per second).
func (r Result) BandwidthMBps() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.ReadBytes+r.WriteBytes) / 1e6 / sim.Seconds(r.Elapsed)
}

// ReadBandwidthMBps returns read goodput in MB/s.
func (r Result) ReadBandwidthMBps() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.ReadBytes) / 1e6 / sim.Seconds(r.Elapsed)
}

// WriteBandwidthMBps returns write goodput in MB/s.
func (r Result) WriteBandwidthMBps() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.WriteBytes) / 1e6 / sim.Seconds(r.Elapsed)
}

// IOPS returns total operations per second.
func (r Result) IOPS() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.ReadOps+r.WriteOps) / sim.Seconds(r.Elapsed)
}

// AvgLatency returns the mean latency in microseconds across ops.
func (r Result) AvgLatency() float64 {
	n := r.ReadLat.Count + r.WriteLat.Count
	if n == 0 {
		return 0
	}
	sum := r.ReadLat.Mean*float64(r.ReadLat.Count) + r.WriteLat.Mean*float64(r.WriteLat.Count)
	return sum / float64(n) / 1e3
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%-12s bw=%8.1f MB/s iops=%9.0f lat=%7.1fus (r: %s | w: %s)",
		r.Name, r.BandwidthMBps(), r.IOPS(), r.AvgLatency(), r.ReadLat, r.WriteLat)
}

// Running is a started job whose closed loop is live on the engine. It
// exists so several jobs can run concurrently on one engine — start each,
// advance the clock past End (e.g. eng.RunUntil), then collect Result.
type Running struct {
	// End is the virtual time at which the job stops issuing.
	End sim.Time

	res      Result
	readLat  *hist.Histogram
	writeLat *hist.Histogram
}

// Result finalizes and returns the job's measurements. Call after the
// engine clock has passed End.
func (r *Running) Result() Result {
	res := r.res
	res.ReadLat = r.readLat.Summarize()
	res.WriteLat = r.writeLat.Summarize()
	return res
}

// Run executes the job on the engine (which must be otherwise idle) and
// returns the measured result. The engine clock advances by Ramp+Measure.
func Run(job Job) Result {
	r := Start(job)
	job.Eng.RunUntil(r.End)
	// Collect inside Call: on a realtime backend, stragglers completing
	// after End still invoke record on the device's loop.
	var res Result
	job.Eng.Call(func() { res = r.Result() })
	return res
}

// Start launches the job's closed loop without running the engine, so
// multiple tenants can issue I/O concurrently on one shared clock.
func Start(job Job) *Running {
	if job.QueueDepth <= 0 {
		job.QueueDepth = 32
	}
	if job.IOSize <= 0 {
		panic("fio: IOSize must be positive")
	}
	if job.Seed == 0 {
		job.Seed = 1
	}
	align := job.Align
	if align <= 0 {
		align = job.IOSize
	}
	span := job.WorkingSet
	if span <= 0 || span > job.Dev.Size() {
		span = job.Dev.Size()
	}
	slots := (span - job.IOSize) / align
	if slots <= 0 {
		panic(fmt.Sprintf("fio: device too small for IOSize %d", job.IOSize))
	}
	rng := rand.New(rand.NewSource(job.Seed))
	eng := job.Eng

	start := eng.Now()
	measureStart := start + sim.Time(job.Ramp)
	end := measureStart + sim.Time(job.Measure)

	running := &Running{
		End:     end,
		res:     Result{Name: job.Name, Elapsed: job.Measure},
		readLat: hist.New(), writeLat: hist.New(),
	}
	res := &running.res
	readLat := running.readLat
	writeLat := running.writeLat

	var payload parity.Buffer
	if job.Materialize {
		raw := make([]byte, job.IOSize)
		rng.Read(raw)
		payload = parity.FromBytes(raw)
	} else {
		payload = parity.Sized(int(job.IOSize))
	}

	var seqCursor int64
	var issue func()
	issue = func() {
		if eng.Now() >= end {
			return
		}
		var off int64
		if job.Sequential {
			off = seqCursor * align
			seqCursor = (seqCursor + 1) % slots
		} else {
			off = rng.Int63n(slots) * align
		}
		issued := eng.Now()
		record := func(isRead bool, err error) {
			now := eng.Now()
			if err != nil {
				res.Errors++
			} else if now > measureStart && now <= end {
				lat := int64(now - issued)
				if isRead {
					res.ReadBytes += job.IOSize
					res.ReadOps++
					readLat.Record(lat)
				} else {
					res.WriteBytes += job.IOSize
					res.WriteOps++
					writeLat.Record(lat)
				}
			}
			issue()
		}
		if rng.Float64() < job.ReadRatio {
			job.Dev.Read(off, job.IOSize, func(b parity.Buffer, err error) {
				b.Release()
				record(true, err)
			})
		} else {
			job.Dev.Write(off, payload, func(err error) { record(false, err) })
		}
	}
	// Issue the initial window from the device's callback context, so the
	// loop state (rng, cursors, counters) has a single owner. Inline on the
	// simulation.
	eng.Call(func() {
		for i := 0; i < job.QueueDepth; i++ {
			issue()
		}
	})
	return running
}

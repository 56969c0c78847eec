package experiments

import (
	"fmt"

	"draid/internal/backend"
	"draid/internal/blobfs"
	"draid/internal/blockdev"
	"draid/internal/cluster"
	"draid/internal/hist"
	"draid/internal/kvstore"
	"draid/internal/objstore"
	"draid/internal/parity"
	"draid/internal/sim"
	"draid/internal/ycsb"
)

// AppResult is one application benchmark measurement.
type AppResult struct {
	System   string
	Workload string
	KIOPS    float64
	AvgLatUs float64
}

// appWorkloads are the paper's §9.6 selection (A, B, C, D, F).
var appWorkloads = []ycsb.Workload{
	ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadD, ycsb.WorkloadF,
}

// AppStore is one of the paper's §9.6 application stacks: the dataset a YCSB
// point loads into it and how to open it over a block device.
type AppStore struct {
	// keys is the loaded dataset; the load keeps batch puts in flight.
	keys, batch uint64
	// uniform overrides each workload's request distribution (the paper
	// tunes the object-store runs to uniform keys).
	uniform bool
	open    func(rt backend.Runner, dev blockdev.Device) (appOps, error)
}

// appOps are a store's operations as the YCSB loop issues them. All of them
// run inside the runtime's execution domain.
type appOps struct {
	get, put func(key uint64, cb func(error))
	// scan is nil where a store has no range read: a scan is then a get.
	scan func(key uint64, n int, cb func(error))
	// settle, when set, runs after the load's last put.
	settle func()
}

// ObjectStore is the §9.6 object store: 128 KB objects in a hash store
// directly on the block layer (20 000 of them, scaled from the paper's 200K
// to keep the load fast), uniform key distribution.
var ObjectStore = AppStore{
	keys: 20000, batch: 64, uniform: true,
	open: func(rt backend.Runner, dev blockdev.Device) (appOps, error) {
		const objSize = 128 << 10
		store := objstore.New(rt, dev, objSize)
		return appOps{
			get: func(key uint64, cb func(error)) {
				store.Get(key, func(b parity.Buffer, err error) {
					b.Release()
					cb(err)
				})
			},
			put: func(key uint64, cb func(error)) {
				store.Put(key, parity.Sized(objSize), cb)
			},
		}, nil
	},
}

// KVStore is the §9.6 RocksDB stand-in: the LSM store on BlobFS, 50 000
// records of 1 KB, zipfian/latest distributions as each workload specifies.
var KVStore = AppStore{
	keys: 50000, batch: 256,
	open: func(rt backend.Runner, dev blockdev.Device) (appOps, error) {
		db, err := kvstore.Open(rt, blobfs.New(rt, dev), kvstore.Config{})
		if err != nil {
			return appOps{}, err
		}
		return appOps{
			get: func(key uint64, cb func(error)) {
				db.Get(key, func(_ parity.Buffer, err error) {
					if err == kvstore.ErrNotFound {
						err = nil // unloaded insert-range key; count the probe
					}
					cb(err)
				})
			},
			put: func(key uint64, cb func(error)) {
				db.Put(key, parity.Sized(1000), cb)
			},
			scan: func(key uint64, n int, cb func(error)) {
				db.Scan(key, n, func(_ int, err error) { cb(err) })
			},
			settle: db.Flush,
		}, nil
	},
}

// failMember fails target m end to end and tells dev's controller, in the
// controller's execution domain (inline on the simulation).
func failMember(cl *cluster.Cluster, dev blockdev.Device, m int) {
	cl.FailTarget(m)
	cl.Rt.Call(func() { dev.(interface{ SetFailed(int, bool) }).SetFailed(m, true) })
}

// load puts keys 0..keys-1 a batch at a time, draining the runtime after
// every full batch, then settles the store and drains once more. The issue
// order is pinned by the fig19 captures: the last, partial batch is NOT
// drained before settle runs.
func (s AppStore) load(rt backend.Runner, ops appOps) (err error) {
	for lo := uint64(0); lo < s.keys; lo += s.batch {
		hi := min(lo+s.batch, s.keys)
		rt.Call(func() {
			for k := lo; k < hi; k++ {
				ops.put(k, func(e error) {
					if e != nil {
						err = e
					}
				})
			}
		})
		if hi-lo == s.batch {
			rt.Run()
		}
	}
	if ops.settle != nil {
		rt.Call(ops.settle)
	}
	rt.Run()
	return err
}

// ycsbLoop drives a closed-loop YCSB run at depth qd and returns KIOPS plus
// mean latency over the measurement window. It drains the ops the loop left
// in flight at the window's end; any op that failed, inside the window or
// out of it, fails the run.
func ycsbLoop(rt backend.Runner, gen *ycsb.Generator, o Options, qd int, ops appOps) (kiops, latUs float64, err error) {
	start := rt.Now()
	measureStart := start + sim.Time(o.Ramp)
	end := measureStart + sim.Time(o.Measure)
	var done, failed int64
	lat := hist.New()

	var issue func()
	issue = func() {
		if rt.Now() >= end {
			return
		}
		op := gen.Next()
		issued := rt.Now()
		record := func(e error) {
			now := rt.Now()
			if e != nil {
				failed++
				err = fmt.Errorf("%d ops failed, the last with: %w", failed, e)
			} else if now > measureStart && now <= end {
				done++
				lat.Record(int64(now - issued))
			}
			issue()
		}
		switch op.Kind {
		case ycsb.OpScan:
			if ops.scan != nil {
				ops.scan(op.Key, op.ScanLen, record)
			} else {
				ops.get(op.Key, record)
			}
		case ycsb.OpRead:
			ops.get(op.Key, record)
		case ycsb.OpUpdate, ycsb.OpInsert:
			ops.put(op.Key, record)
		case ycsb.OpReadModifyWrite:
			ops.get(op.Key, func(e error) {
				if e != nil {
					record(e)
					return
				}
				ops.put(op.Key, record)
			})
		}
	}
	// The loop's state has one owner, the runtime's execution domain: issue
	// and read it there (inline on the simulation), as fio does.
	rt.Call(func() {
		for i := 0; i < qd; i++ {
			issue()
		}
	})
	rt.RunUntil(end)
	rt.Call(func() {
		kiops = float64(done) / sim.Seconds(o.Measure) / 1e3
		latUs = lat.Summarize().Mean / 1e3
	})
	rt.Run()
	return kiops, latUs, err
}

// YCSB measures one application point on the backend o names: build an
// 8-wide array, open the store on it, load the dataset while the array is
// healthy, fail members (the paper degrades after load), run the workload
// closed-loop at depth 16, drain, and close. As with measure, a point whose
// ops failed or whose idle cluster still holds buffers, reductions or stripe
// locks is an error, not a data point.
func YCSB(store AppStore, sys System, wl ycsb.Workload, failed []int, o Options) (AppResult, error) {
	o = o.withDefaults()
	dev, cl, err := build(Setup{System: sys, Targets: 8, Seed: o.Seed, Backend: o.Backend, Realtime: o.Realtime})
	if err != nil {
		return AppResult{}, err
	}
	defer cl.Close()
	ops, err := store.open(cl.Rt, dev)
	if err != nil {
		return AppResult{}, err
	}
	if err := store.load(cl.Rt, ops); err != nil {
		return AppResult{}, fmt.Errorf("experiments: %s: load: %w", sys, err)
	}
	for _, m := range failed {
		failMember(cl, dev, m)
	}
	if store.uniform {
		wl = wl.Uniform()
	}
	kiops, lat, err := ycsbLoop(cl.Rt, ycsb.NewGenerator(wl, store.keys, o.Seed), o, 16, ops)
	if err != nil {
		return AppResult{}, fmt.Errorf("experiments: %s: %s: %w", sys, wl.Name, err)
	}
	return AppResult{System: string(sys), Workload: wl.Name, KIOPS: kiops, AvgLatUs: lat}, cl.LeakCheck()
}

// appFigure is a workload sweep of one store: SPDK against dRAID (the
// paper's §9.6 comparison pair) on the simulation, dRAID alone on realtime,
// in normal state or degraded with the given members failed.
func appFigure(id, title string, store AppStore, failed []int) func(Options) (Figure, error) {
	return func(o Options) (Figure, error) {
		wls := appWorkloads
		if o.Quick {
			wls = []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadC}
		}
		systems := []System{SPDK, DRAID}
		series, err := runGrid(o, systemNames(systems), len(wls), func(si, pi int) (Point, error) {
			r, err := YCSB(store, systems[si], wls[pi], failed, o)
			return Point{
				X: float64(pi), Label: wls[pi].Name,
				BW: r.KIOPS, Lat: r.AvgLatUs, Extra: r.KIOPS,
			}, err
		})
		return Figure{
			ID: id, Title: title, XLabel: "workload", Series: series,
			Notes: []string{"BW column is KIOPS for application figures"},
		}, err
	}
}

package experiments

import (
	"fmt"

	"draid/internal/blobfs"
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

// ycsbLoop drives a closed-loop YCSB run against get/put closures and
// returns KIOPS plus mean latency over the measurement window.
func ycsbLoop(eng *sim.Engine, gen *ycsb.Generator, o Options, qd int,
	get func(key uint64, cb func(error)),
	put func(key uint64, cb func(error)),
	scan func(key uint64, n int, cb func(error))) (float64, float64) {

	start := eng.Now()
	measureStart := start + sim.Time(o.Ramp)
	end := measureStart + sim.Time(o.Measure)
	ops := int64(0)
	lat := hist.New()

	var issue func()
	issue = func() {
		if eng.Now() >= end {
			return
		}
		op := gen.Next()
		issued := eng.Now()
		record := func(err error) {
			now := eng.Now()
			if err == nil && now > measureStart && now <= end {
				ops++
				lat.Record(int64(now - issued))
			}
			issue()
		}
		switch op.Kind {
		case ycsb.OpScan:
			if scan != nil {
				scan(op.Key, op.ScanLen, record)
			} else {
				get(op.Key, record)
			}
		case ycsb.OpRead:
			get(op.Key, record)
		case ycsb.OpUpdate, ycsb.OpInsert:
			put(op.Key, record)
		case ycsb.OpReadModifyWrite:
			get(op.Key, func(err error) {
				if err != nil {
					record(err)
					return
				}
				put(op.Key, record)
			})
		}
	}
	for i := 0; i < qd; i++ {
		issue()
	}
	eng.RunUntil(end)
	kiops := float64(ops) / sim.Seconds(o.Measure) / 1e3
	return kiops, lat.Summarize().Mean / 1e3
}

// YCSBObjectStore reproduces the §9.6 object-store runs: 128 KB objects in
// a hash store directly on the block layer, uniform key distribution.
func YCSBObjectStore(sys System, wl ycsb.Workload, failed []int, o Options) AppResult {
	o = o.withDefaults()
	const objSize = 128 << 10
	const objects = 20000 // scaled from the paper's 200K to keep load fast

	// Load in a healthy array, then fail members (matching the paper:
	// degrade after load).
	dev, cl := Build(Setup{System: sys, Targets: 8, Seed: o.Seed})
	store := objstore.New(cl.Eng, dev, objSize)
	loadStore(cl.Eng, store, objects)
	for _, m := range failed {
		cl.FailTarget(m)
		type failer interface{ SetFailed(int, bool) }
		dev.(failer).SetFailed(m, true)
	}

	gen := ycsb.NewGenerator(wl.Uniform(), objects, o.Seed)
	kiops, lat := ycsbLoop(cl.Eng, gen, o, 16,
		func(key uint64, cb func(error)) {
			store.Get(key, func(_ parity.Buffer, err error) { cb(err) })
		},
		func(key uint64, cb func(error)) {
			store.Put(key, parity.Sized(objSize), cb)
		},
		nil)
	return AppResult{System: string(sys), Workload: wl.Name, KIOPS: kiops, AvgLatUs: lat}
}

func loadStore(eng *sim.Engine, store *objstore.Store, objects uint64) {
	pending := uint64(0)
	for k := uint64(0); k < objects; k++ {
		pending++
		store.Put(k, parity.Sized(int(store.ObjectSize())), func(err error) {
			if err != nil {
				panic("experiments: object load failed: " + err.Error())
			}
			pending--
		})
		if pending >= 64 {
			eng.Run()
		}
	}
	eng.Run()
}

// YCSBKVStore reproduces the §9.6 RocksDB runs with the LSM stand-in on
// BlobFS: 1 KB records, zipfian/latest distributions as each workload
// specifies.
func YCSBKVStore(sys System, wl ycsb.Workload, failed []int, o Options) AppResult {
	o = o.withDefaults()
	const records = 50000

	dev, cl := Build(Setup{System: sys, Targets: 8, Seed: o.Seed})
	fs := blobfs.New(cl.Eng, dev)
	db, err := kvstore.Open(cl.Eng, fs, kvstore.Config{})
	if err != nil {
		panic(err)
	}
	loadKV(cl.Eng, db, records)
	for _, m := range failed {
		cl.FailTarget(m)
		type failer interface{ SetFailed(int, bool) }
		dev.(failer).SetFailed(m, true)
	}

	gen := ycsb.NewGenerator(wl, records, o.Seed)
	kiops, lat := ycsbLoop(cl.Eng, gen, o, 16,
		func(key uint64, cb func(error)) {
			db.Get(key, func(_ parity.Buffer, err error) {
				if err == kvstore.ErrNotFound {
					err = nil // unloaded insert-range key; count the probe
				}
				cb(err)
			})
		},
		func(key uint64, cb func(error)) {
			db.Put(key, parity.Sized(1000), cb)
		},
		func(key uint64, n int, cb func(error)) {
			db.Scan(key, n, func(_ int, err error) { cb(err) })
		})
	return AppResult{System: string(sys), Workload: wl.Name, KIOPS: kiops, AvgLatUs: lat}
}

func loadKV(eng *sim.Engine, db *kvstore.DB, records uint64) {
	pending := uint64(0)
	for k := uint64(0); k < records; k++ {
		pending++
		db.Put(k, parity.Sized(1000), func(err error) {
			if err != nil {
				panic("experiments: kv load failed: " + err.Error())
			}
			pending--
		})
		if pending >= 256 {
			eng.Run()
		}
	}
	db.Flush()
	eng.Run()
}

// appFigure runs a workload sweep for SPDK and dRAID (the paper's §9.6
// comparison pair).
func appFigure(id, title string, o Options, failed []int, run func(System, ycsb.Workload, []int, Options) AppResult) (Figure, error) {
	wls := appWorkloads
	if o.Quick {
		wls = []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadC}
	}
	systems := []System{SPDK, DRAID}
	series, err := runGrid(o, systemNames(systems), len(wls), func(si, pi int) (Point, error) {
		wl := wls[pi]
		r := run(systems[si], wl, failed, o)
		return Point{
			X: float64(pi), Label: wl.Name,
			BW: r.KIOPS, Lat: r.AvgLatUs, Extra: r.KIOPS,
		}, nil
	})
	return Figure{
		ID: id, Title: title, XLabel: "workload", Series: series,
		Notes: []string{"BW column is KIOPS for application figures"},
	}, err
}

// fig19 — LSM KV store (RocksDB stand-in) on BlobFS, YCSB A-F: normal state
// (Fig 19a), or degraded with the given members failed (Fig 19b).
func fig19(o Options, failed []int) (Figure, error) {
	id, state := "fig19a", "normal"
	if failed != nil {
		id, state = "fig19b", "degraded"
	}
	return appFigure(id, fmt.Sprintf("KV store (LSM on BlobFS) YCSB throughput, %s state", state),
		o, failed, YCSBKVStore)
}

// fig20 — object store on the block layer, normal state.
func fig20(o Options) (Figure, error) {
	return appFigure("fig20", "Object store YCSB throughput, normal state", o, nil, YCSBObjectStore)
}

// fig21 — object store, degraded state.
func fig21(o Options) (Figure, error) {
	return appFigure("fig21", "Object store YCSB throughput, degraded state", o, []int{0}, YCSBObjectStore)
}

// Package kvstore is a log-structured merge-tree key-value store — the
// RocksDB stand-in for the paper's §9.6 application evaluation. It has the
// structural features whose I/O couples a KV store to the array: a
// write-ahead log with group commit, an in-memory memtable rotated to
// immutable tables, SSTable flushes, L0→L1 compaction with write
// amplification, write stalls when flush/compaction falls behind, and a
// single-instance CPU cost per operation (the paper notes RocksDB's complex
// data structures and locks bound a single instance's throughput).
package kvstore

import (
	"errors"
	"fmt"
	"sort"

	"draid/internal/backend"
	"draid/internal/blobfs"
	"draid/internal/cpu"
	"draid/internal/parity"
	"draid/internal/sim"
)

// ErrNotFound is returned for missing keys.
var ErrNotFound = errors.New("kvstore: key not found")

// Config tunes the store.
type Config struct {
	// ValueSlot is the fixed on-disk slot per value (values may be
	// shorter). Default 1 KB, the YCSB record size.
	ValueSlot int64
	// MemtableLimit rotates the memtable when its payload exceeds this
	// (default 4 MB).
	MemtableLimit int64
	// L0CompactTrigger starts L0→L1 compaction at this many L0 tables
	// (default 4); StallL0 stalls writers (default 8).
	L0CompactTrigger int
	StallL0          int
	// Group commit: the WAL is flushed when pending bytes reach
	// GroupCommitBytes (default 96 KB — BlobFS buffers log writes) or
	// after GroupCommitDelay (default 500 µs).
	GroupCommitBytes int64
	GroupCommitDelay sim.Duration
	// PerOpCPU is single-instance compute per operation (default 2 µs).
	PerOpCPU sim.Duration
	// SyncWAL makes Put wait for its WAL group commit to hit the device.
	// Off by default, matching RocksDB/YCSB's sync=false: the WAL is still
	// written on the same schedule, but writers are acknowledged after the
	// memtable insert.
	SyncWAL bool
	// BlockCacheBytes caps the in-memory block cache (default 32 MB);
	// cached table blocks serve reads without device I/O, as RocksDB's
	// block cache does.
	BlockCacheBytes int64
	// CacheBlock is the cache granularity (default 64 KB).
	CacheBlock int64
	// FlushChunk is the sequential I/O unit for flush/compaction
	// (default 1 MB).
	FlushChunk int64
}

func (c Config) withDefaults() Config {
	if c.ValueSlot == 0 {
		c.ValueSlot = 1 << 10
	}
	if c.MemtableLimit == 0 {
		c.MemtableLimit = 4 << 20
	}
	if c.L0CompactTrigger == 0 {
		c.L0CompactTrigger = 4
	}
	if c.StallL0 == 0 {
		c.StallL0 = 8
	}
	if c.GroupCommitBytes == 0 {
		c.GroupCommitBytes = 96 << 10
	}
	if c.GroupCommitDelay == 0 {
		c.GroupCommitDelay = 500 * sim.Microsecond
	}
	if c.PerOpCPU == 0 {
		c.PerOpCPU = 2 * sim.Microsecond
	}
	if c.FlushChunk == 0 {
		c.FlushChunk = 1 << 20
	}
	if c.BlockCacheBytes == 0 {
		c.BlockCacheBytes = 32 << 20
	}
	if c.CacheBlock == 0 {
		c.CacheBlock = 64 << 10
	}
	return c
}

// Stats counts store activity.
type Stats struct {
	Gets, Puts          int64
	MemHits, TableReads int64
	CacheHits           int64
	Flushes             int64
	Compactions         int64
	Stalls              int64
	BytesFlushed        int64
	BytesCompacted      int64
}

type memtable struct {
	data  map[uint64]parity.Buffer
	bytes int64
}

func newMemtable() *memtable { return &memtable{data: make(map[uint64]parity.Buffer)} }

// sstable is one sorted on-disk table; its key index lives in memory (the
// index/fence blocks real LSMs pin in RAM).
type sstable struct {
	file *blobfs.File
	keys []uint64
	slot int64
	vals []parity.Buffer // retained value images for merge correctness
}

func (t *sstable) find(key uint64) int {
	i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= key })
	if i < len(t.keys) && t.keys[i] == key {
		return i
	}
	return -1
}

// DB is the store. Like the controller underneath it, it is confined to its
// runtime: every method but Open must be called from a runtime callback (or
// inside Runner.Call).
type DB struct {
	eng  backend.Runtime
	fs   *blobfs.FS
	core backend.Executor
	cfg  Config

	mem    *memtable
	imm    []*memtable
	l0     []*sstable // newest first
	l1     []*sstable
	nextID int64

	wal        *blobfs.File
	walPending []func(error)
	walBytes   int64
	walTimer   backend.Timer

	compacting bool
	stalledPut []func()

	cache      map[cacheKey]bool
	cacheOrder []cacheKey

	stats Stats
}

type cacheKey struct {
	table *sstable
	block int64
}

// cacheLookup reports whether the block holding byte off of t is cached,
// inserting it (FIFO eviction) if not.
func (db *DB) cacheLookup(t *sstable, off int64) bool {
	k := cacheKey{table: t, block: off / db.cfg.CacheBlock}
	if db.cache[k] {
		return true
	}
	db.cache[k] = true
	db.cacheOrder = append(db.cacheOrder, k)
	maxBlocks := int(db.cfg.BlockCacheBytes / db.cfg.CacheBlock)
	for len(db.cacheOrder) > maxBlocks {
		old := db.cacheOrder[0]
		db.cacheOrder = db.cacheOrder[1:]
		delete(db.cache, old)
	}
	return false
}

// dropFromCache evicts all of t's blocks (table deleted by compaction).
func (db *DB) dropFromCache(t *sstable) {
	for k := range db.cache {
		if k.table == t {
			delete(db.cache, k)
		}
	}
}

// Open creates a store on the filesystem, from outside the runtime: it runs
// eng until the write-ahead log exists.
func Open(eng backend.Runner, fs *blobfs.FS, cfg Config) (*DB, error) {
	db := &DB{eng: eng, fs: fs, core: executor(eng), cfg: cfg.withDefaults(), mem: newMemtable(), cache: make(map[cacheKey]bool)}
	err := errors.New("the runtime drained before the file was created")
	eng.Call(func() {
		fs.Create("wal-0", func(f *blobfs.File, e error) { db.wal, err = f, e })
	})
	eng.Run()
	if err != nil {
		return nil, fmt.Errorf("kvstore: creating wal: %w", err)
	}
	return db, nil
}

// executor picks the single instance's core the way core.NewHost picks the
// host's: a modelled core where CPU time is simulated, the runtime's own
// executor where real cores already cost real time.
func executor(rt backend.Runtime) backend.Executor {
	if ep, ok := rt.(backend.EngineProvider); ok {
		return cpu.NewCore(ep.SimEngine())
	}
	return rt.(backend.Executor)
}

// Stats returns a snapshot of counters.
func (db *DB) Stats() Stats { return db.stats }

// Get looks up a key: memtable → immutables → L0 (newest first) → L1.
func (db *DB) Get(key uint64, cb func(parity.Buffer, error)) {
	db.core.Exec(db.cfg.PerOpCPU, func() {
		db.stats.Gets++
		if v, ok := db.mem.data[key]; ok {
			db.stats.MemHits++
			cb(v, nil)
			return
		}
		for i := len(db.imm) - 1; i >= 0; i-- {
			if v, ok := db.imm[i].data[key]; ok {
				db.stats.MemHits++
				cb(v, nil)
				return
			}
		}
		for _, t := range append(append([]*sstable{}, db.l0...), db.l1...) {
			if i := t.find(key); i >= 0 {
				val := t.vals[i]
				off := int64(i) * t.slot
				if db.cacheLookup(t, off) {
					db.stats.CacheHits++
					cb(val, nil)
					return
				}
				db.stats.TableReads++
				t.file.ReadAt(off, t.slot, func(b parity.Buffer, err error) {
					if err != nil {
						cb(parity.Buffer{}, err)
						return
					}
					if b.Elided() {
						cb(b, nil) // size-only data plane
						return
					}
					cb(val, nil)
				})
				return
			}
		}
		cb(parity.Buffer{}, ErrNotFound)
	})
}

// Put inserts or updates a key. The callback fires once the write-ahead log
// entry is durable (group commit).
func (db *DB) Put(key uint64, val parity.Buffer, cb func(error)) {
	if int64(val.Len()) > db.cfg.ValueSlot {
		db.eng.Defer(func() { cb(fmt.Errorf("kvstore: value %d exceeds slot %d", val.Len(), db.cfg.ValueSlot)) })
		return
	}
	if len(db.imm) > 2 || len(db.l0) >= db.cfg.StallL0 {
		db.stats.Stalls++
		db.stalledPut = append(db.stalledPut, func() { db.Put(key, val, cb) })
		return
	}
	db.core.Exec(db.cfg.PerOpCPU, func() {
		db.stats.Puts++
		db.mem.data[key] = val.Clone()
		db.mem.bytes += db.cfg.ValueSlot
		db.walBytes += db.cfg.ValueSlot + 16
		if db.cfg.SyncWAL {
			db.walPending = append(db.walPending, cb)
		}
		if db.walBytes >= db.cfg.GroupCommitBytes {
			db.flushWAL()
		} else if db.walTimer == nil {
			db.walTimer = db.eng.After(db.cfg.GroupCommitDelay, db.flushWAL)
		}
		if db.mem.bytes >= db.cfg.MemtableLimit {
			db.rotate()
		}
		if !db.cfg.SyncWAL {
			cb(nil)
		}
	})
}

// flushWAL appends the pending batch to the log and, in SyncWAL mode,
// acknowledges the batched writers.
func (db *DB) flushWAL() {
	if db.walTimer != nil {
		db.walTimer.Stop()
		db.walTimer = nil
	}
	if db.walBytes == 0 {
		return
	}
	batch := db.walPending
	n := db.walBytes
	db.walPending = nil
	db.walBytes = 0
	db.wal.Append(parity.Sized(int(n)), func(err error) {
		for _, cb := range batch {
			cb(err)
		}
	})
}

// rotate freezes the memtable and flushes it to an L0 table.
func (db *DB) rotate() {
	mt := db.mem
	db.mem = newMemtable()
	db.imm = append(db.imm, mt)
	db.flushWAL()
	db.flushMemtable(mt)
}

// flushMemtable writes one immutable memtable as a sorted L0 SSTable.
func (db *DB) flushMemtable(mt *memtable) {
	keys := make([]uint64, 0, len(mt.data))
	for k := range mt.data {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	vals := make([]parity.Buffer, len(keys))
	for i, k := range keys {
		vals[i] = mt.data[k]
	}
	db.nextID++
	name := fmt.Sprintf("sst-%d", db.nextID)
	db.fs.Create(name, func(f *blobfs.File, err error) {
		if err != nil {
			panic("kvstore: flush create: " + err.Error())
		}
		total := int64(len(keys)) * db.cfg.ValueSlot
		db.stats.BytesFlushed += total
		db.writeSequential(f, total, func(err error) {
			if err != nil {
				panic("kvstore: flush write: " + err.Error())
			}
			db.stats.Flushes++
			t := &sstable{file: f, keys: keys, slot: db.cfg.ValueSlot, vals: vals}
			db.l0 = append([]*sstable{t}, db.l0...)
			// Retire the flushed immutable.
			for i, im := range db.imm {
				if im == mt {
					db.imm = append(db.imm[:i], db.imm[i+1:]...)
					break
				}
			}
			db.maybeCompact()
			db.unstall()
		})
	})
}

// writeSequential appends total bytes in FlushChunk units.
func (db *DB) writeSequential(f *blobfs.File, total int64, cb func(error)) {
	if total == 0 {
		db.eng.Defer(func() { cb(nil) })
		return
	}
	n := min(db.cfg.FlushChunk, total)
	f.Append(parity.Sized(int(n)), func(err error) {
		if err != nil {
			cb(err)
			return
		}
		db.writeSequential(f, total-n, cb)
	})
}

// readSequential reads a whole table in FlushChunk units (compaction input).
func (db *DB) readSequential(f *blobfs.File, cb func(error)) {
	var step func(off int64)
	step = func(off int64) {
		if off >= f.Size() {
			cb(nil)
			return
		}
		n := min(db.cfg.FlushChunk, f.Size()-off)
		f.ReadAt(off, n, func(_ parity.Buffer, err error) {
			if err != nil {
				cb(err)
				return
			}
			step(off + n)
		})
	}
	step(0)
}

// maybeCompact merges all of L0 plus L1 into a fresh L1 table when L0 grows
// past the trigger.
func (db *DB) maybeCompact() {
	if db.compacting || len(db.l0) < db.cfg.L0CompactTrigger {
		return
	}
	db.compacting = true
	inputs := append(append([]*sstable{}, db.l0...), db.l1...)

	// Merge: newest occurrence of each key wins (l0 is newest-first).
	merged := make(map[uint64]parity.Buffer)
	for _, t := range inputs {
		for i, k := range t.keys {
			if _, seen := merged[k]; !seen {
				merged[k] = t.vals[i]
			}
		}
	}
	keys := make([]uint64, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	vals := make([]parity.Buffer, len(keys))
	for i, k := range keys {
		vals[i] = merged[k]
	}

	// Read every input sequentially, then write the merged output.
	pending := len(inputs)
	for _, t := range inputs {
		db.readSequential(t.file, func(err error) {
			if err != nil {
				panic("kvstore: compaction read: " + err.Error())
			}
			pending--
			if pending > 0 {
				return
			}
			db.nextID++
			name := fmt.Sprintf("sst-%d", db.nextID)
			db.fs.Create(name, func(f *blobfs.File, err error) {
				if err != nil {
					panic("kvstore: compaction create: " + err.Error())
				}
				total := int64(len(keys)) * db.cfg.ValueSlot
				db.stats.BytesCompacted += total
				db.writeSequential(f, total, func(err error) {
					if err != nil {
						panic("kvstore: compaction write: " + err.Error())
					}
					out := &sstable{file: f, keys: keys, slot: db.cfg.ValueSlot, vals: vals}
					for _, in := range inputs {
						db.dropFromCache(in)
						db.fs.Delete(in.file.Name(), func(error) {})
					}
					db.l0 = nil
					db.l1 = []*sstable{out}
					db.stats.Compactions++
					db.compacting = false
					db.unstall()
					db.maybeCompact()
				})
			})
		})
	}
}

// unstall re-admits writers queued behind flush/compaction pressure.
func (db *DB) unstall() {
	if len(db.imm) > 2 || len(db.l0) >= db.cfg.StallL0 {
		return
	}
	waiting := db.stalledPut
	db.stalledPut = nil
	for _, fn := range waiting {
		db.eng.Defer(fn)
	}
}

// Scan visits up to count keys ≥ start in ascending order, fetching each
// value through the same cache/table path as Get (YCSB-E's operation). cb
// receives the number of records visited.
func (db *DB) Scan(start uint64, count int, cb func(int, error)) {
	if count <= 0 {
		db.eng.Defer(func() { cb(0, nil) })
		return
	}
	db.core.Exec(db.cfg.PerOpCPU, func() {
		// Merge candidate keys from every level (indexes are in memory).
		seen := make(map[uint64]bool)
		add := func(k uint64) {
			if k >= start {
				seen[k] = true
			}
		}
		for k := range db.mem.data {
			add(k)
		}
		for _, mt := range db.imm {
			for k := range mt.data {
				add(k)
			}
		}
		for _, t := range append(append([]*sstable{}, db.l0...), db.l1...) {
			i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= start })
			for ; i < len(t.keys) && len(seen) < count*4; i++ {
				seen[t.keys[i]] = true
			}
		}
		keys := make([]uint64, 0, len(seen))
		for k := range seen {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		if len(keys) > count {
			keys = keys[:count]
		}
		visited := 0
		var step func(i int)
		step = func(i int) {
			if i >= len(keys) {
				cb(visited, nil)
				return
			}
			db.Get(keys[i], func(_ parity.Buffer, err error) {
				if err != nil {
					cb(visited, err)
					return
				}
				visited++
				step(i + 1)
			})
		}
		step(0)
	})
}

// Flush forces the memtable and WAL down (used to settle load phases).
func (db *DB) Flush() {
	db.flushWAL()
	if db.mem.bytes > 0 {
		db.rotate()
	}
}

// Levels reports (immutables, L0 tables, L1 tables) for tests.
func (db *DB) Levels() (imm, l0, l1 int) { return len(db.imm), len(db.l0), len(db.l1) }

// Package objstore is the paper's "lightweight hash-based object store that
// runs directly on the block device layer" (§9.6): fixed-size objects in
// hash-addressed slots, one block I/O per Get/Put, metadata (occupancy,
// key→slot) kept in memory like a cache index.
package objstore

import (
	"errors"
	"fmt"

	"draid/internal/backend"
	"draid/internal/blockdev"
	"draid/internal/parity"
)

// Errors returned by the store.
var (
	ErrNotFound = errors.New("objstore: key not found")
	ErrFull     = errors.New("objstore: store full")
)

// Store is a fixed-object-size hash store over a block device. It is
// confined to the device's runtime: call it from a runtime callback (or
// inside Runner.Call).
type Store struct {
	eng     backend.Runtime
	dev     blockdev.Device
	objSize int64
	slots   int64
	index   map[uint64]int64 // key → slot
	used    map[int64]uint64 // slot → key
	puts    int64
	gets    int64
}

// New creates a store of objSize-byte objects covering the whole device.
func New(eng backend.Runtime, dev blockdev.Device, objSize int64) *Store {
	if objSize <= 0 || objSize > dev.Size() {
		panic(fmt.Sprintf("objstore: object size %d vs device %d", objSize, dev.Size()))
	}
	return &Store{
		eng: eng, dev: dev, objSize: objSize,
		slots: dev.Size() / objSize,
		index: make(map[uint64]int64),
		used:  make(map[int64]uint64),
	}
}

// Slots returns the store's capacity in objects.
func (s *Store) Slots() int64 { return s.slots }

// Len returns the number of stored objects.
func (s *Store) Len() int { return len(s.index) }

// ObjectSize returns the fixed object size.
func (s *Store) ObjectSize() int64 { return s.objSize }

func hashKey(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xFF51AFD7ED558CCD
	key ^= key >> 33
	key *= 0xC4CEB9FE1A85EC53
	return key ^ (key >> 33)
}

// slotFor finds the slot for key (existing, or a free one via linear
// probing).
func (s *Store) slotFor(key uint64) (int64, error) {
	if slot, ok := s.index[key]; ok {
		return slot, nil
	}
	if int64(len(s.index)) >= s.slots {
		return 0, ErrFull
	}
	slot := int64(hashKey(key) % uint64(s.slots))
	for {
		if _, busy := s.used[slot]; !busy {
			return slot, nil
		}
		slot = (slot + 1) % s.slots
	}
}

// Put stores an object. data shorter than the object size is padded; longer
// is an error.
func (s *Store) Put(key uint64, data parity.Buffer, cb func(error)) {
	if int64(data.Len()) > s.objSize {
		s.eng.Defer(func() { cb(fmt.Errorf("objstore: object %d bytes exceeds slot %d", data.Len(), s.objSize)) })
		return
	}
	slot, err := s.slotFor(key)
	if err != nil {
		s.eng.Defer(func() { cb(err) })
		return
	}
	s.puts++
	payload := data
	if int64(data.Len()) < s.objSize {
		if data.Elided() {
			payload = parity.Sized(int(s.objSize))
		} else {
			p := parity.Alloc(int(s.objSize))
			p.CopyAt(0, data)
			payload = p
		}
	}
	s.dev.Write(slot*s.objSize, payload, func(err error) {
		if err == nil {
			s.index[key] = slot
			s.used[slot] = key
		}
		cb(err)
	})
}

// Get fetches an object. The buffer is the device's read result, handed on:
// cb releases it when done, or disowns it to keep it (blockdev.Device).
func (s *Store) Get(key uint64, cb func(parity.Buffer, error)) {
	slot, ok := s.index[key]
	if !ok {
		s.eng.Defer(func() { cb(parity.Buffer{}, ErrNotFound) })
		return
	}
	s.gets++
	s.dev.Read(slot*s.objSize, s.objSize, cb)
}

// Delete removes an object's mapping (the slot is reusable immediately; the
// device bytes are left behind, as in the paper's lightweight design).
func (s *Store) Delete(key uint64) error {
	slot, ok := s.index[key]
	if !ok {
		return ErrNotFound
	}
	delete(s.index, key)
	delete(s.used, slot)
	return nil
}

// Stats returns (puts, gets) op counters.
func (s *Store) Stats() (puts, gets int64) { return s.puts, s.gets }

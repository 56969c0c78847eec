// Package blockdev defines the asynchronous virtual block-device interface
// that every RAID implementation in this repository (dRAID, the SPDK-POC
// baseline, Linux MD baseline) exposes, and that filesystems, object stores,
// and workload generators consume.
package blockdev

import (
	"errors"
	"fmt"

	"draid/internal/backend"
	"draid/internal/parity"
	"draid/internal/sim"
)

// Errors common to all devices. ErrOutOfRange is the drives' own
// (backend.ErrOutOfRange): one sentinel for an access past any capacity.
var (
	ErrOutOfRange = backend.ErrOutOfRange
	ErrIO         = errors.New("blockdev: i/o error")
	ErrTimeout    = errors.New("blockdev: operation timed out")
)

// RAID failure-mode errors. They form a chain — ErrDoubleFault wraps
// ErrDegraded wraps ErrIO — so errors.Is matches at any level of specificity
// and callers written against plain ErrIO keep working.
var (
	// ErrDegraded reports that a degraded-mode operation could not complete
	// (for example, a participant was lost mid-reconstruction).
	ErrDegraded = fmt.Errorf("%w: degraded operation failed", ErrIO)
	// ErrDoubleFault reports failures exceeding the geometry's parity budget:
	// the addressed data is unrecoverable until a rebuild or repair.
	ErrDoubleFault = fmt.Errorf("%w: failures exceed parity budget", ErrDegraded)
	// ErrMediaError reports that the addressed range overlaps bytes lost to
	// media faults (drive UREs or detected bit rot) that reconstruction
	// could not cover — the per-chunk-erasure analogue of ErrDoubleFault.
	ErrMediaError = fmt.Errorf("%w: unrecoverable media error", ErrIO)
)

// Membership-fencing errors (host epochs and leases). ErrStaleEpoch wraps
// ErrFenced: a host learning it is superseded is by definition fenced, so
// callers matching the broader condition keep working.
var (
	// ErrFenced reports I/O refused because the issuing controller no longer
	// owns the volume: its lease expired or a replacement seized the epoch.
	// The controller has parked the operation's side effects; nothing was
	// applied.
	ErrFenced = fmt.Errorf("%w: controller fenced from volume", ErrIO)
	// ErrStaleEpoch reports a command a storage server rejected because it
	// carried a superseded host epoch — the positive confirmation that a
	// takeover happened while this controller was partitioned.
	ErrStaleEpoch = fmt.Errorf("%w: command carried stale host epoch", ErrFenced)
)

// Device is an asynchronous block device. Callbacks run on the device's
// runtime (the simulation engine, or the host's event loop); implementations
// must never invoke a callback synchronously from Read/Write (use the
// runtime's Defer), so callers can rely on stack-safe completion ordering.
type Device interface {
	// Size returns the device's capacity in bytes.
	Size() int64
	// Read fetches n bytes at off. The buffer cb gets is cb's: it Releases
	// it when done — a pooled one goes back for a later read — or Disowns it
	// to keep it (DESIGN.md, "Payload ownership").
	Read(off, n int64, cb func(parity.Buffer, error))
	// Write persists data at off.
	Write(off int64, data parity.Buffer, cb func(error))
}

// CheckRange validates [off, off+n) against size.
func CheckRange(off, n, size int64) error {
	if off < 0 || n < 0 || off+n > size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, off, off+n, size)
	}
	return nil
}

// Mem is an in-memory Device with fixed per-op latency — the unit-test
// substrate for the filesystem/object-store/KV layers.
type Mem struct {
	eng     backend.Runtime
	size    int64
	data    []byte
	latency sim.Duration
}

// NewMem creates an in-memory device.
func NewMem(eng backend.Runtime, size int64, latency sim.Duration) *Mem {
	return &Mem{eng: eng, size: size, data: make([]byte, size), latency: latency}
}

// Size implements Device.
func (m *Mem) Size() int64 { return m.size }

// Read implements Device.
func (m *Mem) Read(off, n int64, cb func(parity.Buffer, error)) {
	if err := CheckRange(off, n, m.size); err != nil {
		m.eng.Defer(func() { cb(parity.Buffer{}, err) })
		return
	}
	m.eng.After(m.latency, func() {
		out := make([]byte, n)
		copy(out, m.data[off:off+n])
		cb(parity.FromBytes(out), nil)
	})
}

// Write implements Device.
func (m *Mem) Write(off int64, data parity.Buffer, cb func(error)) {
	if err := CheckRange(off, int64(data.Len()), m.size); err != nil {
		m.eng.Defer(func() { cb(err) })
		return
	}
	var snapshot []byte
	if !data.Elided() {
		snapshot = append([]byte(nil), data.Data()...)
	}
	n := int64(data.Len())
	m.eng.After(m.latency, func() {
		if snapshot != nil {
			copy(m.data[off:off+n], snapshot)
		}
		cb(nil)
	})
}

var _ Device = (*Mem)(nil)

// Package baseline holds the one comparison system that is not a host
// controller on the fabric: SingleMachine, the RAID controller co-located
// with its drives on one storage server (Table 1's first column): 1×
// network overhead, but no server fault tolerance. The host-centric
// baselines (SPDK, Linux MD) are reduce profiles of the dRAID host
// controller (core.SPDK, core.Linux).
package baseline

import (
	"fmt"

	"draid/internal/blockdev"
	"draid/internal/cpu"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/sim"
	"draid/internal/simnet"
	"draid/internal/ssd"
)

// SingleMachine is the remote RAID architecture of Table 1's first column:
// the RAID controller and all member drives live on one storage server; the
// client reaches the virtual device over the network. Network overhead is
// 1× in every state (parity traffic never leaves the box) but a server
// outage takes out the whole array, the hot spare must be pre-provisioned,
// and scaling requires pre-provisioned slots — the qualitative rows of
// Table 1.
type SingleMachine struct {
	eng    *sim.Engine
	conn   *simnet.Conn
	client *simnet.Node
	server *simnet.Node
	core   *cpu.Core
	costs  cpu.Costs
	geo    raid.Geometry
	drives []*ssd.Drive
	size   int64
	failed map[int]bool
	hdr    int64 // request header bytes
}

// NewSingleMachine builds the client, the storage server with geo.Width
// local drives, and the connecting link.
func NewSingleMachine(eng *sim.Engine, net *simnet.Network, geo raid.Geometry, driveSpec ssd.Spec, costs cpu.Costs, gbps float64) *SingleMachine {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	client := net.NewNode("sm-client")
	client.AddNIC("nic0", gbps)
	server := net.NewNode("sm-server")
	server.AddNIC("nic0", gbps)
	s := &SingleMachine{
		eng: eng, client: client, server: server,
		conn:   net.Connect(client, server),
		core:   cpu.NewCore(eng),
		costs:  costs,
		geo:    geo,
		size:   geo.VirtualSize(driveSpec.Capacity),
		failed: make(map[int]bool),
		hdr:    64,
	}
	for i := 0; i < geo.Width; i++ {
		s.drives = append(s.drives, ssd.New(eng, driveSpec))
	}
	return s
}

// Client returns the client node (for traffic accounting).
func (s *SingleMachine) Client() *simnet.Node { return s.client }

// SetFailed marks a local member drive failed (the array keeps serving
// degraded I/O; a SERVER failure in this architecture loses everything,
// which is the point of Table 1's fault-tolerance row).
func (s *SingleMachine) SetFailed(member int, failed bool) {
	if failed {
		s.failed[member] = true
	} else {
		delete(s.failed, member)
	}
}

// Size implements blockdev.Device.
func (s *SingleMachine) Size() int64 { return s.size }

// Read implements blockdev.Device: request goes over, only the requested
// bytes come back — reconstruction happens inside the box.
func (s *SingleMachine) Read(off, n int64, cb func(parity.Buffer, error)) {
	if err := blockdev.CheckRange(off, n, s.size); err != nil {
		s.eng.Defer(func() { cb(parity.Buffer{}, err) })
		return
	}
	s.conn.Send(s.client, s.hdr, func() {
		s.serveRead(off, n, func(b parity.Buffer, err error) {
			s.conn.Send(s.server, int64(b.Len())+s.hdr, func() { cb(b, err) })
		})
	})
}

// Write implements blockdev.Device: data crosses the wire once; all RAID
// I/O stays local.
func (s *SingleMachine) Write(off int64, data parity.Buffer, cb func(error)) {
	if err := blockdev.CheckRange(off, int64(data.Len()), s.size); err != nil {
		s.eng.Defer(func() { cb(err) })
		return
	}
	s.conn.Send(s.client, int64(data.Len())+s.hdr, func() {
		s.serveWrite(off, data, func(err error) {
			s.conn.Send(s.server, s.hdr, func() { cb(err) })
		})
	})
}

// serveRead handles a read locally, reconstructing failed chunks from the
// local peers.
func (s *SingleMachine) serveRead(off, n int64, cb func(parity.Buffer, error)) {
	exts := s.geo.Split(off, n)
	out := parity.Alloc(int(n))
	elided := false
	pending := len(exts)
	var firstErr error
	part := func(vOff int64, b parity.Buffer, err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if b.Elided() {
			elided = true
		} else if err == nil {
			out.CopyAt(int(vOff), b)
		}
		pending--
		if pending == 0 {
			if firstErr != nil {
				cb(parity.Buffer{}, firstErr)
			} else if elided {
				cb(parity.Sized(int(n)), nil)
			} else {
				cb(out, nil)
			}
		}
	}
	for _, e := range exts {
		e := e
		m := s.geo.DataDrive(e.Stripe, e.Chunk)
		absOff := s.geo.DriveOffset(e.Stripe) + e.Off
		if !s.failed[m] {
			s.drives[m].Read(absOff, e.Len, func(b parity.Buffer, err error) {
				s.core.Exec(s.costs.PerIO, func() { part(e.VOff, b, err) })
			})
			continue
		}
		s.reconstructLocal(e.Stripe, absOff, e.Len, m, func(b parity.Buffer, err error) {
			part(e.VOff, b, err)
		})
	}
	if len(exts) == 0 {
		s.eng.Defer(func() { cb(parity.Alloc(0), nil) })
	}
}

// reconstructLocal XORs the surviving chunks of the stripe on the local
// core — drive I/O but zero network.
func (s *SingleMachine) reconstructLocal(stripe, absOff, length int64, lost int, cb func(parity.Buffer, error)) {
	var members []int
	for m := 0; m < s.geo.Width; m++ {
		kind, _ := s.geo.Role(stripe, m)
		if m == lost || s.failed[m] || kind == raid.KindQ {
			continue
		}
		members = append(members, m)
	}
	if len(members) < s.geo.DataChunks() {
		s.eng.Defer(func() {
			cb(parity.Buffer{}, fmt.Errorf("baseline: stripe %d: %w", stripe, blockdev.ErrDoubleFault))
		})
		return
	}
	acc := parity.Alloc(int(length))
	pending := len(members)
	failed := false
	for _, m := range members {
		s.drives[m].Read(absOff, length, func(b parity.Buffer, err error) {
			if err != nil {
				failed = true
			}
			s.core.Exec(s.costs.Xor(int(length)), func() {
				if err == nil {
					acc = parity.XORInto(acc, b)
				}
				pending--
				if pending == 0 {
					if failed {
						cb(parity.Buffer{}, fmt.Errorf("baseline: stripe %d: member read failed during recovery: %w",
							stripe, blockdev.ErrDegraded))
						return
					}
					cb(acc, nil)
				}
			})
		})
	}
}

// serveWrite handles a write locally with read-modify-write per stripe.
func (s *SingleMachine) serveWrite(off int64, data parity.Buffer, cb func(error)) {
	all := s.geo.Split(off, int64(data.Len()))
	if len(all) == 0 {
		s.eng.Defer(func() { cb(nil) })
		return
	}
	pending := int(all[len(all)-1].Stripe-all[0].Stripe) + 1 // a contiguous range's stripes are too
	var firstErr error
	for rest := all; len(rest) > 0; {
		exts := raid.StripeRun(rest)
		rest = rest[len(exts):]
		s.localStripeWrite(exts[0].Stripe, exts, data, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			pending--
			if pending == 0 {
				cb(firstErr)
			}
		})
	}
}

func (s *SingleMachine) localStripeWrite(stripe int64, exts []raid.Extent, data parity.Buffer, done func(error)) {
	base := s.geo.DriveOffset(stripe)
	pm := s.geo.PDrive(stripe)
	pAlive := !s.failed[pm]
	uLo, uHi := raid.UnionRange(exts)
	uLen := uHi - uLo

	// Local RMW: read old data + old parity, apply deltas, write back.
	// (Single-machine arrays can afford RMW everywhere; mode nuances don't
	// change the network picture Table 1 cares about.)
	type oldSeg struct {
		e   raid.Extent
		buf parity.Buffer
	}
	var olds []*oldSeg
	var pOld parity.Buffer
	reads := 0
	var anyErr error
	var finish func()
	part := func() {
		reads--
		if reads == 0 {
			finish()
		}
	}
	for _, e := range exts {
		m := s.geo.DataDrive(stripe, e.Chunk)
		if s.failed[m] {
			continue
		}
		seg := &oldSeg{e: e}
		olds = append(olds, seg)
		reads++
		s.drives[m].Read(base+e.Off, e.Len, func(b parity.Buffer, err error) {
			if err != nil {
				anyErr = err
			}
			seg.buf = b
			part()
		})
	}
	if pAlive {
		reads++
		s.drives[pm].Read(base+uLo, uLen, func(b parity.Buffer, err error) {
			if err != nil {
				anyErr = err
			}
			pOld = b
			part()
		})
	}
	finish = func() {
		if anyErr != nil {
			done(anyErr)
			return
		}
		work := s.costs.Xor(int(uLen) * (len(olds) + 1))
		s.core.Exec(work, func() {
			var pNew parity.Buffer
			if pAlive {
				pNew = pOld.Clone()
				for _, seg := range olds {
					delta := parity.XORInto(seg.buf.Clone(), data.Slice(int(seg.e.VOff), int(seg.e.Len)))
					sub := pNew.Slice(int(seg.e.Off-uLo), int(seg.e.Len))
					merged := parity.XORInto(sub, delta)
					if merged.Elided() {
						pNew = parity.Sized(int(uLen))
					}
				}
			}
			writes := 0
			var wErr error
			wPart := func(err error) {
				if err != nil && wErr == nil {
					wErr = err
				}
				writes--
				if writes == 0 {
					done(wErr)
				}
			}
			for _, seg := range olds {
				m := s.geo.DataDrive(stripe, seg.e.Chunk)
				writes++
				s.drives[m].Write(base+seg.e.Off, data.Slice(int(seg.e.VOff), int(seg.e.Len)), wPart)
			}
			if pAlive {
				writes++
				s.drives[pm].Write(base+uLo, pNew, wPart)
			}
			if writes == 0 {
				s.eng.Defer(func() { done(nil) })
			}
		})
	}
	if reads == 0 {
		s.eng.Defer(finish)
	}
}

var _ blockdev.Device = (*SingleMachine)(nil)

// Describe returns the Table 1 qualitative rows for this architecture.
func (s *SingleMachine) Describe() string {
	return fmt.Sprintf("single-machine %v: fault tolerance = disk only; hot spare = dedicated; scaling = pre-provisioned", s.geo.Level)
}

package baseline

import (
	"fmt"
	"sort"

	"draid/internal/blockdev"
	"draid/internal/core"
	"draid/internal/cpu"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/sim"
)

// NewHost attaches a host-centric baseline controller to the fabric's host
// endpoint (in place of a dRAID host — one controller per fabric).
func NewHost(eng *sim.Engine, fab *core.Fabric, driveCapacity int64, cfg Config) *Host {
	if err := cfg.Geometry.Validate(); err != nil {
		panic(err)
	}
	if cfg.Geometry.Width != fab.Width() {
		panic(fmt.Sprintf("baseline: geometry width %d != fabric targets %d", cfg.Geometry.Width, fab.Width()))
	}
	if cfg.HostCores <= 0 {
		cfg.HostCores = 4
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = sim.Second
	}
	h := &Host{
		eng: eng, fab: fab, geo: cfg.Geometry, cfg: cfg,
		cores:   cpu.NewPool(eng, cfg.HostCores),
		size:    cfg.Geometry.VirtualSize(driveCapacity),
		stripeQ: make(map[int64]*stripeQueue),
		pending: make(map[uint64]*op),
		failed:  make(map[int]bool),
	}
	if cfg.Style.Raid5dSingleCore {
		h.raid5d = cpu.NewCore(eng)
	}
	fab.Register(core.HostID, h.handle)
	return h
}

// Size implements blockdev.Device.
func (h *Host) Size() int64 { return h.size }

// Stats returns a snapshot of counters.
func (h *Host) Stats() Stats { return h.stats }

// Geometry returns the array geometry.
func (h *Host) Geometry() raid.Geometry { return h.geo }

// SetFailed marks a member failed/restored.
func (h *Host) SetFailed(member int, failed bool) {
	if failed {
		h.failed[member] = true
	} else {
		delete(h.failed, member)
	}
}

// FailedMembers returns sorted failed member indices.
func (h *Host) FailedMembers() []int {
	var out []int
	for m := range h.failed {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// worker schedules stripe-processing work: on Linux's single raid5d core
// when configured, otherwise on the host pool.
func (h *Host) worker(d sim.Duration, fn func()) {
	if h.raid5d != nil {
		h.raid5d.Exec(d, fn)
		return
	}
	h.cores.Exec(d, fn)
}

// stripeOverhead is the per-stripe-operation worker cost.
func (h *Host) stripeOverhead() sim.Duration {
	return h.cfg.Style.PerStripeOp + sim.Duration(h.geo.Width)*h.cfg.Style.PerChunkOp
}

// xorCost converts parity byte counts to worker time.
func (h *Host) xorCost(n int) sim.Duration {
	if h.cfg.Style.CopyBps > 0 {
		return sim.Duration(float64(n) / h.cfg.Style.CopyBps * 1e9)
	}
	return h.cfg.Costs.Xor(n)
}

func (h *Host) gfCost(n int) sim.Duration {
	if h.cfg.Style.CopyBps > 0 {
		return sim.Duration(float64(n) / h.cfg.Style.CopyBps * 1e9)
	}
	return h.cfg.Costs.Gf(n)
}

// --- op plumbing -------------------------------------------------------------

func (h *Host) handle(m core.Message) {
	h.cores.Exec(h.cfg.Costs.PerMsg, func() {
		o, ok := h.pending[m.Cmd.ID]
		if !ok || o.done {
			return
		}
		if m.Cmd.Status != nvmeof.StatusSuccess {
			h.endOp(o, []int{int(m.From)})
			return
		}
		if m.Payload.Len() > 0 && o.onPayload != nil {
			o.onPayload(int(m.From), m.Cmd.Offset, m.Cmd.Length, m.Payload)
		}
		o.remaining--
		if o.remaining == 0 {
			h.fin(o)
		}
	})
}

func (h *Host) fin(o *op) {
	if o.done {
		return
	}
	o.done = true
	o.timer.Stop()
	delete(h.pending, o.id)
	o.doneFn()
}

func (h *Host) endOp(o *op, missing []int) {
	if o.done {
		return
	}
	o.done = true
	o.timer.Stop()
	delete(h.pending, o.id)
	o.failedFn(missing)
}

func (h *Host) newOp(expect int, watch []int, done func(), failed func(missing []int)) *op {
	h.nextID++
	o := &op{id: h.nextID, remaining: expect, doneFn: done, failedFn: failed, watch: watch}
	h.pending[o.id] = o
	o.timer = h.eng.After(h.cfg.Deadline, func() {
		if o.done {
			return
		}
		h.stats.Timeouts++
		var down []int
		for _, t := range o.watch {
			if h.fab.Node(core.NodeID(t)).Down() {
				down = append(down, t)
			}
		}
		h.endOp(o, down)
	})
	return o
}

func (h *Host) send(o *op, member int, cmd nvmeof.Command, payload parity.Buffer) {
	cmd.ID = o.id
	h.fab.Send(core.HostID, core.NodeID(member), cmd, payload)
}

// --- stripe lock -------------------------------------------------------------

func (h *Host) acquire(stripe int64, fn func()) {
	q, ok := h.stripeQ[stripe]
	if !ok {
		q = &stripeQueue{}
		h.stripeQ[stripe] = q
	}
	if !q.busy {
		q.busy = true
		fn()
		return
	}
	h.stats.StripeLockConflict++
	q.waiters = append(q.waiters, fn)
}

func (h *Host) release(stripe int64) {
	q := h.stripeQ[stripe]
	if q == nil {
		return
	}
	if len(q.waiters) == 0 {
		delete(h.stripeQ, stripe)
		return
	}
	next := q.waiters[0]
	q.waiters = q.waiters[1:]
	h.eng.Defer(next)
}

// --- reads -------------------------------------------------------------------

// Read implements blockdev.Device.
func (h *Host) Read(off, n int64, cb func(parity.Buffer, error)) {
	if err := blockdev.CheckRange(off, n, h.size); err != nil {
		h.eng.Defer(func() { cb(parity.Buffer{}, err) })
		return
	}
	h.stats.Reads++
	h.stats.UserBytesRead += n
	if n == 0 {
		h.eng.Defer(func() { cb(parity.Alloc(0), nil) })
		return
	}
	exts := h.geo.Split(off, n)
	buf := parity.Alloc(int(n))
	elided := false
	pending := len(exts)
	var firstErr error
	part := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		pending--
		if pending == 0 {
			if firstErr != nil {
				cb(parity.Buffer{}, firstErr)
				return
			}
			if elided {
				cb(parity.Sized(int(n)), nil)
				return
			}
			cb(buf, nil)
		}
	}
	put := func(vOff int64, b parity.Buffer) {
		if b.Elided() {
			elided = true
			return
		}
		buf.CopyAt(int(vOff), b)
	}
	for _, e := range exts {
		e := e
		run := func(done func(error)) {
			if h.failed[h.geo.DataDrive(e.Stripe, e.Chunk)] {
				h.degradedReadExtent(e, put, done)
			} else {
				h.normalReadExtent(e, put, done)
			}
		}
		if h.cfg.Style.LockReads {
			h.acquire(e.Stripe, func() {
				run(func(err error) {
					h.release(e.Stripe)
					part(err)
				})
			})
		} else {
			run(part)
		}
	}
}

func (h *Host) normalReadExtent(e raid.Extent, put func(int64, parity.Buffer), done func(error)) {
	member := h.geo.DataDrive(e.Stripe, e.Chunk)
	o := h.newOp(1, []int{member},
		func() { done(nil) },
		func(missing []int) { h.readRetry(e, missing, put, done) },
	)
	o.onPayload = func(_ int, _, _ int64, b parity.Buffer) { put(e.VOff, b) }
	h.cores.Exec(h.cfg.Style.ReadPerIO, func() {
		h.send(o, member, nvmeof.Command{
			Opcode: nvmeof.OpRead,
			Offset: h.geo.DriveOffset(e.Stripe) + e.Off, Length: e.Len,
		}, parity.Buffer{})
	})
}

func (h *Host) readRetry(e raid.Extent, missing []int, put func(int64, parity.Buffer), done func(error)) {
	if len(missing) == 0 {
		done(fmt.Errorf("baseline: stripe %d read: %w", e.Stripe, blockdev.ErrTimeout))
		return
	}
	h.stats.Retries++
	for _, m := range missing {
		h.SetFailed(m, true)
	}
	h.degradedReadExtent(e, put, done)
}

// degradedReadExtent reconstructs one extent on the host: every survivor
// segment crosses the host NIC ((n−1)× inbound amplification), then the
// worker XORs/solves.
func (h *Host) degradedReadExtent(e raid.Extent, put func(int64, parity.Buffer), done func(error)) {
	h.stats.DegradedReads++
	stripe := e.Stripe
	rOff := h.geo.DriveOffset(stripe) + e.Off

	// Survivor segments land in chunk-index space as they arrive.
	got := parity.Stripe{Data: make([]parity.Buffer, h.geo.DataChunks())}
	var members []int
	var lostData []int
	for c := 0; c < h.geo.DataChunks(); c++ {
		if h.failed[h.geo.DataDrive(stripe, c)] {
			lostData = append(lostData, c)
		}
	}
	needQ := len(lostData) > 1 || h.failed[h.geo.PDrive(stripe)]
	for m := 0; m < h.geo.Width; m++ {
		if h.failed[m] {
			continue
		}
		if kind, _ := h.geo.Role(stripe, m); kind == raid.KindQ && !needQ {
			continue // Q not needed for single-failure recovery
		}
		members = append(members, m)
	}
	if len(lostData)+lostParity(h, stripe) > h.geo.Level.ParityCount() {
		h.eng.Defer(func() {
			done(fmt.Errorf("baseline: stripe %d: %w", stripe, blockdev.ErrDoubleFault))
		})
		return
	}
	o := h.newOp(len(members), members,
		func() {
			work := h.stripeOverhead() + h.xorCost(int(e.Len)*len(members))
			if h.cfg.Style.DegradedPageSize > 0 {
				pages := (e.Len + h.cfg.Style.DegradedPageSize - 1) / h.cfg.Style.DegradedPageSize
				work += sim.Duration(pages) * h.cfg.Style.DegradedPerPage
			}
			h.worker(work, func() {
				if err := parity.SolveStripe(&got, lostData, false, false); err != nil {
					done(fmt.Errorf("baseline: stripe %d: %v: %w", stripe, err, blockdev.ErrDoubleFault))
					return
				}
				put(e.VOff, got.Data[e.Chunk])
				done(nil)
			})
		},
		func(missing []int) {
			done(fmt.Errorf("baseline: stripe %d: members %v lost during recovery: %w",
				stripe, missing, blockdev.ErrDegraded))
		},
	)
	o.onPayload = func(from int, _, _ int64, b parity.Buffer) {
		switch kind, idx := h.geo.Role(stripe, from); kind {
		case raid.KindP:
			got.P = b
		case raid.KindQ:
			got.Q = b
		default:
			got.Data[idx] = b
		}
	}
	for _, m := range members {
		h.send(o, m, nvmeof.Command{Opcode: nvmeof.OpRead, Offset: rOff, Length: e.Len}, parity.Buffer{})
	}
}

func lostParity(h *Host, stripe int64) int {
	n := 0
	if h.failed[h.geo.PDrive(stripe)] {
		n++
	}
	if h.geo.Level == raid.Raid6 && h.failed[h.geo.QDrive(stripe)] {
		n++
	}
	return n
}

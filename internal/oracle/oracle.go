// Package oracle is the one model of what a RAID device owes its caller
// under faults. Every harness that injects faults checks against it: the
// chaos sweeps, the tortures, the server-record cases and the backend
// conformance suite. It keeps a byte model of every acknowledged write and
// asserts four things:
//
//  1. Acked ⇒ durable: a read that answers matches the model outside
//     ambiguous stripes (Read, BeginRead).
//  2. Never stale: after heal and repair the whole device matches the model
//     (Sweep, Heal).
//  3. Typed loss only past the budget: a read fails only with the media
//     error over a recorded lost region where the harness declared faults
//     past the level's parity budget (ExpectLoss), or inside an outage it
//     declared — a cut, or members failed past the budget (Outage). Any
//     other error is a violation; a wrong byte always is.
//  4. Nothing left behind: at quiescence the leak check is clean, after a
//     fence if the fabric was ever cut (Quiesce).
//
// A failed or torn write leaves every stripe it touches ambiguous: a RAID-5/6
// stripe update is not atomic, so after a partial one the stripe's bytes are
// undefined until it is rewritten whole (the write hole; Repair). A read that
// overlapped a write in flight at any point of its life is not compared, as
// RAID orders neither. Two overlapping writes land in the order they were
// issued (the per-stripe write queue is FIFO), whichever is acknowledged
// first: a write spanning stripes can be acked after a later one that
// followed it on the stripe they share.
//
// The oracle reaches the device only through function values, so one model
// serves draid.Array, a bare core host controller and the baseline hosts.
package oracle

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

const (
	// eventTail is how many of the newest recovery-log entries a violation
	// carries.
	eventTail = 8
	// sweepPiece is about how many bytes one read of a sweep covers.
	sweepPiece = 256 << 10
)

// Span is the half-open byte range [Off, Off+Len).
type Span struct{ Off, Len int64 }

// State is what the oracle reads of the device's status.
type State struct {
	Lost   []Span         // regions recorded unrecoverable
	Failed int            // members marked failed
	Events []fmt.Stringer // the recovery log, oldest first
}

// Device is how the oracle reaches the device under test. Write and Read
// run one synchronous op; Audit and Fence may be nil.
type Device struct {
	Write func(off int64, data []byte) error
	Read  func(off, n int64) ([]byte, error)
	State func() State
	// MediaErr is the typed error a read over lost data fails with.
	MediaErr error
	// Audit checks the device's redundancy against its data: parity computed
	// from bytes the drives no longer hold is stale too. Sweep runs it when
	// no member is failed.
	Audit func() error
	// LeakCheck drains the device and reports what it left behind. Fence
	// retires the session first, severing what a cut left open.
	LeakCheck func() error
	Fence     func() error
}

// Violation is one broken promise, with the device's recovery-log tail when
// it was found.
type Violation struct {
	Detail string
	Events []fmt.Stringer
}

func (v Violation) String() string {
	var b strings.Builder
	b.WriteString(v.Detail)
	for _, e := range v.Events {
		fmt.Fprintf(&b, "\n\t%v", e)
	}
	return b.String()
}

// Oracle is the model of one device.
type Oracle struct {
	dev    Device
	model  []byte
	stripe int64
	budget int

	// Report, when set, is called with each violation as it is found.
	Report     func(Violation)
	Violations []Violation
	// Acked counts acknowledged writes; Checked counts reads compared.
	Acked, Checked int

	torn   []int64 // the ambiguous stripes, in the order they tore
	issued int     // writes begun, numbering them in issue order
	writes map[*flight]bool
	reads  map[*flight]bool
	outage bool
	cut    bool
	loss   bool
}

// flight is one op in flight. A write carries its issue number and the
// spans of it that later-issued writes were acknowledged over: their bytes
// land after its own, so its ack must not bring it back there.
type flight struct {
	off, n   int64
	tainted  bool
	seq      int
	overtook []Span
}

func (f *flight) overlaps(off, n int64) bool { return off < f.off+f.n && f.off < off+n }

// overtaken reports whether a later-issued, already acked write covers p.
func (f *flight) overtaken(p int64) bool {
	for _, s := range f.overtook {
		if s.Off <= p && p < s.Off+s.Len {
			return true
		}
	}
	return false
}

// New models a zero-filled device of size bytes whose stripes carry stripe
// data bytes each, under a level whose parity covers budget failed members.
func New(dev Device, size, stripe int64, budget int) *Oracle {
	return &Oracle{
		dev: dev, model: make([]byte, size), stripe: stripe, budget: budget,
		writes: map[*flight]bool{}, reads: map[*flight]bool{},
	}
}

// Budget is how many failed members the level's parity covers.
func (o *Oracle) Budget() int { return o.budget }

// Clean reports whether no promise was broken.
func (o *Oracle) Clean() bool { return len(o.Violations) == 0 }

// Cut declares that the fabric was cut or an endpoint went down. A
// reduction waiting on a part that never comes stays open until a fence
// severs it, so Quiesce fences before its leak check.
func (o *Oracle) Cut() { o.cut = true }

// Outage declares a cut, or members failed past the budget: until Restore,
// reads may fail untyped.
func (o *Oracle) Outage() { o.outage, o.cut = true, true }

// ExpectLoss declares faults that may destroy data past the level's parity
// budget: from now on a read may fail with the media error over a recorded
// lost region. Without it the device owes every byte, and any failed read
// outside an outage is a violation.
func (o *Oracle) ExpectLoss() { o.loss = true }

// Restore ends the outage Outage declared.
func (o *Oracle) Restore() { o.outage = false }

// Write runs one write and folds its outcome into the model.
func (o *Oracle) Write(off int64, data []byte) error {
	end := o.BeginWrite(off, data)
	err := o.dev.Write(off, data)
	end(err)
	return err
}

// BeginWrite notes a write issued; the returned func records its outcome. An
// acknowledged write lands in the model, except where a write issued after
// it was acknowledged first; a failed one tears its stripes. Call it as the
// write goes to the device: the order of the calls is the issue order.
func (o *Oracle) BeginWrite(off int64, data []byte) func(error) {
	o.issued++
	w := &flight{off: off, n: int64(len(data)), seq: o.issued}
	data = append([]byte(nil), data...) // the caller may reuse its buffer once acked
	o.writes[w] = true
	for r := range o.reads {
		r.tainted = r.tainted || r.overlaps(off, w.n)
	}
	return func(err error) {
		delete(o.writes, w)
		if err != nil {
			o.Tear(off, w.n)
			return
		}
		for w2 := range o.writes {
			if w2.seq < w.seq && w2.overlaps(off, w.n) {
				lo := max(off, w2.off)
				w2.overtook = append(w2.overtook, Span{lo, min(off+w.n, w2.off+w2.n) - lo})
			}
		}
		if len(w.overtook) == 0 {
			copy(o.model[off:], data)
		} else {
			for i, b := range data {
				if p := off + int64(i); !w.overtaken(p) {
					o.model[p] = b
				}
			}
		}
		o.Acked++
	}
}

// Tear leaves every stripe [off, off+n) touches ambiguous.
func (o *Oracle) Tear(off, n int64) {
	for st := off / o.stripe; st*o.stripe < off+n; st++ {
		if !slices.Contains(o.torn, st) {
			o.torn = append(o.torn, st)
		}
	}
}

// TearInFlight tears every write in flight: a member failed under them.
func (o *Oracle) TearInFlight() {
	for w := range o.writes {
		o.Tear(w.off, w.n)
	}
}

// Read runs one read, checks it and returns what it answered.
func (o *Oracle) Read(off, n int64) []byte {
	end := o.BeginRead(off, n)
	got, err := o.dev.Read(off, n)
	end(got, err)
	return got
}

// BeginRead notes a read issued; the returned func checks its outcome. The
// bytes are compared only if no overlapping write was in flight at any point
// of the read's life; an error is always checked.
func (o *Oracle) BeginRead(off, n int64) func([]byte, error) {
	r := &flight{off: off, n: n}
	for w := range o.writes {
		r.tainted = r.tainted || w.overlaps(off, n)
	}
	o.reads[r] = true
	return func(got []byte, err error) {
		delete(o.reads, r)
		o.check(off, n, got, err, r.tainted)
	}
}

// check applies assertions 1 and 3 to one read.
func (o *Oracle) check(off, n int64, got []byte, err error, tainted bool) {
	if err != nil {
		lost := false
		for _, s := range o.dev.State().Lost {
			lost = lost || off < s.Off+s.Len && s.Off < off+n
		}
		if !(o.loss && lost && errors.Is(err, o.dev.MediaErr)) && !o.outage {
			o.Violate("read [%d,+%d): %v (not an expected typed loss over a lost region, and no outage)", off, n, err)
		}
		return
	}
	if tainted {
		return
	}
	o.Checked++
	if int64(len(got)) != n {
		o.Violate("read [%d,+%d): answered %d bytes", off, n, len(got))
		return
	}
	for i, b := range got {
		if p := off + int64(i); b != o.model[p] && !slices.Contains(o.torn, p/o.stripe) {
			o.Violate("read [%d,+%d): byte %d = %#x, model %#x (acked write lost or stale write applied)",
				off, n, p, b, o.model[p])
			return
		}
	}
}

// Sweep reads the whole device back and checks every read, then audits its
// redundancy; it returns how many reads failed. Each is a violation unless
// ExpectLoss or an outage excused it.
func (o *Oracle) Sweep() (failed int) {
	size := int64(len(o.model))
	piece := o.stripe * max(1, sweepPiece/o.stripe)
	for off := int64(0); off < size; off += piece {
		if o.Read(off, min(piece, size-off)) == nil {
			failed++
		}
	}
	if o.dev.Audit != nil && o.dev.State().Failed == 0 {
		if err := o.dev.Audit(); err != nil {
			o.Violate("stale redundancy: %v", err)
		}
	}
	return failed
}

// Repair rewrites every ambiguous stripe whole, then every recorded lost
// region, with fresh bytes from fill — until no loss is left, since a
// rewrite landing beside damage nobody had found yet may record more.
func (o *Oracle) Repair(fill func(n int64) []byte) {
	torn := o.torn
	o.torn = nil
	for _, st := range torn {
		if err := o.Write(st*o.stripe, fill(o.stripe)); err != nil {
			o.Violate("repair write of stripe %d: %v", st, err)
			return
		}
	}
	for round := 0; ; round++ {
		lost := o.dev.State().Lost
		if len(lost) == 0 {
			return
		}
		if round == 20 {
			o.Violate("lost regions survive overwriting: %v", lost)
			return
		}
		for _, s := range lost {
			if err := o.Write(s.Off, fill(s.Len)); err != nil {
				o.Violate("repair write over lost [%d,+%d): %v", s.Off, s.Len, err)
				return
			}
		}
	}
}

// Heal repairs and sweeps until a sweep reads every byte of the device back
// as the model: the end state every fault schedule must reach.
func (o *Oracle) Heal(fill func(n int64) []byte) {
	for round := 0; len(o.torn) > 0 || o.Sweep() > 0; round++ {
		if round == 5 {
			o.Violate("device not whole after %d repairs", round)
			return
		}
		o.Repair(fill)
	}
}

// Quiesce asserts nothing was left behind: the device's leak check, after a
// fence if the fabric was ever cut (a cut strands reductions until a fence
// severs them).
func (o *Oracle) Quiesce() {
	if o.cut && o.dev.Fence != nil {
		if err := o.dev.Fence(); err != nil {
			o.Violate("teardown fence: %v", err)
			return
		}
	}
	if err := o.dev.LeakCheck(); err != nil {
		o.Violate("teardown: %v", err)
	}
}

// Violate records a broken promise together with the device's recovery-log
// tail, which places it among the takeovers, rebuilds and scrubs before it.
func (o *Oracle) Violate(format string, args ...any) {
	v := Violation{Detail: fmt.Sprintf(format, args...), Events: o.dev.State().Events}
	if len(v.Events) > eventTail {
		v.Events = v.Events[len(v.Events)-eventTail:]
	}
	o.Violations = append(o.Violations, v)
	if o.Report != nil {
		o.Report(v)
	}
}

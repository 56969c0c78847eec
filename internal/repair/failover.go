package repair

import (
	"fmt"

	"draid/internal/backend"
	"draid/internal/core"
)

// Failover is the §5.4 host-crash recovery protocol: a replacement
// controller that has Adopted a crashed predecessor first fences the dead
// session at every bdev — discarding its open reductions and waiting out
// its in-flight drive writes, so no straggler can land later — then resyncs
// exactly the stripes the write-intent bitmap marked dirty — never a
// full-array scan — and resumes service. Stripes are resynced sequentially
// (each one re-reads survivors and rewrites parity), unpaced, and cb fires
// once all are consistent.
//
// Call it on the host's loop, in the turn that adopted the predecessor: the
// fence goes out before Failover returns, and it must be the replacement's
// first capsule to every bdev. A fence names the dead session as "every ID
// below mine", so a command the replacement issued ahead of it — a
// supervised rebuild's next chunk, asked of the new controller by a timer
// that fired in between — would be cut down with the predecessor's and never
// answered.
func Failover(eng backend.Runtime, h *core.HostController, dirty []int64, cb func(error)) {
	w := walker{eng: eng}
	h.Fence(func(error) {
		w.walk(walkSpec{
			n: int64(len(dirty)),
			item: func(i int64, next func(error)) {
				h.ResyncStripe(dirty[i], func(err error) {
					if err != nil {
						err = fmt.Errorf("repair: resync stripe %d: %w", dirty[i], err)
					}
					next(err)
				})
			},
			done: cb,
		})
	})
}

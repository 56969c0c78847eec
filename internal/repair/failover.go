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
func Failover(eng backend.Runtime, h *core.HostController, dirty []int64, cb func(error)) {
	w := walker{eng: eng}
	eng.Defer(func() {
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
	})
}

package core

// HostHandler returns the handler a host registers for its volume, for tests
// that interpose on its deliveries.
func HostHandler(h *HostController) Handler { return h.handle }

// SetBarrierReduce turns the BarrierReduce ablation on for a server, on a
// backend whose cluster spec has no field for it. Call it before any traffic.
func SetBarrierReduce(s *ServerController) { s.cfg.BarrierReduce = true }

// LiveRecords reports how many command records and reduction states a server
// has out of its slabs: in use, or stranded under a failed drive.
func LiveRecords(s *ServerController) (cmds, reductions int) {
	return s.cmds.Live(), s.reductions.Live()
}

// EndedKeys is how many ended reductions a server remembers.
const EndedKeys = endedKeys

// LeakExtentRead takes an extent read record out of the host's slab and never
// returns it.
func LeakExtentRead(h *HostController) { h.extentReads.Get() }

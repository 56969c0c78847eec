package core

// HostHandler returns the handler a host registers for its volume, for tests
// that interpose on its deliveries.
func HostHandler(h *HostController) Handler { return h.handle }

// SetBarrierReduce turns the BarrierReduce ablation on for a server, on a
// backend whose cluster spec has no field for it. Call it before any traffic.
func SetBarrierReduce(s *ServerController) { s.cfg.BarrierReduce = true }

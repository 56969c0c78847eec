package core

// HostHandler returns the handler a host registers for its volume, for tests
// that interpose on its deliveries.
func HostHandler(h *HostController) Handler { return h.handle }

package conformancetest

import (
	"os"
	"testing"

	"draid"
	"draid/internal/parity"
)

// TestMain poisons released pooled buffers, so a buffer kept past its
// release — a lent read, a payload handed on — fails the oracle here.
func TestMain(m *testing.M) {
	parity.SetPoison(true)
	os.Exit(m.Run())
}

func mustNew(t *testing.T, cfg draid.Config) *draid.Array {
	t.Helper()
	a, err := draid.New(cfg)
	if err != nil {
		t.Fatalf("draid.New: %v", err)
	}
	return a
}

func TestConformanceSim(t *testing.T) {
	Run(t, func(t *testing.T, cfg draid.Config) *draid.Array {
		cfg.Backend = draid.BackendSim
		return mustNew(t, cfg)
	})
}

func TestConformanceRealtimeChan(t *testing.T) {
	Run(t, func(t *testing.T, cfg draid.Config) *draid.Array {
		cfg.Backend = draid.BackendRealtime
		return mustNew(t, cfg)
	})
}

func TestConformanceRealtimeTCP(t *testing.T) {
	Run(t, func(t *testing.T, cfg draid.Config) *draid.Array {
		cfg.Backend = draid.BackendRealtime
		cfg.Realtime.TCP = true
		return mustNew(t, cfg)
	})
}

func TestConformanceRealtimeFile(t *testing.T) {
	Run(t, func(t *testing.T, cfg draid.Config) *draid.Array {
		cfg.Backend = draid.BackendRealtime
		cfg.Realtime.Dir = t.TempDir()
		return mustNew(t, cfg)
	})
}

package blobfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"draid/internal/backend"
	"draid/internal/backend/realtime"
	"draid/internal/blockdev"
	"draid/internal/parity"
	"draid/internal/sim"
)

// Property: an arbitrary interleaving of creates, appends, deletes, and
// reads over several files behaves exactly like an in-memory shadow model —
// on the simulation engine and on a realtime bed's host loop alike.
func TestPropertyShadowModel(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		checkShadowModel(t, func(seed int64) (backend.Runner, func() error) {
			return backend.SimRunner(sim.NewEngine(seed)), func() error { return nil }
		})
	})
	t.Run("realtime", func(t *testing.T) {
		checkShadowModel(t, func(seed int64) (backend.Runner, func() error) {
			bed := realtime.NewBed(seed, 0)
			return bed, bed.Close
		})
	})
}

func checkShadowModel(t *testing.T, newRuntime func(seed int64) (backend.Runner, func() error)) {
	f := func(seed int64, opsRaw []uint8) bool {
		if len(opsRaw) > 80 {
			opsRaw = opsRaw[:80]
		}
		rt, closeRuntime := newRuntime(seed)
		defer closeRuntime()
		fs := New(rt, blockdev.NewMem(rt, 16<<20, sim.Microsecond))
		rng := rand.New(rand.NewSource(seed))

		// The filesystem, the shadow and ok have one owner, the runtime: each
		// op is issued inside Call and drained before the next.
		shadow := map[string][]byte{}
		ok := true
		issue := func(op uint8) {
			name := fmt.Sprintf("f%d", rng.Intn(4))
			switch op % 4 {
			case 0: // create
				fs.Create(name, func(_ *File, err error) {
					_, exists := shadow[name]
					if (err == nil) == exists {
						ok = false
					}
					if err == nil {
						shadow[name] = []byte{}
					}
				})
			case 1: // append
				if _, exists := shadow[name]; !exists {
					return
				}
				data := make([]byte, 1+rng.Intn(5000))
				rng.Read(data)
				file, err := fs.Open(name)
				if err != nil {
					ok = false
					return
				}
				file.Append(parity.FromBytes(data), func(err error) {
					if err != nil {
						ok = false
						return
					}
					shadow[name] = append(shadow[name], data...)
				})
			case 2: // read a random range
				content, exists := shadow[name]
				if !exists {
					return
				}
				file, err := fs.Open(name)
				if err != nil {
					ok = false
					return
				}
				if len(content) == 0 {
					return
				}
				off := rng.Intn(len(content))
				n := 1 + rng.Intn(len(content)-off)
				file.ReadAt(int64(off), int64(n), func(b parity.Buffer, err error) {
					if err != nil || !bytes.Equal(b.Data(), content[off:off+n]) {
						ok = false
					}
				})
			case 3: // delete
				fs.Delete(name, func(err error) {
					_, exists := shadow[name]
					if (err == nil) != exists {
						ok = false
					}
					delete(shadow, name)
				})
			}
		}
		for _, op := range opsRaw {
			rt.Call(func() { issue(op) })
			rt.Run()
		}
		// Final verification of every live file.
		for name, content := range shadow {
			file, err := fs.Open(name)
			if err != nil || file.Size() != int64(len(content)) {
				return false
			}
			if len(content) == 0 {
				continue
			}
			rt.Call(func() {
				file.ReadAt(0, int64(len(content)), func(b parity.Buffer, err error) {
					if err != nil || !bytes.Equal(b.Data(), content) {
						ok = false
					}
				})
			})
			rt.Run()
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

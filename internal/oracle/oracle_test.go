package oracle_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"draid/internal/oracle"
)

var errMedia = errors.New("media error")

// event is a recovery-log entry.
type event string

func (e event) String() string { return string(e) }

// mem is a device of 4 stripes of 8 bytes whose faults a case plants.
type mem struct {
	b       []byte
	drop    bool  // acknowledge writes without applying them
	readErr error // fail every read with this
	lost    []oracle.Span
	leak    error // what the leak check finds until a fence
}

func (m *mem) device() oracle.Device {
	return oracle.Device{
		Write: func(off int64, d []byte) error {
			if !m.drop {
				copy(m.b[off:], d)
			}
			return nil
		},
		Read: func(off, n int64) ([]byte, error) {
			if m.readErr != nil {
				return nil, m.readErr
			}
			return append([]byte(nil), m.b[off:off+n]...), nil
		},
		State: func() oracle.State {
			return oracle.State{Lost: m.lost, Events: []fmt.Stringer{event("failover seize")}}
		},
		MediaErr:  errMedia,
		LeakCheck: func() error { return m.leak },
		Fence:     func() error { m.leak = nil; return nil },
	}
}

func fill(v byte) func(int64) []byte {
	return func(n int64) []byte { return []byte(strings.Repeat(string(rune(v)), int(n))) }
}

// TestOracleCatchesPlantedDefects plants one defect per assertion; each
// must be reported, carrying the device's event tail.
func TestOracleCatchesPlantedDefects(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		plant      func(m *mem, o *oracle.Oracle)
	}{
		{"dropped acked write", "acked write lost", func(m *mem, o *oracle.Oracle) {
			m.drop = true
			o.Write(4, fill(7)(8))
			o.Read(0, 16)
		}},
		{"stale overwrite", "stale write applied", func(m *mem, o *oracle.Oracle) {
			o.Write(8, fill(1)(8))
			old := append([]byte(nil), m.b...)
			o.Write(8, fill(2)(8))
			copy(m.b, old) // a superseded writer's copy lands after the new one
			o.Sweep()
		}},
		{"overlapping write landed out of issue order", "stale write applied", func(m *mem, o *oracle.Oracle) {
			first := o.BeginWrite(4, fill(1)(8)) // spans stripes 0 and 1
			second := o.BeginWrite(0, fill(2)(8))
			copy(m.b, fill(2)(8))
			copy(m.b[4:], fill(1)(8)) // the first lands after the second
			second(nil)
			first(nil)
			o.Read(0, 16)
		}},
		{"untyped error", "not an expected typed loss", func(m *mem, o *oracle.Oracle) {
			m.readErr = errors.New("op timed out")
			o.Read(0, 8)
		}},
		{"typed error outside any lost region", "not an expected typed loss", func(m *mem, o *oracle.Oracle) {
			m.readErr, m.lost = errMedia, []oracle.Span{{Off: 24, Len: 8}}
			o.ExpectLoss()
			o.Read(0, 8)
		}},
		{"typed loss where none was expected", "not an expected typed loss", func(m *mem, o *oracle.Oracle) {
			m.readErr, m.lost = errMedia, []oracle.Span{{Off: 4, Len: 2}}
			o.Read(0, 8)
		}},
		{"failed read after the outage ended", "not an expected typed loss", func(m *mem, o *oracle.Oracle) {
			o.Outage()
			o.Restore()
			m.readErr = errors.New("op timed out")
			o.Sweep()
		}},
		{"open reduction at quiescence", "reductions still open", func(m *mem, o *oracle.Oracle) {
			m.leak = errors.New("server 1: 1 reductions still open")
			o.Quiesce()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &mem{b: make([]byte, 32)}
			o := oracle.New(m.device(), 32, 8, 1)
			tc.plant(m, o)
			if len(o.Violations) != 1 {
				t.Fatalf("%d violations, want 1: %v", len(o.Violations), o.Violations)
			}
			if v := o.Violations[0]; !strings.Contains(v.Detail, tc.want) || len(v.Events) != 1 {
				t.Fatalf("violation %q, want %q with the event tail", v, tc.want)
			}
		})
	}
}

// TestOracleExcusesWhatRAIDDoesNotPromise: the same faults where RAID owes
// nothing are not reported.
func TestOracleExcusesWhatRAIDDoesNotPromise(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(m *mem, o *oracle.Oracle)
	}{
		{"expected typed loss over a lost region", func(m *mem, o *oracle.Oracle) {
			m.readErr, m.lost = errMedia, []oracle.Span{{Off: 4, Len: 2}}
			o.ExpectLoss()
			o.Read(0, 8)
		}},
		{"untyped error inside an outage", func(m *mem, o *oracle.Oracle) {
			m.readErr = errors.New("op timed out")
			o.Outage()
			o.Read(0, 8)
		}},
		{"torn stripe, until repaired", func(m *mem, o *oracle.Oracle) {
			o.Tear(9, 2)
			m.b[15] = 9 // the write hole: bytes the torn write never named
			o.Read(8, 8)
			o.Repair(fill(3))
			o.Sweep()
		}},
		{"overlapping writes acked out of issue order", func(m *mem, o *oracle.Oracle) {
			first := o.BeginWrite(4, fill(1)(8)) // spans stripes 0 and 1
			second := o.BeginWrite(0, fill(2)(8))
			copy(m.b[4:], fill(1)(8)) // the first lands on stripe 0 ...
			copy(m.b, fill(2)(8))     // ... and the second after it there
			second(nil)
			first(nil) // acked last, for its stripe-1 part
			o.Read(0, 16)
			o.Sweep()
		}},
		{"read overlapping a write in flight", func(m *mem, o *oracle.Oracle) {
			end := o.BeginRead(0, 8)
			o.BeginWrite(4, fill(5)(2))(nil)
			end(make([]byte, 8), nil)
		}},
		{"leak a cut stranded, fenced", func(m *mem, o *oracle.Oracle) {
			o.Outage()
			o.Restore()
			m.leak = errors.New("server 1: 1 reductions still open")
			o.Quiesce()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &mem{b: make([]byte, 32)}
			o := oracle.New(m.device(), 32, 8, 1)
			tc.plant(m, o)
			if !o.Clean() {
				t.Fatalf("reported %v", o.Violations)
			}
		})
	}
}

package main

import (
	"bytes"
	"testing"
)

func TestGeneratorDeterminism(t *testing.T) {
	w, _ := findWorkload("rt-tcp-mix-16k")
	const size = 112 << 20
	draw := func(seed int64) ([]userOp, []byte) {
		var ops []userOp
		sh := newShadow(seed, size)
		payload := make([]byte, 0, 64*w.ioSize)
		buf := make([]byte, w.ioSize)
		for _, l := range newLanes(w, seed, size, inFlight) {
			for i := 0; i < 500; i++ {
				op := l.next()
				ops = append(ops, op)
				if !op.read && len(payload) < cap(payload) {
					sh.bump(op.off, w.ioSize)
					sh.fill(buf, op.off)
					payload = append(payload, buf...)
				}
			}
		}
		return ops, payload
	}
	opsA, payA := draw(5)
	opsB, payB := draw(5)
	opsC, payC := draw(6)
	if len(opsA) != len(opsB) || !bytes.Equal(payA, payB) {
		t.Fatal("same seed gave different payloads")
	}
	reads := 0
	for i := range opsA {
		if opsA[i] != opsB[i] {
			t.Fatalf("same seed, op %d differs: %+v vs %+v", i, opsA[i], opsB[i])
		}
		if opsA[i].read {
			reads++
		}
	}
	if share := float64(reads) / float64(len(opsA)); share < 0.6 || share > 0.8 {
		t.Errorf("read share %.2f, want about 0.7", share)
	}
	same := 0
	for i := range opsA {
		if opsA[i] == opsC[i] {
			same++
		}
	}
	if same > len(opsA)/10 || bytes.Equal(payA, payC) {
		t.Errorf("different seeds gave %d/%d equal ops", same, len(opsA))
	}
}

func TestLanesNeverOverlap(t *testing.T) {
	for _, w := range workloads {
		if w.sim {
			continue
		}
		const size = 112 << 20
		lanes := newLanes(w, 1, size, inFlight)
		for i, l := range lanes {
			lo, hi := l.base, l.base+l.slots*l.ioSize
			if i > 0 && lo < lanes[i-1].base+lanes[i-1].slots*lanes[i-1].ioSize {
				t.Errorf("%s: lane %d starts inside lane %d", w.name, i, i-1)
			}
			for k := 0; k < 1000; k++ {
				op := l.next()
				if op.off < lo || op.off+w.ioSize > hi || op.off%w.ioSize != 0 {
					t.Fatalf("%s: lane %d drew offset %d outside [%d,%d) or unaligned", w.name, i, op.off, lo, hi)
				}
			}
			if hi > size {
				t.Errorf("%s: lane %d ends past the device", w.name, i)
			}
		}
	}
}

func TestShadowCheckCatchesCorruptionAndStaleVersions(t *testing.T) {
	sh := newShadow(9, 1<<20)
	buf := make([]byte, 4*blockSize)
	sh.fill(buf, 8*blockSize)
	if !sh.check(buf, 8*blockSize) {
		t.Fatal("fresh image does not check")
	}
	for _, at := range []int{0, 7, blockSize + 31, 4*blockSize - 1} {
		buf[at] ^= 0x10
		if sh.check(buf, 8*blockSize) {
			t.Errorf("flipped bit at byte %d not caught", at)
		}
		buf[at] ^= 0x10
	}
	if sh.check(buf, 9*blockSize) {
		t.Error("image checked at the wrong offset")
	}
	sh.bump(9*blockSize, blockSize)
	if sh.check(buf, 8*blockSize) {
		t.Error("stale version of a rewritten block still checks")
	}
	if sh.check(buf[:blockSize+1], 8*blockSize) {
		t.Error("short read checks")
	}
}

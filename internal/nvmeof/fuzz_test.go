package nvmeof

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode feeds the one parser that faces the wire arbitrary frames: it
// must never panic, and whatever it accepts must be exactly what Encode
// writes — Decode(b).Encode() == b — so no two distinct frames decode to the
// same command and nothing rides along behind a capsule unparsed. One
// Decoder, shared across the inputs as a stream receiver's is, must agree
// with Decode on each: the same command or the same error. The seeds are
// valid capsules with and without sg-lists and the epoch extension, plus
// truncated, doubled, padded and bit-flipped copies of each.
func FuzzDecode(f *testing.F) {
	for _, c := range []Command{
		{ID: 1, Opcode: OpRead, NSID: 4, Offset: 8192, Length: 4096},
		{ID: 2, Opcode: OpWrite, NSID: 2, Offset: 4096, Length: 512, Epoch: 7},
		{ID: 3, Opcode: OpPartialWrite, Subtype: SubRMW, FwdOffset: 4096, FwdLength: 64 << 10,
			NextDest: 7, WaitNum: 3, NextDest2: 2, DataIdx: 5,
			SGL: []SGE{{Off: 0, Len: 100}, {Off: 500, Len: 200}}, SGL2: []SGE{{Off: 9, Len: 9}}},
		{ID: 4, Opcode: OpCompletion, Status: StatusStaleEpoch, SGL2: []SGE{{Off: 256, Len: 32}}, Epoch: 1 << 40},
	} {
		b := c.Encode()
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
		f.Add(append(b[:len(b):len(b)], b...))
		f.Add(append(b[:len(b):len(b)], 0, 0, 0))                   // 1–7 leftover bytes
		f.Add(append(b[:len(b):len(b)], make([]byte, 8)...))        // an explicit zero epoch
		f.Add(append(b[:len(b):len(b)], bytes.Repeat(b[:1], 9)...)) // epoch plus a tail
		flipped := bytes.Clone(b)
		flipped[55] ^= 0x01 // the SGL count
		f.Add(flipped)
	}
	var dec Decoder
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := Decode(b)
		dc, derr := dec.Decode(b)
		if (err == nil) != (derr == nil) || err != nil && err.Error() != derr.Error() {
			t.Fatalf("Decoder and Decode disagree on %x: %v vs %v", b, derr, err)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(dc, c) {
			t.Fatalf("Decoder decoded %x as %+v, Decode as %+v", b, dc, c)
		}
		if got := c.Encode(); !bytes.Equal(got, b) {
			t.Fatalf("Decode accepted %d bytes that Encode writes as %d:\n in  %x\n out %x", len(b), len(got), b, got)
		}
	})
}

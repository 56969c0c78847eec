package nvmeof

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cmd := Command{
		ID: 42, Opcode: OpPartialWrite, NSID: 3,
		Offset: 1 << 30, Length: 128 << 10,
		Subtype: SubRMW, FwdOffset: 4096, FwdLength: 64 << 10,
		NextDest: 7, WaitNum: 3, NextDest2: 2, DataIdx: 5,
		SGL:  []SGE{{Off: 0, Len: 100}, {Off: 500, Len: 200}},
		SGL2: []SGE{{Off: 9, Len: 9}},
	}
	b := cmd.Encode()
	if len(b) != cmd.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(b), cmd.EncodedSize())
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cmd) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, cmd)
	}
}

func TestDecodeTruncated(t *testing.T) {
	cmd := Command{ID: 1, Opcode: OpRead}
	b := cmd.Encode()
	if _, err := Decode(b[:10]); err == nil {
		t.Fatal("decoding truncated capsule should fail")
	}
	cmd.SGL = []SGE{{1, 2}}
	b = cmd.Encode()
	if _, err := Decode(b[:len(b)-4]); err == nil {
		t.Fatal("decoding truncated sg-list should fail")
	}
}

// Property: every capsule round-trips bit-exactly.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(id uint64, op, sub uint8, nsid uint32, off, length, fo, fl int64,
		nd, wn, nd2, di uint16, st uint8, sglRaw []uint32) bool {
		cmd := Command{
			ID: id, Opcode: Opcode(op), NSID: nsid,
			Offset: abs64(off), Length: abs64(length),
			Subtype: Subtype(sub), FwdOffset: abs64(fo), FwdLength: abs64(fl),
			NextDest: nd, WaitNum: wn, NextDest2: nd2, DataIdx: di,
			Status: Status(st),
		}
		for i := 0; i+1 < len(sglRaw) && i < 8; i += 2 {
			cmd.SGL = append(cmd.SGL, SGE{Off: int64(sglRaw[i]), Len: int64(sglRaw[i+1])})
		}
		got, err := Decode(cmd.Encode())
		return err == nil && reflect.DeepEqual(got, cmd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestEncodedSizeSmall(t *testing.T) {
	// The paper argues a few extra header bytes are immaterial for block
	// storage; still, the capsule must stay O(100) bytes.
	cmd := Command{Opcode: OpReconstruction, SGL: []SGE{{0, 1}, {2, 3}}}
	if cmd.EncodedSize() > 256 {
		t.Fatalf("capsule size %d bytes, want ≤ 256", cmd.EncodedSize())
	}
}

func TestOpcodeStrings(t *testing.T) {
	ops := map[Opcode]string{
		OpRead: "Read", OpWrite: "Write", OpPartialWrite: "PartialWrite",
		OpParity: "Parity", OpReconstruction: "Reconstruction", OpPeer: "Peer",
		OpCompletion: "Completion", Opcode(0x55): "Opcode(0x55)",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%v.String() = %q, want %q", uint8(op), op.String(), want)
		}
	}
}

func TestSubtypeAndStatusStrings(t *testing.T) {
	for _, s := range []Subtype{SubNone, SubRMW, SubRWWrite, SubRWRead, SubAlsoRead, SubNoRead, Subtype(99)} {
		if s.String() == "" {
			t.Fatal("empty subtype string")
		}
	}
	for _, s := range []Status{StatusSuccess, StatusError, StatusTimeout, Status(9)} {
		if s.String() == "" {
			t.Fatal("empty status string")
		}
	}
}

func TestCommandString(t *testing.T) {
	c := Command{ID: 7, Opcode: OpPartialWrite, Subtype: SubRMW, NextDest: 3, WaitNum: 2}
	s := c.String()
	for _, want := range []string{"PartialWrite", "RMW", "dest=3", "wait=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("capsule string %q missing %q", s, want)
		}
	}
	comp := Command{Opcode: OpCompletion, Status: StatusTimeout}
	if !strings.Contains(comp.String(), "timeout") {
		t.Error("completion string missing status")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cmd := Command{ID: rng.Uint64(), Opcode: OpPeer, Offset: 123, Length: 456}
	a, b := cmd.Encode(), cmd.Encode()
	if len(a) != len(b) {
		t.Fatal("non-deterministic encoding")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic encoding")
		}
	}
}

func TestMediaErrorStatusRoundTrip(t *testing.T) {
	c := Command{ID: 9, Opcode: OpCompletion, NSID: 2, Offset: 4096, Length: 512, Status: StatusMediaError}
	got, err := Decode(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusMediaError || got.Offset != 4096 || got.Length != 512 {
		t.Fatalf("round trip = %+v", got)
	}
	if StatusMediaError.String() != "media-error" {
		t.Fatalf("String() = %q", StatusMediaError.String())
	}
}

func TestCommandChecksumDetectsFieldChange(t *testing.T) {
	c := Command{ID: 1, Opcode: OpWrite, Offset: 100, Length: 200}
	sum := c.Checksum()
	if c.Checksum() != sum {
		t.Fatal("checksum not stable")
	}
	c.Offset++
	if c.Checksum() == sum {
		t.Fatal("checksum blind to a field change")
	}
}

// TestDecoderNeverSharesSGLStorage: capsules a Decoder decodes back to back
// get disjoint sg-list entries, each list capped at its own length, so
// neither writing into one command's lists nor appending to them can reach
// another's — and the entries come from shared blocks, not one allocation
// per capsule.
func TestDecoderNeverSharesSGLStorage(t *testing.T) {
	a := Command{ID: 1, Opcode: OpPartialWrite, SGL: []SGE{{Off: 1, Len: 2}}, SGL2: []SGE{{Off: 3, Len: 4}, {Off: 5, Len: 6}}}
	b := Command{ID: 2, Opcode: OpReconstruction, Subtype: SubAlsoRead, SGL: []SGE{{Off: 7, Len: 8}}}
	wa, wb := a.Encode(), b.Encode()
	var dec Decoder
	da, err := dec.Decode(wa)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dec.Decode(wb)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(da, a) || !reflect.DeepEqual(db, b) {
		t.Fatalf("decoded %+v and %+v, want %+v and %+v", da, db, a, b)
	}
	for _, l := range [][]SGE{da.SGL, da.SGL2, db.SGL} {
		if cap(l) != len(l) {
			t.Fatalf("sg-list of length %d has capacity %d: an append would run into the next list", len(l), cap(l))
		}
	}
	_ = append(da.SGL2, SGE{Off: 99, Len: 99})
	da.SGL[0], da.SGL2[1] = SGE{Off: -1}, SGE{Off: -1}
	if !reflect.DeepEqual(db, b) {
		t.Fatalf("writing into the first command's lists changed the second: %+v", db)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := dec.Decode(wa); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0.05 {
		t.Fatalf("Decoder allocates %.2f objects per capsule with sg-lists, want one block per %d entries", allocs, sgeBlock)
	}
}

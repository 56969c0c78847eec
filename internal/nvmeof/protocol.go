// Package nvmeof defines the command capsules exchanged between the dRAID
// host and the server-side controllers: standard NVMe-oF Read/Write plus the
// four dRAID extension opcodes of the paper's §4 (Figure 5) — PartialWrite,
// Parity, Reconstruction, and Peer — with the extended command parameters
// (subtype, fwd-offset/fwd-length, next-dest, wait-num, scatter-gather list)
// and the RAID-6 "other command data" (second destination, data index).
//
// Capsules have a binary wire format (Encode/Decode) used for size
// accounting on the simulated fabric and validated by round-trip tests;
// within the simulation, decoded structs are passed by value.
package nvmeof

import (
	"encoding/binary"
	"fmt"

	"draid/internal/integrity"
)

// Opcode identifies the operation in a capsule.
type Opcode uint8

// Standard NVMe-oF opcodes plus dRAID extensions (§4).
const (
	OpRead  Opcode = 0x02
	OpWrite Opcode = 0x01
	// OpPartialWrite instructs a data bdev to execute its share of a
	// partial stripe write and forward a partial parity (Algorithm 1).
	OpPartialWrite Opcode = 0x81
	// OpParity instructs the parity bdev to run the Reduce phase
	// (Algorithm 2).
	OpParity Opcode = 0x82
	// OpReconstruction instructs a bdev to take part in degraded-read
	// reconstruction (§6.1).
	OpReconstruction Opcode = 0x83
	// OpPeer carries a partial result between bdevs without host
	// involvement.
	OpPeer Opcode = 0x84
	// OpHeartbeat is a liveness probe: a healthy bdev completes it
	// immediately, a failed drive reports error status, and a down node
	// never answers — the probe deadline is the detector's evidence.
	OpHeartbeat Opcode = 0x85
	// OpFence severs a dead controller session (§5.4 failover): the bdev
	// discards every reduction and drops every later-arriving command of
	// the fence's namespace with an ID below the fence's own, and completes
	// once the drive writes in flight at its arrival have landed. A
	// replacement controller fences all bdevs before resyncing, so no
	// straggler write from the crashed controller can land after the resync
	// read what it took to be the final data.
	OpFence Opcode = 0x86
	// OpCompletion reports a final state back to the host.
	OpCompletion Opcode = 0x8F
)

// String names the opcode.
func (o Opcode) String() string {
	switch o {
	case OpRead:
		return "Read"
	case OpWrite:
		return "Write"
	case OpPartialWrite:
		return "PartialWrite"
	case OpParity:
		return "Parity"
	case OpReconstruction:
		return "Reconstruction"
	case OpPeer:
		return "Peer"
	case OpHeartbeat:
		return "Heartbeat"
	case OpFence:
		return "Fence"
	case OpCompletion:
		return "Completion"
	}
	return fmt.Sprintf("Opcode(%#x)", uint8(o))
}

// Subtype refines an opcode's behaviour (§5.1, §6.1).
type Subtype uint8

// Subtypes used by the dRAID opcodes.
const (
	SubNone Subtype = iota
	// SubRMW: read-modify-write — read old data, xor with new.
	SubRMW
	// SubRWWrite: reconstruct-write at a written chunk — partial parity is
	// the new data (plus any unwritten remainder read from the drive).
	SubRWWrite
	// SubRWRead: reconstruct-write at an untouched chunk — partial parity
	// is the stored data.
	SubRWRead
	// SubAlsoRead: reconstruction participant whose chunk is also being
	// read normally by the user request.
	SubAlsoRead
	// SubNoRead: reconstruction participant contributing only to the
	// rebuild.
	SubNoRead
)

// String names the subtype.
func (s Subtype) String() string {
	switch s {
	case SubNone:
		return "None"
	case SubRMW:
		return "RMW"
	case SubRWWrite:
		return "RW_WRITE"
	case SubRWRead:
		return "RW_READ"
	case SubAlsoRead:
		return "AlsoRead"
	case SubNoRead:
		return "NoRead"
	}
	return fmt.Sprintf("Subtype(%d)", uint8(s))
}

// Status is a completion code.
type Status uint8

// Completion statuses (§5.4: success / failed / timed-out are the final
// states an operation must reach before the host may retry).
const (
	StatusSuccess Status = iota
	StatusError
	StatusTimeout
	// StatusMediaError reports a per-chunk erasure: the bdev is alive but a
	// byte range of the addressed chunk is unreadable (drive URE) or failed
	// its end-to-end checksum (bit rot). The completion echoes the bad range
	// in Offset/Length so the host can reconstruct exactly what is missing.
	StatusMediaError
	// StatusStaleEpoch rejects a command whose Epoch is below the bdev's
	// current epoch for the namespace: the sender is a superseded host — it
	// lost the volume to a takeover (possibly while partitioned) — and its
	// command was discarded without touching the drive. The sender must stand
	// down, not retry.
	StatusStaleEpoch
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "success"
	case StatusError:
		return "error"
	case StatusTimeout:
		return "timeout"
	case StatusMediaError:
		return "media-error"
	case StatusStaleEpoch:
		return "stale-epoch"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// SGE is one scatter-gather element: a byte range relative to the chunk.
type SGE struct {
	Off int64
	Len int64
}

// Command is a dRAID command capsule.
type Command struct {
	ID     uint64 // host-assigned command identifier
	Opcode Opcode
	NSID   uint32 // namespace: the target bdev's ID on its server
	Offset int64  // drive-relative byte offset of the primary segment
	Length int64  // length of the primary segment

	// dRAID command parameters (§4).
	Subtype   Subtype
	FwdOffset int64  // chunk-relative offset of the forwarded segment
	FwdLength int64  // length of the forwarded segment
	NextDest  uint16 // node index of the forwarding destination (reducer)
	WaitNum   uint16 // how many partial results the reducer must expect
	SGL       []SGE  // additional segments (sg-list)

	// RAID-6 "other command data": the Q reducer and the GF coefficient
	// index for this chunk's contribution.
	NextDest2 uint16
	DataIdx   uint16
	SGL2      []SGE

	// Completion-only fields.
	Status Status

	// Epoch is the sender's host epoch for the namespace (membership
	// fencing): bdevs reject commands below their current epoch with
	// StatusStaleEpoch, and completions echo the command's epoch so a host
	// can discard answers addressed to a predecessor. Zero means epoch
	// fencing is off for this capsule; it is encoded as a trailing extension
	// only when set, so legacy capsules are byte-identical.
	Epoch uint64
}

const fixedEncodedSize = 8 + 1 + 4 + 8 + 8 + 1 + 8 + 8 + 2 + 2 + 2 + 2 + 1 + 2 + 2 // see Encode

// EncodedSize returns the wire size of the capsule in bytes.
func (c *Command) EncodedSize() int {
	n := fixedEncodedSize + 16*(len(c.SGL)+len(c.SGL2))
	if c.Epoch != 0 {
		n += 8
	}
	return n
}

// Encode serializes the capsule.
func (c *Command) Encode() []byte {
	return c.AppendEncode(make([]byte, 0, c.EncodedSize()))
}

// AppendEncode appends the serialized capsule to out and returns the
// extended slice, for senders that frame capsules into a reused buffer.
func (c *Command) AppendEncode(out []byte) []byte {
	le := binary.LittleEndian
	out = le.AppendUint64(out, c.ID)
	out = append(out, byte(c.Opcode))
	out = le.AppendUint32(out, c.NSID)
	out = le.AppendUint64(out, uint64(c.Offset))
	out = le.AppendUint64(out, uint64(c.Length))
	out = append(out, byte(c.Subtype))
	out = le.AppendUint64(out, uint64(c.FwdOffset))
	out = le.AppendUint64(out, uint64(c.FwdLength))
	out = le.AppendUint16(out, c.NextDest)
	out = le.AppendUint16(out, c.WaitNum)
	out = le.AppendUint16(out, c.NextDest2)
	out = le.AppendUint16(out, c.DataIdx)
	out = append(out, byte(c.Status))
	out = le.AppendUint16(out, uint16(len(c.SGL)))
	out = le.AppendUint16(out, uint16(len(c.SGL2)))
	for _, sgl := range [2][]SGE{c.SGL, c.SGL2} {
		for _, s := range sgl {
			out = le.AppendUint64(out, uint64(s.Off))
			out = le.AppendUint64(out, uint64(s.Len))
		}
	}
	if c.Epoch != 0 {
		out = le.AppendUint64(out, c.Epoch)
	}
	return out
}

// Checksum returns the CRC32C of the encoded capsule — the command-level
// integrity check a receiving NIC runs before accepting a capsule. The
// fabric layer uses it to model in-flight corruption: a capsule whose
// checksum fails verification is discarded at the receiver, and the sender's
// §5.4 timeout/retry machinery takes over.
func (c *Command) Checksum() uint32 { return integrity.Checksum(c.Encode()) }

// Decode parses exactly one capsule: b must be what Encode produced, so that
// Decode(b).Encode() equals b byte for byte. Truncation is an error, and so
// is anything after the SG lists other than the 8-byte extension holding a
// non-zero epoch. Each sg-list is a fresh allocation; a receiver decoding a
// stream uses a Decoder.
func Decode(b []byte) (Command, error) { return (*Decoder)(nil).Decode(b) }

// sgeBlock is how many sg-list entries a Decoder carves from one block.
const sgeBlock = 256

// Decoder decodes capsules as Decode does, but carves their sg-lists from
// blocks it never reuses: a block is written once, entry by entry, and left
// to the garbage collector with the last command that references it. So a
// decoded command's SGL and SGL2 stay valid for as long as anyone holds it,
// no two commands share an entry, and decoding a stream allocates one object
// per sgeBlock entries rather than one per capsule. Each list is capped at
// its own length, so an append copies instead of running into a neighbour.
// A Decoder is for one goroutine; a nil *Decoder allocates each list exactly.
type Decoder struct {
	block []SGE
}

// carve returns n fresh entries.
func (d *Decoder) carve(n int) []SGE {
	if d == nil {
		return make([]SGE, n)
	}
	if len(d.block) < n {
		d.block = make([]SGE, max(n, sgeBlock))
	}
	s := d.block[:n:n]
	d.block = d.block[n:]
	return s
}

// Decode parses exactly one capsule, under Decode's rules.
func (d *Decoder) Decode(b []byte) (Command, error) {
	var c Command
	if len(b) < fixedEncodedSize {
		return c, fmt.Errorf("nvmeof: capsule truncated at %d bytes", len(b))
	}
	le := binary.LittleEndian
	c.ID = le.Uint64(b[0:])
	c.Opcode = Opcode(b[8])
	c.NSID = le.Uint32(b[9:])
	c.Offset = int64(le.Uint64(b[13:]))
	c.Length = int64(le.Uint64(b[21:]))
	c.Subtype = Subtype(b[29])
	c.FwdOffset = int64(le.Uint64(b[30:]))
	c.FwdLength = int64(le.Uint64(b[38:]))
	c.NextDest = le.Uint16(b[46:])
	c.WaitNum = le.Uint16(b[48:])
	c.NextDest2 = le.Uint16(b[50:])
	c.DataIdx = le.Uint16(b[52:])
	c.Status = Status(b[54])
	n1 := int(le.Uint16(b[55:]))
	n2 := int(le.Uint16(b[57:]))
	rest := b[fixedEncodedSize:]
	if len(rest) < 16*(n1+n2) {
		return c, fmt.Errorf("nvmeof: sg-list truncated: have %d bytes, need %d", len(rest), 16*(n1+n2))
	}
	if trail := len(rest) - 16*(n1+n2); trail != 0 {
		if trail != 8 || le.Uint64(rest[16*(n1+n2):]) == 0 {
			return c, fmt.Errorf("nvmeof: %d bytes after the sg-lists, want none or a non-zero 8-byte epoch", trail)
		}
		c.Epoch = le.Uint64(rest[16*(n1+n2):])
	}
	read := func(n int) []SGE {
		if n == 0 {
			return nil
		}
		out := d.carve(n)
		for i := range out {
			out[i] = SGE{Off: int64(le.Uint64(rest[0:])), Len: int64(le.Uint64(rest[8:]))}
			rest = rest[16:]
		}
		return out
	}
	c.SGL = read(n1)
	c.SGL2 = read(n2)
	return c, nil
}

// SpanName returns the short label used for trace spans: the opcode, plus
// the subtype when it refines behaviour ("PartialWrite/RMW").
func (c *Command) SpanName() string {
	if c.Subtype != SubNone {
		return c.Opcode.String() + "/" + c.Subtype.String()
	}
	return c.Opcode.String()
}

// String renders a compact human-readable capsule summary for traces.
func (c *Command) String() string {
	s := fmt.Sprintf("%v id=%d ns=%d off=%d len=%d", c.Opcode, c.ID, c.NSID, c.Offset, c.Length)
	if c.Subtype != SubNone {
		s += " sub=" + c.Subtype.String()
	}
	if c.Opcode == OpParity || c.Opcode == OpPartialWrite || c.Opcode == OpReconstruction {
		s += fmt.Sprintf(" fwd=[%d,%d) dest=%d wait=%d", c.FwdOffset, c.FwdOffset+c.FwdLength, c.NextDest, c.WaitNum)
	}
	if c.Opcode == OpCompletion {
		s += " status=" + c.Status.String()
	}
	if c.Epoch != 0 {
		s += fmt.Sprintf(" epoch=%d", c.Epoch)
	}
	return s
}

package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"sage/internal/genome"
)

// Container layout (all multi-byte integers are unsigned varints):
//
//	magic    "SAGe"
//	version  u8 (2; 1 is still read)
//	flags    u8 (hasQuality | hasHeaders<<1 | embedConsensus<<2 |
//	             fixedReadLen<<3 | consensusHasN<<4)
//	numReads
//	consensusLen
//	maxReadLen
//	fixedReadLen          (only when the fixedReadLen flag is set)
//	association tables    5 × (u8 count, count × u8 widths):
//	                      matchDelta, mismatchDelta, mismatchCount,
//	                      readLen, indelLen
//	consensus             (only when embedded) 2-bit packed, or 3-bit
//	                      packed when consensusHasN
//	streams               5 × (bitLen, byteLen, bytes):
//	                      MPGA, MPA, MMPGA, MMPA, MBTA
//	quality stream        (len, bytes) when hasQuality; coded by
//	                      qual.Compress in version 2 and by the legacy
//	                      bit-serial coder (qual.DecompressV1) in
//	                      version 1, the only difference between them
//	header stream         (len, bytes) when hasHeaders
//
// The five stream sections are stored in full before decoding starts; the
// decoder then walks all five with strictly forward cursors, mirroring the
// hardware's streaming access pattern (§5.2.1: "the SU and the RCU do not
// rely on large buffers, and instead only require small registers").

var magic = [4]byte{'S', 'A', 'G', 'e'}

// IsContainer reports whether data starts with the single-block
// container magic ("SAGe", vs "SAGS" for a sharded container). Callers
// use it to give shape-specific errors when dispatching.
func IsContainer(data []byte) bool {
	return len(data) >= len(magic) && bytes.Equal(data[:len(magic)], magic[:])
}

// formatVersion is the block version the writer emits. Version 1
// blocks, whose quality stream uses the legacy bit-serial coder, are
// still read; docs/FORMAT.md ("Core block version 2: quality stream")
// specifies the difference.
const (
	formatVersion       = 2
	legacyFormatVersion = 1
)

// Flag bits.
const (
	flagQuality = 1 << iota
	flagHeaders
	flagEmbedConsensus
	flagFixedReadLen
	flagConsensusHasN
)

// Table indices.
const (
	tabMatchDelta = iota
	tabMismatchDelta
	tabMismatchCount
	tabReadLen
	tabIndelLen
	numTables
)

// header is the decoded container header.
type header struct {
	flags        uint8
	numReads     int
	consensusLen int
	maxReadLen   int
	fixedReadLen int
	tables       [numTables]*AssociationTable
	consensus    genome.Seq // nil unless embedded
}

func (h *header) has(flag uint8) bool { return h.flags&flag != 0 }

// stream holds one serialized bit stream section.
type stream struct {
	bits uint64
	data []byte
}

// container is the fully parsed file.
type container struct {
	version uint8
	hdr     header
	streams [5]stream // MPGA, MPA, MMPGA, MMPA, MBTA
	quality []byte
	headers []byte
}

// Stream indices.
const (
	sMPGA = iota
	sMPA
	sMMPGA
	sMMPA
	sMBTA
)

var streamNames = [5]string{"MPGA", "MPA", "MMPGA", "MMPA", "MBTA"}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func (c *container) marshal() ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(formatVersion)
	buf.WriteByte(c.hdr.flags)
	writeUvarint(&buf, uint64(c.hdr.numReads))
	writeUvarint(&buf, uint64(c.hdr.consensusLen))
	writeUvarint(&buf, uint64(c.hdr.maxReadLen))
	if c.hdr.has(flagFixedReadLen) {
		writeUvarint(&buf, uint64(c.hdr.fixedReadLen))
	}
	for i, t := range c.hdr.tables {
		if t == nil {
			return nil, fmt.Errorf("core: missing association table %d", i)
		}
		buf.WriteByte(uint8(len(t.Widths)))
		for _, w := range t.Widths {
			buf.WriteByte(w)
		}
	}
	if c.hdr.has(flagEmbedConsensus) {
		f := genome.Format2Bit
		if c.hdr.has(flagConsensusHasN) {
			f = genome.Format3Bit
		}
		enc, err := genome.Encode(c.hdr.consensus, f)
		if err != nil {
			return nil, fmt.Errorf("core: packing consensus: %w", err)
		}
		buf.Write(enc)
	}
	for _, s := range c.streams {
		writeUvarint(&buf, s.bits)
		writeUvarint(&buf, uint64(len(s.data)))
		buf.Write(s.data)
	}
	if c.hdr.has(flagQuality) {
		writeUvarint(&buf, uint64(len(c.quality)))
		buf.Write(c.quality)
	}
	if c.hdr.has(flagHeaders) {
		writeUvarint(&buf, uint64(len(c.headers)))
		buf.Write(c.headers)
	}
	return buf.Bytes(), nil
}

func parseContainer(data []byte) (*container, error) {
	rd := bytes.NewReader(data)
	var m [4]byte
	if _, err := io.ReadFull(rd, m[:]); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("core: bad magic %q", m)
	}
	ver, err := rd.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != formatVersion && ver != legacyFormatVersion {
		return nil, fmt.Errorf("core: unsupported version %d", ver)
	}
	c := &container{version: ver}
	flags, err := rd.ReadByte()
	if err != nil {
		return nil, err
	}
	c.hdr.flags = flags
	ru := func() (int, error) {
		v, err := binary.ReadUvarint(rd)
		if err != nil {
			return 0, err
		}
		if v > 1<<40 {
			return 0, fmt.Errorf("core: implausible size field %d", v)
		}
		return int(v), nil
	}
	// rb reads a byte-count field and bounds it by the remaining input,
	// so corrupt containers cannot trigger huge allocations.
	rb := func(what string) (int, error) {
		n, err := ru()
		if err != nil {
			return 0, err
		}
		if n > rd.Len() {
			return 0, fmt.Errorf("core: %s (%d bytes) exceeds remaining input (%d)", what, n, rd.Len())
		}
		return n, nil
	}
	if c.hdr.numReads, err = ru(); err != nil {
		return nil, err
	}
	// Every read costs at least one encoded bit, so the read count is
	// bounded by the container's bit length.
	if uint64(c.hdr.numReads) > uint64(len(data))*8 {
		return nil, fmt.Errorf("core: implausible read count %d for a %d-byte container", c.hdr.numReads, len(data))
	}
	if c.hdr.consensusLen, err = ru(); err != nil {
		return nil, err
	}
	if c.hdr.maxReadLen, err = ru(); err != nil {
		return nil, err
	}
	// Mapped reads can be at most consensus-sized (plus insertions paid
	// for in stream bits); unmapped reads are stored at >= 2 bits per
	// base. Anything beyond that bound is corruption, and rejecting it
	// keeps read-length claims from driving huge allocations.
	if uint64(c.hdr.maxReadLen) > uint64(c.hdr.consensusLen)+uint64(len(data))*8 {
		return nil, fmt.Errorf("core: implausible max read length %d (consensus %d, container %d bytes)",
			c.hdr.maxReadLen, c.hdr.consensusLen, len(data))
	}
	if c.hdr.has(flagFixedReadLen) {
		if c.hdr.fixedReadLen, err = ru(); err != nil {
			return nil, err
		}
	}
	for i := range c.hdr.tables {
		n, err := rd.ReadByte()
		if err != nil {
			return nil, err
		}
		widths := make([]uint8, n)
		if _, err := io.ReadFull(rd, widths); err != nil {
			return nil, err
		}
		tab, err := NewAssociationTable(widths)
		if err != nil {
			return nil, fmt.Errorf("core: table %d: %w", i, err)
		}
		c.hdr.tables[i] = tab
	}
	if c.hdr.has(flagEmbedConsensus) {
		f := genome.Format2Bit
		nBytes := (c.hdr.consensusLen + 3) / 4
		if c.hdr.has(flagConsensusHasN) {
			f = genome.Format3Bit
			nBytes = (c.hdr.consensusLen*3 + 7) / 8
		}
		if nBytes > rd.Len() {
			return nil, fmt.Errorf("core: consensus (%d bytes) exceeds remaining input (%d)", nBytes, rd.Len())
		}
		packed := make([]byte, nBytes)
		if _, err := io.ReadFull(rd, packed); err != nil {
			return nil, fmt.Errorf("core: reading consensus: %w", err)
		}
		cons, err := genome.Decode(packed, c.hdr.consensusLen, f)
		if err != nil {
			return nil, fmt.Errorf("core: unpacking consensus: %w", err)
		}
		c.hdr.consensus = cons
	}
	for i := range c.streams {
		bits, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, fmt.Errorf("core: stream %s bits: %w", streamNames[i], err)
		}
		nBytes, err := rb(fmt.Sprintf("stream %s", streamNames[i]))
		if err != nil {
			return nil, fmt.Errorf("core: stream %s length: %w", streamNames[i], err)
		}
		if bits > uint64(nBytes)*8 {
			return nil, fmt.Errorf("core: stream %s claims %d bits in %d bytes", streamNames[i], bits, nBytes)
		}
		buf := make([]byte, nBytes)
		if _, err := io.ReadFull(rd, buf); err != nil {
			return nil, fmt.Errorf("core: stream %s body: %w", streamNames[i], err)
		}
		c.streams[i] = stream{bits: bits, data: buf}
	}
	if c.hdr.has(flagQuality) {
		n, err := rb("quality stream")
		if err != nil {
			return nil, err
		}
		c.quality = make([]byte, n)
		if _, err := io.ReadFull(rd, c.quality); err != nil {
			return nil, err
		}
	}
	if c.hdr.has(flagHeaders) {
		n, err := rb("header stream")
		if err != nil {
			return nil, err
		}
		c.headers = make([]byte, n)
		if _, err := io.ReadFull(rd, c.headers); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Inspect renders a human-readable summary of a container: header fields,
// tuned association tables, and per-stream sizes. It does not decode read
// data.
func Inspect(data []byte) (string, error) {
	c, err := parseContainer(data)
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "SAGe container v%d, %d bytes\n", c.version, len(data))
	fmt.Fprintf(&b, "reads: %d, consensus: %d bases (embedded: %v), max read length: %d\n",
		c.hdr.numReads, c.hdr.consensusLen, c.hdr.has(flagEmbedConsensus), c.hdr.maxReadLen)
	if c.hdr.has(flagFixedReadLen) {
		fmt.Fprintf(&b, "fixed read length: %d\n", c.hdr.fixedReadLen)
	}
	fmt.Fprintf(&b, "quality: %v (%d bytes), headers: %v (%d bytes)\n",
		c.hdr.has(flagQuality), len(c.quality), c.hdr.has(flagHeaders), len(c.headers))
	names := []string{"matchDelta", "mismatchDelta", "mismatchCount", "readLen", "indelLen"}
	for i, t := range c.hdr.tables {
		fmt.Fprintf(&b, "table %-13s widths (by code rank): %v\n", names[i], t.Widths)
	}
	for i, s := range c.streams {
		fmt.Fprintf(&b, "stream %-6s %10d bits (%d bytes)\n", streamNames[i], s.bits, len(s.data))
	}
	return b.String(), nil
}

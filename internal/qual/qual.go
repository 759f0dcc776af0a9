package qual

import (
	"encoding/binary"
	"fmt"

	"sage/internal/fastq"
)

// Context buckets shared by both coders: the previous score quantized
// to 16 buckets, the score before that to 8.
const (
	prev1Buckets = 16
	prev2Buckets = 8
)

// Compress encodes the concatenated quality strings of reads losslessly.
// Per-read lengths are NOT stored: the decoder receives them from the DNA
// side of the container, which keeps the stream aligned with the bases
// (§5.1.5: "SAGe maintains the same order for DNA bases and quality
// scores").
//
// The stream is an 8-byte little-endian body length followed by the
// range-coder body. Each score s is coded as s>>3 in its context's table
// 0, then s&7 in table 1+(s>>3).
func Compress(quals [][]byte) ([]byte, error) {
	enc := getEncoder()
	defer putEncoder(enc)
	m := getModel()
	defer modelPool.Put(m)
	for _, q := range quals {
		q1, q2 := 0, 0
		for _, s := range q {
			if s > fastq.MaxQuality {
				return nil, fmt.Errorf("qual: score %d exceeds alphabet max %d", s, fastq.MaxQuality)
			}
			cm := &m[contextIndex(q1, q2)]
			hi := int(s >> 3)
			enc.encodeSym(&cm[0], hi)
			enc.encodeSym(&cm[1+hi], int(s&7))
			q2, q1 = q1, int(s)
		}
	}
	return frame(enc.flush()), nil
}

// frame prefixes a range-coder body with its length.
func frame(body []byte) []byte {
	out := make([]byte, 8+len(body))
	binary.LittleEndian.PutUint64(out, uint64(len(body)))
	copy(out[8:], body)
	return out
}

// unframe returns the range-coder body of a stream.
func unframe(data []byte) ([]byte, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("qual: truncated stream header")
	}
	bodyLen := binary.LittleEndian.Uint64(data)
	if uint64(len(data)-8) < bodyLen {
		return nil, fmt.Errorf("qual: stream body truncated: have %d want %d", len(data)-8, bodyLen)
	}
	return data[8 : 8+bodyLen], nil
}

// scoreBuffers carves one flat buffer into per-read score slices.
// All scores decode into it, sub-sliced per read (capacity-clipped, so
// an appending caller reallocates rather than overruns a neighbor): two
// allocations for the whole block instead of one per read. The per-read
// slices share backing memory and are retained together — the same
// ownership rule batch records follow.
func scoreBuffers(lengths []int) [][]byte {
	total := 0
	for _, l := range lengths {
		total += l
	}
	flat := make([]byte, total)
	out := make([][]byte, len(lengths))
	for r, l := range lengths {
		out[r] = flat[:l:l]
		flat = flat[l:]
	}
	return out
}

// Decompress decodes scores for reads with the given lengths from a
// stream written by Compress. Malformed input decodes to some scores in
// range (or an error), never a panic or a hang: every symbol interval is
// at least cdfFloor wide, so each decision consumes a bounded number of
// input bytes.
func Decompress(data []byte, lengths []int) ([][]byte, error) {
	body, err := unframe(data)
	if err != nil {
		return nil, err
	}
	m := getModel()
	defer modelPool.Put(m)
	out := scoreBuffers(lengths)
	// The coder state lives in locals so it stays in registers across
	// the whole block.
	var d rcDecoder
	d.init(body)
	rng, code, pos := d.rng, d.code, d.pos
	var bound [cdfSyms + 1]uint32
	for _, q := range out {
		q1, q2 := 0, 0
		for i := range q {
			cm := &m[contextIndex(q1, q2)]
			c := &cm[0]
			s := 0
			for step := 0; step < 2; step++ {
				// One 8-ary decision: the symbol is the number of
				// interior bounds r*c[i] at or below code, counted
				// without branches (the borrow of bound-code-1 is
				// set exactly when code >= bound).
				r := rng >> cdfBits
				w0, w1 := c[0], c[1]
				bound[1] = r * uint32(w0>>16&0xFFFF)
				bound[2] = r * uint32(w0>>32&0xFFFF)
				bound[3] = r * uint32(w0>>48)
				bound[4] = r * uint32(w1&0xFFFF)
				bound[5] = r * uint32(w1>>16&0xFFFF)
				bound[6] = r * uint32(w1>>32&0xFFFF)
				bound[7] = r * uint32(w1>>48)
				bound[8] = rng
				x := uint64(code) + 1
				sym := int((uint64(bound[1])-x)>>63 + (uint64(bound[2])-x)>>63 +
					(uint64(bound[3])-x)>>63 + (uint64(bound[4])-x)>>63 +
					(uint64(bound[5])-x)>>63 + (uint64(bound[6])-x)>>63 +
					(uint64(bound[7])-x)>>63)
				lo := bound[sym]
				code -= lo
				rng = bound[sym+1] - lo
				c.update(sym)
				for rng < topValue {
					code <<= 8
					if pos < len(body) {
						code |= uint32(body[pos])
						pos++
					}
					rng <<= 8
				}
				s = s<<3 | sym
				c = &cm[1+sym]
			}
			q[i] = byte(s)
			q2, q1 = q1, s
		}
	}
	return out, nil
}

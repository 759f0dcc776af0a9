// Package qual implements SAGe's lossless quality-score codec (§5.1.5).
//
// Quality scores lack the long-range redundancy of DNA bases, so SAGe —
// like Spring and the other genomic compressors it cites — compresses them
// as a separate stream with a context model conditioned on the two
// preceding scores in the read. Each Phred score is coded as two 8-ary
// decisions (its high and low three bits) with adaptive cumulative
// frequency tables on a range coder, so decoding one score costs two
// branch-free multiply-compare steps. Decompression runs on the host CPU
// in the paper; the codec here backs both the SAGe container and the
// Spring-like baseline, so their quality ratios match (Table 2: "SAGe's
// quality score (de)compression is based on the same software used in
// [Spring]").
//
// DecompressV1 keeps the original bit-serial coder (six adaptive binary
// decisions per score) readable for containers written before core
// block version 2; nothing writes that stream any more.
package qual

// The range coder follows the carry-propagating construction used by
// LZMA: 32-bit range, renormalised a byte at a time below 2^24.

import "sync"

// topValue is the renormalisation threshold: the coder shifts out a
// byte whenever the range drops below it.
const topValue = 1 << 24

type rcEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
}

// encPool recycles encoders (and with them the grown output buffer)
// across calls and workers. flush hands out a view of e.out, so callers
// must copy the body before putEncoder returns the buffer to the pool.
var encPool = sync.Pool{New: func() any { return new(rcEncoder) }}

func getEncoder() *rcEncoder {
	e := encPool.Get().(*rcEncoder)
	e.low, e.rng, e.cache, e.cacheSize, e.out = 0, 0xFFFFFFFF, 0, 1, e.out[:0]
	return e
}

func putEncoder(e *rcEncoder) { encPool.Put(e) }

func (e *rcEncoder) shiftLow() {
	if e.low < 0xFF000000 || e.low > 0xFFFFFFFF {
		temp := e.cache
		for {
			e.out = append(e.out, byte(uint64(temp)+(e.low>>32)))
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(e.low >> 24)
	}
	e.cacheSize++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

func (e *rcEncoder) flush() []byte {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return e.out
}

type rcDecoder struct {
	rng  uint32
	code uint32
	in   []byte
	pos  int
}

// init primes a (possibly stack-allocated) decoder over in.
func (d *rcDecoder) init(in []byte) {
	*d = rcDecoder{rng: 0xFFFFFFFF, in: in}
	// The first output byte of the encoder is always 0 (cache priming);
	// consume it plus 4 code bytes.
	for i := 0; i < 5; i++ {
		d.code = d.code<<8 | uint32(d.next())
	}
}

func (d *rcDecoder) next() byte {
	if d.pos < len(d.in) {
		b := d.in[d.pos]
		d.pos++
		return b
	}
	return 0
}

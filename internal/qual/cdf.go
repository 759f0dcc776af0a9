package qual

import "sync"

// Adaptive 8-symbol cumulative frequency tables (core block version 2).
//
// Every table partitions cdfTotal into eight symbol intervals; symbol s
// owns [c[s], c[s+1]) with c[0] = 0 and c[8] = cdfTotal. After coding s,
// each interior entry moves 1/2^cdfRate of the way toward a target that
// gives s all the mass except cdfFloor per other symbol:
//
//	t[i] = cdfFloor*i                 if i <= s
//	t[i] = cdfTotal - cdfFloor*(8-i)  otherwise
//	c[i] += (t[i] - c[i]) >> cdfRate  (arithmetic shift)
//
// Starting from the uniform table, every interval stays at least
// cdfFloor wide, so the decoder can never produce an empty interval,
// whatever bytes it reads.
const (
	cdfBits  = 15
	cdfTotal = 1 << cdfBits
	cdfRate  = 6
	cdfFloor = 32
	cdfSyms  = 8
)

// cdf holds one table as eight 16-bit lanes in two words: lane i of the
// pair is c[i]. Lane 0 is c[0] = 0 and never moves, which lets a decision
// index c[s] for every s without a special case.
type cdf [2]uint64

// Lane constants for the SWAR update. Targets carry a 0x8000 bias per
// lane so that t-c never borrows.
const (
	laneMask = 0x03FF_03FF_03FF_03FF // one lane's (t-c+bias)>>cdfRate
	laneHalf = 0x0200_0200_0200_0200 // bias>>cdfRate, taken back out
)

// at returns c[i] for i in 0..7.
func (c *cdf) at(i int) uint32 {
	return uint32(c[uint(i)>>2&1]>>(16*(uint(i)&3))) & 0xFFFF
}

// update applies the adaptation rule for symbol s to all lanes at once.
// In each lane t+bias-c lies in [64, 65472], so the subtraction never
// borrows into the next lane; after the shift the mask drops the bits
// shifted in from the lane above, leaving floor((t-c)/64)+512, and the
// sum c+that-512 stays inside [cdfFloor, cdfTotal-cdfFloor]. The result
// is bit-identical to the scalar rule.
func (c *cdf) update(s int) {
	t := &cdfTargets[s&(cdfSyms-1)]
	c[0] += (t[0]-c[0])>>cdfRate&laneMask - laneHalf
	c[1] += (t[1]-c[1])>>cdfRate&laneMask - laneHalf
}

// cdfTargets[s] holds t[i]+0x8000 in lane i for symbol s.
var cdfTargets = func() (t [cdfSyms]cdf) {
	for s := range t {
		for i := 0; i < cdfSyms; i++ {
			v := cdfTotal - cdfFloor*(cdfSyms-i)
			if i <= s {
				v = cdfFloor * i
			}
			t[s][i>>2] |= uint64(v+0x8000) << (16 * (i & 3))
		}
	}
	return t
}()

// uniformCDF is the initial table: c[i] = i*cdfTotal/8.
var uniformCDF = func() (c cdf) {
	for i := 0; i < cdfSyms; i++ {
		c[i>>2] |= uint64(i*cdfTotal/cdfSyms) << (16 * (i & 3))
	}
	return c
}()

// The context is the previous score quantized to 16 buckets crossed
// with the score before it quantized to 8 (the same buckets as the
// legacy coder). Within a context, table 0 codes a score's high three
// bits and table 1+h its low three bits given high bits h.
const numContexts = prev1Buckets * prev2Buckets

type ctxModel [1 + cdfSyms]cdf

type model [numContexts]ctxModel

// contextIndex maps the two preceding scores (each at most
// fastq.MaxQuality) to their context.
func contextIndex(q1, q2 int) int {
	return (q1>>2)*prev2Buckets + q2>>3
}

var initialModel = func() (m model) {
	for i := range m {
		for j := range m[i] {
			m[i][j] = uniformCDF
		}
	}
	return m
}()

// modelPool recycles the 18 KiB model across Compress/Decompress calls
// and the shard workers that make them. Models are reset on checkout, so
// reuse is invisible to the coded stream.
var modelPool = sync.Pool{New: func() any { return new(model) }}

func getModel() *model {
	m := modelPool.Get().(*model)
	*m = initialModel
	return m
}

// encodeSym codes symbol s (0..7) under table c and adapts c. Symbol s
// takes [r*c[s], r*c[s+1]) of the range with r = rng>>cdfBits; the top
// symbol takes the remainder, up to rng.
func (e *rcEncoder) encodeSym(c *cdf, s int) {
	r := e.rng >> cdfBits
	lo := r * c.at(s)
	hi := e.rng
	if s < cdfSyms-1 {
		hi = r * c.at(s+1)
	}
	e.low += uint64(lo)
	e.rng = hi - lo
	c.update(s)
	for e.rng < topValue {
		e.shiftLow()
		e.rng <<= 8
	}
}

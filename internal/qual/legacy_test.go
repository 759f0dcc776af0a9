package qual

import (
	"fmt"

	"sage/internal/fastq"
)

// The legacy (core block version 1) encoder. Nothing in the program
// writes bit-serial streams any more; this reference generates them so
// the tests can keep DecompressV1 honest.

// encodeBit codes bit under the adaptive probability *p (probability of
// the bit being 0, in 1/4096 units) and updates *p.
func (e *rcEncoder) encodeBit(p *uint16, bit int) {
	bound := (e.rng >> probBits) * uint32(*p)
	if bit == 0 {
		e.rng = bound
		*p += (1<<probBits - *p) >> adaptRate
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> adaptRate
	}
	for e.rng < topValue {
		e.shiftLow()
		e.rng <<= 8
	}
}

// compressV1 encodes quals as a legacy bit-serial stream: each score is
// six binary decisions, most significant bit first, in the node of a
// depth-6 tree under the two-previous-score context.
func compressV1(quals [][]byte) ([]byte, error) {
	enc := getEncoder()
	defer putEncoder(enc)
	probs := getProbs()
	defer probsPool.Put(probs)
	for _, q := range quals {
		q1, q2 := byte(0), byte(0)
		for _, s := range q {
			if s > fastq.MaxQuality {
				return nil, fmt.Errorf("qual: score %d exceeds alphabet max %d", s, fastq.MaxQuality)
			}
			base := contextBase(q1, q2)
			node := 1
			for i := symbolBits - 1; i >= 0; i-- {
				bit := int(s>>uint(i)) & 1
				enc.encodeBit(&probs[base+node], bit)
				node = node<<1 | bit
			}
			q2, q1 = q1, s
		}
	}
	return frame(enc.flush()), nil
}

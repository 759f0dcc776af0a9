package qual

import "sync"

// The legacy quality coder (core block version 1), kept only to read
// blocks written before version 2.

// Legacy binary decisions use 12-bit adaptive probabilities with a 5-bit
// adaptation shift.
const (
	probBits  = 12
	probInit  = 1 << (probBits - 1)
	adaptRate = 5
)

// symbolBits is the bit width of one Phred score (alphabet 0..63).
const symbolBits = 6

// The legacy coder crosses each context with the 63 internal nodes of
// the 6-level binary decomposition tree.
const (
	treeNodes     = 1 << symbolBits // node indices 1..63 used
	numV1Contexts = numContexts * treeNodes
)

// contextBase is the first tree-node slot of the context of scores q1, q2.
func contextBase(q1, q2 byte) int {
	return contextIndex(int(q1), int(q2)) * treeNodes
}

// probsPool recycles the legacy 16 KiB adaptive-probability table
// across DecompressV1 calls (and across the shard workers that make
// them): the table dominates the codec's per-call allocation cost.
// Tables are re-initialized on checkout, so pool reuse is invisible to
// the coded stream.
var probsPool = sync.Pool{New: func() any { return new([numV1Contexts]uint16) }}

func getProbs() *[numV1Contexts]uint16 {
	p := probsPool.Get().(*[numV1Contexts]uint16)
	for i := range p {
		p[i] = probInit
	}
	return p
}

// DecompressV1 decodes scores for reads with the given lengths from a
// legacy bit-serial stream (core block version 1): each score is six
// adaptive binary decisions walking a depth-6 tree.
func DecompressV1(data []byte, lengths []int) ([][]byte, error) {
	body, err := unframe(data)
	if err != nil {
		return nil, err
	}
	var dec rcDecoder
	dec.init(body)
	probs := getProbs()
	defer probsPool.Put(probs)
	out := scoreBuffers(lengths)
	for _, q := range out {
		q1, q2 := byte(0), byte(0)
		for i := range q {
			base := contextBase(q1, q2)
			node := 1
			for b := 0; b < symbolBits; b++ {
				bit := dec.decodeBit(&probs[base+node])
				node = node<<1 | bit
			}
			s := byte(node - treeNodes)
			q[i] = s
			q2, q1 = q1, s
		}
	}
	return out, nil
}

// decodeBit decodes one legacy binary decision under the adaptive
// probability *p and updates *p.
func (d *rcDecoder) decodeBit(p *uint16) int {
	bound := (d.rng >> probBits) * uint32(*p)
	var bit int
	if d.code < bound {
		d.rng = bound
		*p += (1<<probBits - *p) >> adaptRate
		bit = 0
	} else {
		d.code -= bound
		d.rng -= bound
		*p -= *p >> adaptRate
		bit = 1
	}
	for d.rng < topValue {
		d.code = d.code<<8 | uint32(d.next())
		d.rng <<= 8
	}
	return bit
}

package shard

import (
	"math"
	"math/bits"

	"sage/internal/fastq"
	"sage/internal/genome"
)

// Zone maps: per-shard summary statistics computed at compress time and
// stored in the container index (format v4+). A query consults them
// before any block I/O — a shard whose zone map proves no record can
// match is pruned without reading a single block byte, extending the
// paper's decode push-down to query push-down (GRAINS-style
// storage-aware filtering). All statistics are conservative: rounding
// always widens the [min,max] envelope, so pruning can produce false
// scans but never false drops.

// SketchK is the k-mer length of the zone-map sketch. 11 keeps the
// 2-bit rolling codes in a u64 with room to spare while staying long
// enough that a probe of a few dozen bases carries several independent
// k-mers.
const SketchK = 11

// LowQualPhred is the mean-Phred threshold below which a read counts as
// low-quality in ZoneMap.LowQualReads (the conventional Q15 cutoff,
// ~3% expected error per base).
const LowQualPhred = 15

// Auto-sizing of the per-shard k-mer sketch: 8 bytes (64 bits) per
// read keeps the bitset's fill factor moderate for typical short-read
// lengths (~100 k-mers per read → ~60–75% fill), which keeps the
// false-positive rate of a multi-k-mer probe small while costing
// around a tenth of a compressed shard. The clamp keeps degenerate
// shard sizes from producing useless or monstrous sketches; an
// explicit Options.SketchBytes overrides the heuristic entirely.
const (
	SketchBytesPerRead = 8
	MinSketchBytes     = 64
	MaxAutoSketchBytes = 1 << 16
)

// ZoneMap summarizes one shard's records. Fixed-point fields use
// milli-units (value × 1000) so the wire stays integer varints; min
// fields are rounded down and max fields up, keeping the envelope
// conservative. The zero ZoneMap (in particular MaxLen == 0 alongside
// a non-zero read count) means "statistics unknown" — predicates never
// prune on it.
type ZoneMap struct {
	// MinLen and MaxLen bound the read lengths, over every record.
	MinLen, MaxLen int
	// QualReads counts the scored, non-empty records — the population
	// of the Phred and expected-error statistics below. Records without
	// scores can never satisfy a quality predicate, so a shard with
	// QualReads == 0 is prunable by one.
	QualReads int
	// LowQualReads counts scored records with mean Phred < LowQualPhred.
	LowQualReads int
	// MinPhred is the lowest single Phred score in the shard.
	MinPhred int
	// AvgPhredMilli is the shard-wide mean of per-record mean Phred
	// (informational; pruning uses the min/max envelope).
	AvgPhredMilli int
	// MinAvgPhredMilli and MaxAvgPhredMilli bound per-record mean Phred.
	MinAvgPhredMilli, MaxAvgPhredMilli int
	// MinEEMilli and MaxEEMilli bound per-record expected error counts.
	MinEEMilli, MaxEEMilli int
	// MinGCMilli and MaxGCMilli bound per-record GC fractions, over
	// every record (a base-less record contributes 0).
	MinGCMilli, MaxGCMilli int
	// Sketch is a bitset over the canonical k-mers (SketchK) of every
	// record: bit h(kmer) mod bits is set for each k-mer window free of
	// N. Empty when the writer disabled sketching.
	Sketch []byte
}

// SketchFill returns the fraction of set sketch bits, the saturation
// measure that bounds the sketch's pruning power (a full sketch prunes
// nothing).
func (z *ZoneMap) SketchFill() float64 {
	if len(z.Sketch) == 0 {
		return 0
	}
	set := 0
	for _, b := range z.Sketch {
		set += bits.OnesCount8(b)
	}
	return float64(set) / float64(len(z.Sketch)*8)
}

// sketchAdd sets the bit of every canonical k-mer of seq.
func sketchAdd(sketch []byte, seq []byte) {
	nbits := uint64(len(sketch)) * 8
	if nbits == 0 {
		return
	}
	genome.ForEachCanonicalKmer(seq, SketchK, func(code uint64) {
		bit := genome.Mix64(code) % nbits
		sketch[bit>>3] |= 1 << (bit & 7)
	})
}

// sketchMayContain reports whether every checkable canonical k-mer of
// probe is present in the sketch. It returns true (cannot rule out)
// when the probe yields no k-mers — too short, or every window holds
// an N.
func sketchMayContain(sketch []byte, probe []byte) bool {
	nbits := uint64(len(sketch)) * 8
	if nbits == 0 {
		return true
	}
	may := true
	genome.ForEachCanonicalKmer(probe, SketchK, func(code uint64) {
		bit := genome.Mix64(code) % nbits
		if sketch[bit>>3]&(1<<(bit&7)) == 0 {
			may = false
		}
	})
	return may
}

// ComputeZoneMap summarizes recs into a zone map with a sketchBytes-
// byte k-mer sketch (0 disables sketching). withQuality gates the
// Phred/EE statistics: a writer that discards quality scores
// (Core.IncludeQuality off) must report QualReads == 0, because the
// decoded records will carry no scores for a record-level filter to
// verify against.
func ComputeZoneMap(recs []fastq.Record, sketchBytes int, withQuality bool) ZoneMap {
	z := ZoneMap{}
	if sketchBytes > 0 {
		z.Sketch = make([]byte, sketchBytes)
	}
	if len(recs) == 0 {
		return z
	}
	minLen, maxLen := math.MaxInt, 0
	minGC, maxGC := 1.0, 0.0
	minPhred := math.MaxInt
	minAvg, maxAvg := math.Inf(1), math.Inf(-1)
	minEE, maxEE := math.Inf(1), math.Inf(-1)
	avgSum := 0.0
	for i := range recs {
		r := &recs[i]
		if n := len(r.Seq); n < minLen {
			minLen = n
		}
		if n := len(r.Seq); n > maxLen {
			maxLen = n
		}
		gc := r.GCFraction()
		if gc < minGC {
			minGC = gc
		}
		if gc > maxGC {
			maxGC = gc
		}
		sketchAdd(z.Sketch, r.Seq)
		if !withQuality {
			continue
		}
		avg, ok := r.AvgPhred()
		if !ok {
			continue
		}
		z.QualReads++
		avgSum += avg
		if avg < LowQualPhred {
			z.LowQualReads++
		}
		if avg < minAvg {
			minAvg = avg
		}
		if avg > maxAvg {
			maxAvg = avg
		}
		ee, _ := r.ExpectedError()
		if ee < minEE {
			minEE = ee
		}
		if ee > maxEE {
			maxEE = ee
		}
		for _, q := range r.Qual {
			if int(q) < minPhred {
				minPhred = int(q)
			}
		}
	}
	z.MinLen, z.MaxLen = minLen, maxLen
	z.MinGCMilli = int(math.Floor(minGC * 1000))
	z.MaxGCMilli = int(math.Ceil(maxGC * 1000))
	if z.QualReads > 0 {
		z.MinPhred = minPhred
		z.AvgPhredMilli = int(math.Round(avgSum / float64(z.QualReads) * 1000))
		z.MinAvgPhredMilli = int(math.Floor(minAvg * 1000))
		z.MaxAvgPhredMilli = int(math.Ceil(maxAvg * 1000))
		z.MinEEMilli = int(math.Floor(minEE * 1000))
		z.MaxEEMilli = int(math.Ceil(maxEE * 1000))
	}
	return z
}

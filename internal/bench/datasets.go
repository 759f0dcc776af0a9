// Package bench generates the paper's evaluation: synthetic equivalents
// of read sets RS1–RS5 (§7, Table 2), measurement of every compressor on
// them, the eight system configurations of Fig. 13, and one experiment
// runner per table and figure.
//
// Substitution note (docs/DESIGN.md, "Substitutions"): the paper's read
// sets are 8–176 GB downloads from SRA/ENA. Each synthetic equivalent
// reproduces the properties that drive the evaluation — sequencing
// technology (short accurate vs long error-prone), depth, variant
// density and clustering, indel-block statistics, chimera rate — scaled
// ~1000× down. Long-read error rates are calibrated so the measured
// genomic compression ratios land in the band Table 2 reports (real
// nanopore data compresses far worse than its nominal accuracy
// suggests).
package bench

import (
	"fmt"
	"math/rand"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/simulate"
)

// Dataset describes one RS* synthetic equivalent.
type Dataset struct {
	Label string
	Desc  string
	Long  bool
	// GenomeLen and Depth size the read set (scaled by Suite.Scale).
	GenomeLen int
	Depth     float64
	Variation genome.VariationProfile
	Short     simulate.ShortReadProfile
	LongProf  simulate.LongReadProfile
	// ISFFilter is the fraction of reads GenStore's in-storage filter
	// discards for this dataset (exact-match-heavy sets filter more).
	ISFFilter float64
	// PaperIdealOverSpring is the dataset's Fig. 4 bar: how much faster
	// the ideal-prep pipeline runs than the (N)Spr one on the paper's
	// testbed (RS2's bar is the 28.5x outlier; the GMean is ~4.0).
	PaperIdealOverSpring float64
	Seed                 int64
}

// StandardDatasets returns the five read sets. Scale multiplies genome
// length (and thus read counts); 1.0 ≈ a few MB of FASTQ per set.
func StandardDatasets(scale float64) []Dataset {
	if scale <= 0 {
		scale = 1
	}
	g := func(base int) int {
		n := int(float64(base) * scale)
		if n < 20000 {
			n = 20000
		}
		return n
	}
	short := simulate.DefaultShortProfile()

	// RS1: plant short reads (SRR870667, cacao): moderate diversity.
	rs1 := Dataset{
		Label: "RS1", Desc: "short, plant (cacao-like)",
		GenomeLen: g(220000), Depth: 9,
		Variation: genome.VariationProfile{
			SNPRate: 0.004, IndelRate: 0.0004,
			HotspotFraction: 0.08, HotspotBoost: 6, HotspotSpan: 400, MaxIndelLen: 12,
		},
		Short: short, ISFFilter: 0.35, PaperIdealOverSpring: 3.0, Seed: 101,
	}
	// RS2: deep human short reads (ERR194146): the largest, most
	// compressible set.
	rs2 := Dataset{
		Label: "RS2", Desc: "short, human (deep WGS)",
		GenomeLen: g(320000), Depth: 18,
		Variation: genome.HumanLikeProfile(),
		Short:     short, ISFFilter: 0.85, PaperIdealOverSpring: 28.5, Seed: 102,
	}
	// RS3: small, divergent human set (SRR2052419): low depth, high
	// effective diversity -> low ratio.
	rs3Short := short
	rs3Short.SubRate = 0.004
	rs3 := Dataset{
		Label: "RS3", Desc: "short, human (small, divergent)",
		GenomeLen: g(160000), Depth: 2.6,
		Variation: genome.DivergentProfile(),
		Short:     rs3Short, ISFFilter: 0.60, PaperIdealOverSpring: 2.2, Seed: 103,
	}
	// RS4: nanopore long reads (PAO89685): noisy chemistry; the error
	// rate is calibrated so the genomic ratio lands near Table 2's ~4.8.
	rs4Long := simulate.DefaultLongProfile()
	rs4Long.MeanLen, rs4Long.MaxLen = 5000, 16000
	rs4Long.ErrRate = 0.10
	rs4Long.ChimeraRate = 0.05
	rs4 := Dataset{
		Label: "RS4", Desc: "long, human (nanopore, noisy)",
		GenomeLen: g(400000), Depth: 7,
		Variation: genome.HumanLikeProfile(),
		LongProf:  rs4Long, Long: true, ISFFilter: 0.25, PaperIdealOverSpring: 2.0, Seed: 104,
	}
	// RS5: nanopore long reads, newer chemistry, deep (ERR5455028,
	// banana T2T).
	rs5Long := simulate.DefaultLongProfile()
	rs5Long.MeanLen, rs5Long.MaxLen = 6000, 20000
	rs5Long.ErrRate = 0.055
	rs5Long.ChimeraRate = 0.03
	rs5 := Dataset{
		Label: "RS5", Desc: "long, plant (nanopore, deep)",
		GenomeLen: g(450000), Depth: 11,
		Variation: genome.VariationProfile{
			SNPRate: 0.003, IndelRate: 0.0003,
			HotspotFraction: 0.06, HotspotBoost: 6, HotspotSpan: 400, MaxIndelLen: 12,
		},
		LongProf: rs5Long, Long: true, ISFFilter: 0.70, PaperIdealOverSpring: 3.0, Seed: 105,
	}
	return []Dataset{rs1, rs2, rs3, rs4, rs5}
}

// Generated is a materialized dataset.
type Generated struct {
	Dataset
	Ref    genome.Seq
	Reads  *fastq.ReadSet
	FASTQ  []byte // serialized FASTQ (the uncompressed form)
	NBases int64
}

// Generate materializes the dataset.
func (d Dataset) Generate() (*Generated, error) {
	rng := rand.New(rand.NewSource(d.Seed))
	ref := genome.Random(rng, d.GenomeLen)
	donor, _ := genome.Donor(rng, ref, d.Variation)
	sim := simulate.New(rng, donor)
	var rs *fastq.ReadSet
	var err error
	if d.Long {
		n := int(float64(d.GenomeLen) * d.Depth / float64(d.LongProf.MeanLen))
		if n < 8 {
			n = 8
		}
		rs, err = sim.LongReads(n, d.LongProf)
	} else {
		n := int(float64(d.GenomeLen) * d.Depth / float64(d.Short.ReadLen))
		if n < 50 {
			n = 50
		}
		rs, err = sim.ShortReads(n, d.Short)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: generating %s: %w", d.Label, err)
	}
	g := &Generated{Dataset: d, Ref: ref, Reads: rs, FASTQ: rs.Bytes()}
	g.NBases = int64(rs.TotalBases())
	return g, nil
}

// Package accel models the genome analysis accelerators SAGe integrates
// with in the evaluation (§7):
//
//   - GEM [Chen+ TPDS'23], a near-memory read-mapping accelerator. The
//     experiments consume only its published throughput (69 200 kReads/s
//     on short reads) and power; the model exposes those.
//   - GenStore [Mansouri Ghiasi+ ASPLOS'22], an in-storage filter (ISF)
//     that discards reads not needing expensive mapping inside the SSD,
//     sending only the remainder to the mapper.
//
// Substitution note (docs/DESIGN.md, "Substitutions"): the real
// accelerators are RTL/testbed artifacts; end-to-end behaviour here
// depends only on their throughput, placement, and filter fraction,
// which are faithfully parameterized from the papers.
package accel

import (
	"math"
	"time"
)

// Mapper models a read-mapping accelerator.
type Mapper struct {
	Name string
	// ReadsPerSec is the mapping throughput for short (150 bp) reads.
	ReadsPerSec float64
	// BasesPerSec derives long-read throughput (mapping cost scales with
	// read length).
	BasesPerSec float64
	// PowerW is the active power draw.
	PowerW float64
}

// GEM returns the GEM accelerator model (§7: 69 200 kReads/s; Fig. 1).
func GEM() Mapper {
	return Mapper{
		Name:        "GEM",
		ReadsPerSec: 69_200_000,
		BasesPerSec: 69_200_000 * 150,
		PowerW:      25,
	}
}

// SoftwareMapper returns the baseline software mapper of Fig. 1
// (minimap2-class, 446 kReads/s on the evaluation host).
func SoftwareMapper() Mapper {
	return Mapper{
		Name:        "sw-mapper",
		ReadsPerSec: 446_000,
		BasesPerSec: 446_000 * 150,
		PowerW:      225, // 128-core host at load
	}
}

// MapTime returns the time to map a batch.
func (m Mapper) MapTime(reads int, bases int64) time.Duration {
	if reads <= 0 {
		return 0
	}
	byReads := float64(reads) / m.ReadsPerSec
	byBases := float64(bases) / m.BasesPerSec
	secs := byReads
	if byBases > secs {
		secs = byBases
	}
	return time.Duration(secs * float64(time.Second))
}

// ISF models GenStore's in-storage filter.
type ISF struct {
	Name string
	// FilterFraction is the fraction of reads (and bases) discarded
	// inside the SSD; only the remainder crosses the interface and
	// reaches the mapper. GenStore-EM filters exactly-matching reads, so
	// the fraction is dataset-dependent.
	FilterFraction float64
	// ThroughputMBps bounds the filter's processing rate (it scans
	// decompressed reads using in-controller engines; GenStore shows the
	// filter keeps up with internal flash bandwidth).
	ThroughputMBps float64
	// PowerW is the filter's active power.
	PowerW float64
}

// GenStore returns an ISF with the given dataset-dependent filter
// fraction.
func GenStore(filterFraction float64) ISF {
	if filterFraction < 0 {
		filterFraction = 0
	}
	if filterFraction > 1 {
		filterFraction = 1
	}
	return ISF{
		Name:           "GenStore-ISF",
		FilterFraction: filterFraction,
		// GenStore's per-channel comparators scan the decoded stream
		// inside the controller; aggregate rate scales with channel
		// count well past the external interface.
		ThroughputMBps: 24000,
		PowerW:         0.8,
	}
}

// FilterTime returns the time to filter a batch of decompressed bases.
func (f ISF) FilterTime(bases int64) time.Duration {
	if bases <= 0 || f.ThroughputMBps <= 0 {
		return 0
	}
	return time.Duration(float64(bases) / (f.ThroughputMBps * 1e6) * float64(time.Second))
}

// Remaining returns the read/base counts that survive filtering.
func (f ISF) Remaining(reads int, bases int64) (int, int64) {
	keep := 1 - f.FilterFraction
	return int(math.Round(float64(reads) * keep)), int64(math.Round(float64(bases) * keep))
}

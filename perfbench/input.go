package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/maphash"
	"slices"

	"sage/internal/bench"
	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/pargz"
)

// input is one workload's generated data. The program under test only
// ever sees fastq (or gz) and ref; reads and the digests are the
// benchmark's own copy for checking outputs.
type input struct {
	ref   genome.Seq
	reads *fastq.ReadSet
	fastq []byte // plain FASTQ text
	gz    []byte // BGZF-wrapped FASTQ; nil unless the workload is gzipped
	bases int64
	// recs digests every record as FASTQ text, seqs its bases alone;
	// both ignore order, since the codec stores each shard
	// position-sorted and reorder permutes across shards.
	recs, seqs digest
}

// generate builds the workload's input from seed through the repo's own
// generators (internal/bench, internal/simulate).
func generate(w workload, seed int64) (*input, error) {
	var d *bench.Dataset
	for _, ds := range bench.StandardDatasets(w.scale) {
		if ds.Label == w.dataset {
			d = &ds
		}
	}
	if d == nil {
		return nil, fmt.Errorf("no dataset %s in bench.StandardDatasets", w.dataset)
	}
	d.Seed = d.Seed*1_000_003 + seed
	g, err := d.Generate()
	if err != nil {
		return nil, err
	}
	in := &input{ref: g.Ref, reads: g.Reads, fastq: g.FASTQ, bases: g.NBases}
	if w.gzip {
		var buf bytes.Buffer
		zw := pargz.NewWriter(&buf)
		if _, err := zw.Write(g.FASTQ); err != nil {
			return nil, fmt.Errorf("bgzf wrap: %w", err)
		}
		if err := zw.Close(); err != nil {
			return nil, fmt.Errorf("bgzf wrap: %w", err)
		}
		in.gz = buf.Bytes()
	}
	var text []byte
	for i := range g.Reads.Records {
		r := &g.Reads.Records[i]
		text = r.AppendText(text[:0])
		in.recs.add(text)
		in.seqs.add(r.Seq)
	}
	return in, nil
}

// inputSHA256 pins the generated input: the reference and the FASTQ.
func inputSHA256(in *input) string {
	h := sha256.New()
	h.Write(in.ref)
	h.Write(in.fastq)
	return hex.EncodeToString(h.Sum(nil))
}

// checkPin regenerates the workload at the manifest's default seed and
// refuses to go on when it no longer matches the pinned digest: the
// generators live in internal/bench and internal/simulate, which later
// changes may edit, and a drifted input would make runs of two commits
// incomparable.
func checkPin(w workload, man manifest) error {
	pin, ok := man.Inputs[w.name]
	if !ok {
		return fmt.Errorf("manifest.json pins no input for workload %s", w.name)
	}
	in, err := generate(w, man.DefaultSeed)
	if err != nil {
		return err
	}
	if got := inputSHA256(in); got != pin.SHA256 {
		return fmt.Errorf("workload %s: generated input at seed %d has sha256 %s, manifest.json pins %s; the generators changed",
			w.name, man.DefaultSeed, got, pin.SHA256)
	}
	return nil
}

// hashSeed is fixed per process; digests are only compared within one.
var hashSeed = maphash.MakeSeed()

// digest is an order-insensitive multiset digest: a count plus the
// wrapping sum of each item's 64-bit hash.
type digest struct {
	n   int64
	sum uint64
}

func (d *digest) add(b []byte) {
	d.n++
	d.sum += maphash.Bytes(hashSeed, b)
}

func (d digest) String() string { return fmt.Sprintf("%d items/%016x", d.n, d.sum) }

// recordHasher digests a FASTQ text stream record by record (four lines
// each) as it is written, so a streamed decode is checked without being
// held in memory.
type recordHasher struct {
	d     digest
	buf   []byte
	lines int
}

func (h *recordHasher) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			h.buf = append(h.buf, p...)
			break
		}
		h.buf = append(h.buf, p[:i+1]...)
		p = p[i+1:]
		if h.lines++; h.lines == 4 {
			h.d.add(h.buf)
			h.buf, h.lines = h.buf[:0], 0
		}
	}
	return n, nil
}

// finish returns the digest, failing when the stream ended mid-record.
func (h *recordHasher) finish() (digest, error) {
	if h.lines != 0 || len(h.buf) != 0 {
		return h.d, fmt.Errorf("decoded stream ends inside a record")
	}
	return h.d, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

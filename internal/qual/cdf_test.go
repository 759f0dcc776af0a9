package qual

import (
	"bytes"
	"math/rand"
	"testing"

	"sage/internal/fastq"
)

// scalarUpdate is the reference adaptation rule, one entry at a time.
func scalarUpdate(c *[cdfSyms + 1]int, s int) {
	for i := 1; i < cdfSyms; i++ {
		t := cdfTotal - cdfFloor*(cdfSyms-i)
		if i <= s {
			t = cdfFloor * i
		}
		c[i] += (t - c[i]) >> cdfRate
	}
}

// TestCDFUpdateMatchesScalar pins the SWAR lane update to the scalar
// rule bit for bit, and checks the invariant the decoder relies on:
// every symbol interval stays at least cdfFloor wide.
func TestCDFUpdateMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		packed := uniformCDF
		var ref [cdfSyms + 1]int
		for i := range ref {
			ref[i] = i * cdfTotal / cdfSyms
		}
		// Alternate long runs of one symbol (driving entries to their
		// floors) with uniform noise.
		for step := 0; step < 4000; step++ {
			s := rng.Intn(cdfSyms)
			if trial%2 == 0 && step%500 < 400 {
				s = trial / 2 % cdfSyms
			}
			packed.update(s)
			scalarUpdate(&ref, s)
			for i := 0; i < cdfSyms; i++ {
				if got := int(packed.at(i)); got != ref[i] {
					t.Fatalf("trial %d step %d: c[%d] = %d, scalar rule gives %d", trial, step, i, got, ref[i])
				}
				if ref[i+1]-ref[i] < cdfFloor {
					t.Fatalf("trial %d step %d: symbol %d interval %d < %d", trial, step, i, ref[i+1]-ref[i], cdfFloor)
				}
			}
		}
	}
}

// TestSymbolBoundaries round-trips the extreme scores of every
// high/low split, including the top symbol of both decisions.
func TestSymbolBoundaries(t *testing.T) {
	var q []byte
	for rep := 0; rep < 300; rep++ {
		for s := 0; s <= fastq.MaxQuality; s += 7 {
			q = append(q, byte(s), fastq.MaxQuality, 0, byte(s))
		}
	}
	data, err := Compress([][]byte{q})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(data, []int{len(q)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], q) {
		t.Fatal("boundary scores did not round-trip")
	}
}

// TestRatioMatchesLegacy checks the 8-ary coder gives up no compression
// against the bit-serial coder it replaced on correlated scores.
func TestRatioMatchesLegacy(t *testing.T) {
	quals, _ := benchQuals()
	v2, err := Compress(quals)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := compressV1(quals)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("v2 %d bytes, legacy %d bytes", len(v2), len(v1))
	if float64(len(v2)) > 1.01*float64(len(v1)) {
		t.Fatalf("v2 stream %d bytes, legacy %d: more than 1%% larger", len(v2), len(v1))
	}
}

// randomCorpus draws reads whose scores follow a random walk over a
// seed-chosen range, mixing smooth and noisy regions.
func randomCorpus(rng *rand.Rand) ([][]byte, []int) {
	n := rng.Intn(30) + 1
	quals := make([][]byte, n)
	lengths := make([]int, n)
	lo, hi := rng.Intn(fastq.MaxQuality+1), rng.Intn(fastq.MaxQuality+1)
	if lo > hi {
		lo, hi = hi, lo
	}
	for i := range quals {
		q := make([]byte, rng.Intn(400))
		level := lo + rng.Intn(hi-lo+1)
		for j := range q {
			level += rng.Intn(5) - 2
			level = min(max(level, lo), hi)
			q[j] = byte(level)
			if rng.Intn(50) == 0 {
				q[j] = byte(rng.Intn(fastq.MaxQuality + 1))
			}
		}
		quals[i] = q
		lengths[i] = len(q)
	}
	return quals, lengths
}

// TestLegacyRoundtrip keeps the version-1 decoder honest: the reference
// bit-serial encoder's streams over seeded corpora must decode exactly.
func TestLegacyRoundtrip(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		quals, lengths := randomCorpus(rand.New(rand.NewSource(seed)))
		data, err := compressV1(quals)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecompressV1(data, lengths)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range quals {
			if !bytes.Equal(got[i], quals[i]) {
				t.Fatalf("seed %d read %d: legacy round trip mismatch", seed, i)
			}
		}
	}
}

// TestGarbageStreams feeds random bodies to both decoders: they must
// return scores in range without panicking.
func TestGarbageStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int{150, 0, 151, 1000}
	for trial := 0; trial < 200; trial++ {
		body := make([]byte, rng.Intn(64))
		rng.Read(body)
		if trial%3 == 0 {
			for i := range body {
				body[i] = 0xFF
			}
		}
		data := frame(body)
		for _, dec := range []func([]byte, []int) ([][]byte, error){Decompress, DecompressV1} {
			got, err := dec(data, lengths)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range got {
				for _, s := range q {
					if s > fastq.MaxQuality {
						t.Fatalf("decoded score %d out of range", s)
					}
				}
			}
		}
	}
}

// FuzzQualDecompress drives both decoders with arbitrary bodies and read
// lengths (neither may panic or hang), then round-trips the same bytes,
// read as scores, through both coders.
func FuzzQualDecompress(f *testing.F) {
	quals, _ := benchQuals()
	v2, _ := Compress(quals[:3])
	v1, _ := compressV1(quals[:3])
	f.Add(v2, uint8(3), uint8(150))
	f.Add(v1, uint8(3), uint8(150))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(1), uint8(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 40), uint8(9), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, reads, readLen uint8) {
		lengths := make([]int, reads%32)
		for i := range lengths {
			lengths[i] = int(readLen) + i
		}
		for _, dec := range []func([]byte, []int) ([][]byte, error){Decompress, DecompressV1} {
			got, err := dec(data, lengths)
			if err != nil {
				continue
			}
			for i, q := range got {
				if len(q) != lengths[i] {
					t.Fatalf("read %d: %d scores, want %d", i, len(q), lengths[i])
				}
			}
		}

		var in [][]byte
		for rest := data; len(rest) > 0; {
			n := min(len(rest), int(readLen)+1)
			q := make([]byte, n)
			for j := range q {
				q[j] = rest[j] % (fastq.MaxQuality + 1)
			}
			in = append(in, q)
			rest = rest[n:]
		}
		lengths = make([]int, len(in))
		for i, q := range in {
			lengths[i] = len(q)
		}
		for _, c := range []struct {
			enc func([][]byte) ([]byte, error)
			dec func([]byte, []int) ([][]byte, error)
		}{{Compress, Decompress}, {compressV1, DecompressV1}} {
			stream, err := c.enc(in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.dec(stream, lengths)
			if err != nil {
				t.Fatal(err)
			}
			for i := range in {
				if !bytes.Equal(got[i], in[i]) {
					t.Fatalf("read %d: round trip mismatch", i)
				}
			}
		}
	})
}

package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sage/internal/consensus"
	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/pargz"
	"sage/internal/reorder"
	"sage/internal/shard"
)

// fixture is one small simulated run written out in every input shape
// the CLI ingests: plain, BGZF, generic gzip, two lanes (one gzipped)
// and an R1/R2 mate pair (R2 gzipped).
type fixture struct {
	dir   string
	ref   string
	cons  genome.Seq
	reads *fastq.ReadSet
	lanes [2]*fastq.ReadSet // lane1.fq, lane2.fq.gz
}

const testShardReads = 64

func newFixture(t *testing.T) *fixture {
	t.Helper()
	rs, cons, err := simulateSet(false, 20000, 480, 7)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{dir: t.TempDir(), cons: cons, reads: rs}
	fx.ref = fx.path("ref.txt")
	fx.write(t, "ref.txt", []byte(cons.String()+"\n"))
	raw := rs.Bytes()
	fx.write(t, "reads.fq", raw)
	var bgzf bytes.Buffer
	zw, err := pargz.NewWriterLevel(&bgzf, gzip.DefaultCompression, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	fx.write(t, "reads.bgzf.gz", bgzf.Bytes())
	fx.write(t, "reads.fq.gz", gzipped(t, raw))

	fx.lanes[0] = &fastq.ReadSet{Records: rs.Records[:200]}
	fx.lanes[1] = &fastq.ReadSet{Records: rs.Records[200:]}
	fx.write(t, "lane1.fq", fx.lanes[0].Bytes())
	fx.write(t, "lane2.fq.gz", gzipped(t, fx.lanes[1].Bytes()))

	half := len(rs.Records) / 2
	var r1, r2 fastq.ReadSet
	for i := 0; i < half; i++ {
		m1, m2 := rs.Records[i], rs.Records[half+i]
		m1.Header, m2.Header = fmt.Sprintf("p%d/1", i), fmt.Sprintf("p%d/2", i)
		r1.Records = append(r1.Records, m1)
		r2.Records = append(r2.Records, m2)
	}
	fx.write(t, "r1.fq", r1.Bytes())
	fx.write(t, "r2.fq.gz", gzipped(t, r2.Bytes()))
	return fx
}

func (fx *fixture) path(name string) string { return filepath.Join(fx.dir, name) }

func (fx *fixture) write(t *testing.T, name string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(fx.path(name)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fx.path(name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func gzipped(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sniffed opens and sniffs each named fixture file as the library's
// callers would, closing them when the test ends.
func (fx *fixture) sniffed(t *testing.T, names ...string) []fastq.NamedReader {
	t.Helper()
	out := make([]fastq.NamedReader, len(names))
	for i, name := range names {
		f, err := os.Open(fx.path(name))
		if err != nil {
			t.Fatal(err)
		}
		r, err := fastq.Sniff(f, fastq.SniffOptions{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fastq.CloseSniffed(r); f.Close() })
		out[i] = fastq.NamedReader{Name: name, R: r}
	}
	return out
}

func (fx *fixture) single(t *testing.T, name string) fastq.BatchSource {
	return fastq.NewBatchReader(fx.sniffed(t, name)[0].R, testShardReads)
}

func (fx *fixture) multi(t *testing.T, names ...string) fastq.BatchSource {
	mr, err := fastq.NewMultiReader(fx.sniffed(t, names...), testShardReads)
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

func (fx *fixture) paired(t *testing.T) fastq.BatchSource {
	r := fx.sniffed(t, "r1.fq", "r2.fq.gz")
	mr, err := fastq.NewPairedReader([][2]fastq.NamedReader{{r[0], r[1]}}, testShardReads)
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

func clumped(t *testing.T, src fastq.BatchSource, paired bool) fastq.BatchSource {
	st, err := reorder.NewStage(src, reorder.Config{
		Mode: reorder.ModeClump, BatchSize: testShardReads, Paired: paired,
		Sort: reorder.SortConfig{MemBudget: 256 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func pipeline(t *testing.T, src fastq.BatchSource, opt shard.Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := shard.CompressPipeline(src, &buf, opt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runIngest runs compress (or recompress) with the shared test flags
// plus args, and returns the container bytes.
func runIngest(t *testing.T, fx *fixture, cmd func([]string) error, out string, args ...string) []byte {
	t.Helper()
	full := append([]string{"-out", fx.path(out), "-shard-reads", fmt.Sprint(testShardReads), "-threads", "2"}, args...)
	if err := cmd(full); err != nil {
		t.Fatalf("%q: %v", full, err)
	}
	return readFile(t, fx.path(out))
}

func TestIngestUsageErrors(t *testing.T) {
	fx := newFixture(t)
	fx.write(t, "a/dup.fq", readFile(t, fx.path("reads.fq")))
	fx.write(t, "b/dup.fq", readFile(t, fx.path("reads.fq")))
	reads, ref := fx.path("reads.fq"), fx.path("ref.txt")
	cases := []struct {
		name string
		args []string
	}{
		{"single-block writer", []string{"-ref", ref, "-shard-reads", "0", reads}},
		{"negative shard-reads", []string{"-ref", ref, "-shard-reads", "-3", reads}},
		{"negative threads", []string{"-ref", ref, "-threads", "-1", reads}},
		{"odd paired", []string{"-ref", ref, "-paired", fx.path("r1.fq")}},
		{"in plus positional", []string{"-ref", ref, "-in", reads, fx.path("lane1.fq")}},
		{"duplicate base names", []string{"-ref", ref, fx.path("a/dup.fq"), fx.path("b/dup.fq")}},
		{"no consensus", []string{reads}},
		{"no inputs", []string{"-ref", ref}},
		{"zero sort-mem", []string{"-ref", ref, "-reorder", "-sort-mem", "0", reads}},
	}
	for _, cmd := range []struct {
		name string
		run  func([]string) error
	}{{"compress", cmdCompress}, {"recompress", cmdRecompress}} {
		for _, c := range cases {
			t.Run(cmd.name+"/"+c.name, func(t *testing.T) {
				out := fx.path("usage.sage")
				err := cmd.run(append([]string{"-out", out}, c.args...))
				if !isUsageError(err) {
					t.Fatalf("got %v, want a usage error", err)
				}
				if _, serr := os.Stat(out); !os.IsNotExist(serr) {
					t.Fatalf("usage error left %s behind", out)
				}
			})
		}
	}
}

// TestCompressMatchesPipeline pins every CLI ingest shape to the
// library: the container compress writes is byte for byte what
// shard.CompressPipeline writes over the equivalent source.
func TestCompressMatchesPipeline(t *testing.T) {
	fx := newFixture(t)
	opt := shard.DefaultOptions(fx.cons)
	opt.ShardReads = testShardReads
	noQualHdr := opt
	noQualHdr.Core.IncludeQuality = false
	noQualHdr.Core.IncludeHeaders = false
	cases := []struct {
		name string
		args []string
		opt  shard.Options
		src  func(t *testing.T) fastq.BatchSource
	}{
		{"single plain", []string{"reads.fq"}, opt,
			func(t *testing.T) fastq.BatchSource { return fx.single(t, "reads.fq") }},
		{"single via -in", []string{"-in", "reads.fq"}, opt,
			func(t *testing.T) fastq.BatchSource { return fx.single(t, "reads.fq") }},
		{"single BGZF", []string{"reads.bgzf.gz"}, opt,
			func(t *testing.T) fastq.BatchSource { return fx.single(t, "reads.bgzf.gz") }},
		{"single gzip", []string{"reads.fq.gz"}, opt,
			func(t *testing.T) fastq.BatchSource { return fx.single(t, "reads.fq.gz") }},
		{"multi-file", []string{"lane1.fq", "lane2.fq.gz"}, opt,
			func(t *testing.T) fastq.BatchSource { return fx.multi(t, "lane1.fq", "lane2.fq.gz") }},
		{"paired", []string{"-paired", "r1.fq", "r2.fq.gz"}, opt,
			func(t *testing.T) fastq.BatchSource { return fx.paired(t) }},
		{"reorder single", []string{"-reorder", "reads.fq.gz"}, opt,
			func(t *testing.T) fastq.BatchSource { return clumped(t, fx.single(t, "reads.fq.gz"), false) }},
		{"reorder paired", []string{"-reorder", "-paired", "r1.fq", "r2.fq.gz"}, opt,
			func(t *testing.T) fastq.BatchSource { return clumped(t, fx.paired(t), true) }},
		{"no quality, no headers", []string{"-no-quality", "-no-headers", "lane1.fq", "lane2.fq.gz"}, noQualHdr,
			func(t *testing.T) fastq.BatchSource { return fx.multi(t, "lane1.fq", "lane2.fq.gz") }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := []string{"-ref", fx.ref}
			for _, a := range c.args {
				if _, err := os.Stat(fx.path(a)); err == nil {
					a = fx.path(a)
				}
				args = append(args, a)
			}
			got := runIngest(t, fx, cmdCompress, "out.sage", args...)
			// Manifest names are base names, so the library sees the
			// same names the CLI records.
			if want := pipeline(t, c.src(t), c.opt); !bytes.Equal(got, want) {
				t.Fatalf("CLI container (%d B) differs from CompressPipeline's (%d B)", len(got), len(want))
			}
		})
	}
}

// TestCompressDenovo checks the -denovo pre-pass: the container equals
// the in-memory writer's over the assembled consensus (the path -denovo
// took before it streamed), and two inputs now round-trip.
func TestCompressDenovo(t *testing.T) {
	fx := newFixture(t)
	got := runIngest(t, fx, cmdCompress, "denovo.sage", "-denovo", fx.path("reads.fq"))
	asm, err := consensus.FromReads(fx.reads, consensus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opt := shard.DefaultOptions(asm.Seq)
	opt.ShardReads = testShardReads
	want, _, err := shard.Compress(fx.reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-denovo container (%d B) differs from shard.Compress's (%d B)", len(got), len(want))
	}

	runIngest(t, fx, cmdCompress, "denovo2.sage", "-denovo", fx.path("lane1.fq"), fx.path("lane2.fq.gz"))
	if err := cmdDecompress([]string{"-in", fx.path("denovo2.sage"), "-out", fx.path("denovo2.fq")}); err != nil {
		t.Fatal(err)
	}
	back, err := readFASTQ(fx.path("denovo2.fq"))
	if err != nil {
		t.Fatal(err)
	}
	if !fastq.Equivalent(back, fx.reads) {
		t.Fatal("-denovo over two inputs did not round-trip")
	}
}

// TestRecompressMatchesCompress checks recompress is compress plus a
// report: the same flags and inputs write the same bytes, at any
// worker count.
func TestRecompressMatchesCompress(t *testing.T) {
	fx := newFixture(t)
	for _, inputs := range [][]string{
		{"reads.fq.gz"},
		{"-reorder", "reads.bgzf.gz"},
		{"lane1.fq", "lane2.fq.gz"},
		{"-paired", "r1.fq", "r2.fq.gz"},
	} {
		args := []string{"-ref", fx.ref}
		for _, a := range inputs {
			if a[0] != '-' {
				a = fx.path(a)
			}
			args = append(args, a)
		}
		c := runIngest(t, fx, cmdCompress, "c.sage", args...)
		r := runIngest(t, fx, cmdRecompress, "r.sage", args...)
		if !bytes.Equal(c, r) {
			t.Fatalf("%q: recompress (%d B) differs from compress (%d B)", inputs, len(r), len(c))
		}
		if err := cmdCompress(append([]string{"-out", fx.path("t1.sage"), "-shard-reads", fmt.Sprint(testShardReads), "-threads", "1"}, args...)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFile(t, fx.path("t1.sage")), c) {
			t.Fatalf("%q: -threads 1 differs from -threads 2", inputs)
		}
	}
}

// TestDecompressGoldenBlock checks decompress still reads single-block
// containers, which the CLI no longer writes.
func TestDecompressGoldenBlock(t *testing.T) {
	const golden = "../../internal/core/testdata/golden_block_v2"
	out := filepath.Join(t.TempDir(), "golden.fq")
	if err := cmdDecompress([]string{"-in", golden + ".sage", "-out", out}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, out), readFile(t, golden+".fastq")) {
		t.Fatal("single-block golden decoded to different FASTQ")
	}
}

// TestFailedDecodeKeepsOutput checks a decode failure part-way through
// a container (block 3 of 4 corrupted) neither clobbers an existing
// -out nor leaves its temp file behind.
func TestFailedDecodeKeepsOutput(t *testing.T) {
	fx := newFixture(t)
	data := runIngest(t, fx, cmdCompress, "good.sage", "-ref", fx.ref, "-shard-reads", "120", fx.path("reads.fq"))
	c, err := shard.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumShards() != 4 {
		t.Fatalf("%d shards, want 4", c.NumShards())
	}
	blockBase := int64(len(data))
	for _, e := range c.Index.Entries {
		blockBase -= e.Length
	}
	e := c.Index.Entries[3]
	data[blockBase+e.Offset+e.Length/2] ^= 0xFF
	fx.write(t, "bad.sage", data)

	sentinel := []byte("previous output, must survive\n")
	for _, cmd := range []struct {
		name string
		run  func([]string) error
	}{{"decompress", cmdDecompress}, {"filter", cmdFilter}} {
		t.Run(cmd.name, func(t *testing.T) {
			out := fx.path(cmd.name + ".fq")
			fx.write(t, cmd.name+".fq", sentinel)
			err := cmd.run([]string{"-in", fx.path("bad.sage"), "-out", out, "-threads", "1"})
			if err == nil || isUsageError(err) {
				t.Fatalf("got %v, want a runtime error", err)
			}
			if got := readFile(t, out); !bytes.Equal(got, sentinel) {
				t.Fatalf("-out clobbered: %d B, want the %d B sentinel", len(got), len(sentinel))
			}
			if _, err := os.Stat(out + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("temp file left behind: %v", err)
			}
		})
	}
}

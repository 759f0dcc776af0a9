package core

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden_block_v2.* from simulated reads")

// The core-block-v2 golden: golden_block_v2.sage is the block the
// current writer produces from golden_block_v2.fastq against the
// consensus in golden_block_v2.ref (DefaultOptions, so the consensus is
// embedded and the block decodes on its own). The FASTQ holds the reads
// in the block's stored (position-sorted) order, so decoding reproduces
// it byte for byte. The golden pins the v2 quality stream; regenerate it
// (go test -run TestGoldenBlockV2 -update) only for a deliberate format
// change, with a version bump and a docs/FORMAT.md update.
const goldenBlockV2 = "testdata/golden_block_v2"

func writeGoldenBlockV2(t *testing.T) {
	ref, rs := makeShortSet(t, 13, 3000, 40)
	enc, err := Compress(rs, DefaultOptions(ref))
	if err != nil {
		t.Fatal(err)
	}
	stored, err := Decompress(enc.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	for ext, data := range map[string][]byte{
		".ref":   []byte(ref.String() + "\n"),
		".fastq": stored.Bytes(),
		".sage":  enc.Data,
	} {
		if err := os.WriteFile(goldenBlockV2+ext, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func readGolden(t *testing.T, ext string) []byte {
	t.Helper()
	data, err := os.ReadFile(goldenBlockV2 + ext)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenBlockV2 checks both directions: the golden block decodes to
// its reads, and re-encoding those reads reproduces the block exactly.
func TestGoldenBlockV2(t *testing.T) {
	if *updateGolden {
		writeGoldenBlockV2(t)
	}
	block, want := readGolden(t, ".sage"), readGolden(t, ".fastq")
	if block[4] != 2 {
		t.Fatalf("golden block version byte %d, want 2", block[4])
	}
	rs, err := Decompress(block, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rs.Bytes(), want) {
		t.Fatal("golden v2 block no longer decodes to its reads")
	}

	ref, err := genome.FromString(strings.TrimSpace(string(readGolden(t, ".ref"))))
	if err != nil {
		t.Fatal(err)
	}
	in, err := fastq.Parse(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := Compress(in, DefaultOptions(ref))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Data, block) {
		t.Fatalf("re-encoding the golden reads changed the block (%d bytes, golden %d): "+
			"the v2 byte format moved", len(enc.Data), len(block))
	}
}

// TestRejectsUnknownBlockVersion checks a block claiming a version the
// reader does not know is refused by name, not misdecoded.
func TestRejectsUnknownBlockVersion(t *testing.T) {
	block := append([]byte(nil), readGolden(t, ".sage")...)
	for _, v := range []byte{0, 3} {
		block[4] = v
		_, err := Decompress(block, nil)
		if err == nil || !strings.Contains(err.Error(), "core: unsupported version") {
			t.Fatalf("version %d: err = %v, want core: unsupported version", v, err)
		}
	}
}

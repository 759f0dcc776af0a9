package genome

import (
	"math/rand"
	"testing"
)

// naiveCanonical packs every N-free k-window of seq and of its reverse
// complement independently and keeps the smaller code.
func naiveCanonical(seq Seq, k int) []uint64 {
	var out []uint64
	for i := 0; i+k <= len(seq); i++ {
		win := seq[i : i+k]
		if win.HasN() {
			continue
		}
		var fwd, rc uint64
		for _, b := range win {
			fwd = fwd<<2 | uint64(b)
		}
		for _, b := range win.ReverseComplement() {
			rc = rc<<2 | uint64(b)
		}
		out = append(out, min(fwd, rc))
	}
	return out
}

func TestForEachCanonicalKmerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 3, 11, 16, 31, 32} {
		for trial := 0; trial < 20; trial++ {
			seq := Random(rng, rng.Intn(120))
			for i := range seq {
				if rng.Intn(25) == 0 {
					seq[i] = BaseN
				}
			}
			var got []uint64
			ForEachCanonicalKmer(seq, k, func(code uint64) { got = append(got, code) })
			want := naiveCanonical(seq, k)
			if len(got) != len(want) {
				t.Fatalf("k=%d %s: %d codes, want %d", k, seq, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d %s: code %d = %x, want %x", k, seq, i, got[i], want[i])
				}
			}
		}
	}
}

func TestForEachCanonicalKmerOrientationInvariant(t *testing.T) {
	seq := MustFromString("ACGTTGCANNGATTACAGATTACACCGGTA")
	codes := map[uint64]int{}
	ForEachCanonicalKmer(seq, 5, func(c uint64) { codes[c]++ })
	ForEachCanonicalKmer(seq.ReverseComplement(), 5, func(c uint64) { codes[c]-- })
	for c, n := range codes {
		if n != 0 {
			t.Fatalf("code %x: forward and reverse-complement counts differ by %d", c, n)
		}
	}
}

// TestMix64Pinned pins the finalizer: its outputs place zone-map
// sketch bits and reorder keys, both stored in containers.
func TestMix64Pinned(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0, 0xe220a8397b1dcdaf},
		{1, 0x910a2dec89025cc1},
		{0x3fffff, 0x96bb3f7433aac369},
	} {
		if got := Mix64(c.in); got != c.want {
			t.Errorf("Mix64(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

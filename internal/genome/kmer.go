package genome

// ForEachCanonicalKmer walks seq's k-mer windows (1 <= k <= 32) with a
// rolling 2-bit code, skipping every window that contains an N (or any
// non-ACGT code), and yields the canonical code min(forward,
// reverse-complement) of each — orientation-invariant, so a read and
// its reverse complement yield the same codes. The codes are on-disk
// data (zone-map sketch bits, reorder minimizer keys): the walk must
// not change.
func ForEachCanonicalKmer(seq Seq, k int, fn func(code uint64)) {
	shift := uint(2 * (k - 1))
	mask := (uint64(1) << (2 * k)) - 1
	var fwd, rc uint64
	run := 0
	for _, b := range seq {
		if b > 3 {
			run, fwd, rc = 0, 0, 0
			continue
		}
		fwd = ((fwd << 2) | uint64(b)) & mask
		rc = (rc >> 2) | (uint64(3-b) << shift)
		run++
		if run >= k {
			if rc < fwd {
				fn(rc)
			} else {
				fn(fwd)
			}
		}
	}
}

// Mix64 is the splitmix64 finalizer, scattering packed k-mer codes so
// hashed positions and minimizers are uniform rather than biased toward
// low-complexity sequence.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

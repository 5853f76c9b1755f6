// Package radix sorts uint64 keys with a least-significant-digit radix
// sort. The keys this repository sorts pack two vertex ids, u<<32 | v, so
// most of their bytes are equal across the whole input; skipping those
// byte positions makes the sort a few linear passes where a comparison
// sort does log n.
package radix

// Sort sorts keys in place, one byte per pass from the least significant,
// using scratch (at least as long as keys) as the second buffer. One pass
// counts all eight digits; a byte position on which every key agrees is
// then skipped, so keys that pack two ids below 2¹⁶ sort in four passes.
func Sort(keys, scratch []uint64) {
	if len(keys) < 2 {
		return
	}
	var count [8][256]int
	for _, k := range keys {
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	k0 := keys[0]
	src, dst := keys, scratch[:len(keys)]
	for d := range count {
		shift := 8 * d
		c := &count[d]
		if c[byte(k0>>shift)] == len(keys) {
			continue // every key has this byte
		}
		sum := 0
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

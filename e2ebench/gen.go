package main

// splitmix64 is the SplitMix64 finaliser: a cheap, well-mixed hash the
// input generators derive every pseudo-random choice from, so the same seed
// gives the same inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix folds several values into one pseudo-random word.
func mix(vs ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, v := range vs {
		h = splitmix64(h ^ v)
	}
	return h
}

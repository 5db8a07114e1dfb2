// Package splitmix is the repository's one splitmix64 generator step:
// tiny, seedable, and identical on every platform. Seeded sweeps
// (internal/uncertainty), seeded failpoint triggers (internal/failpoint)
// and correlation IDs (internal/obs) all draw from it, so every seeded
// stream in the repository shares one reproducibility story. It imports
// nothing, so zero-dependency packages can use it.
package splitmix

// Golden is the splitmix64 state increment, 2^64/φ rounded to odd.
const Golden = 0x9e3779b97f4a7c15

// Next advances state x by Golden and returns the mixed output; feeding
// the output back in as the next state walks a splitmix64 stream.
func Next(x uint64) uint64 {
	z := x + Golden
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

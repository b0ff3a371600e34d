//go:build !race

package serve

// raceEnabled reports whether the race detector is on: it inflates every
// allocation, so heap-footprint gates skip under it.
const raceEnabled = false

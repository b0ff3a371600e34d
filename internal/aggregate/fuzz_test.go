package aggregate

import (
	"testing"
)

// FuzzStopPolicy drives the species stop rule with an arbitrary
// discovery stream decoded from fuzzer bytes and checks the contract
// every engine integration relies on: no panics, the estimate stays
// within [0, 1] and equals 1 − f₁/n recomputed by brute force over the
// stream's distinct (member, pattern) sightings, and ShouldStop is
// monotone — once the rule has latched it must never revive.
func FuzzStopPolicy(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0xFF, 0x00, 0xAA, 0x55, 0x10, 0x20, 0x30, 0x40, 0x80, 0x81})
	seed := make([]byte, 0, 96)
	for i := 0; i < 96; i++ {
		seed = append(seed, byte(i*7))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		stop := NewSpeciesStop()
		sightings := map[[2]byte]bool{} // distinct (pattern, member)
		latched := false
		// Each event consumes 2 bytes: pattern key, member.
		for i := 0; i+1 < len(data); i += 2 {
			pk, mk := data[i]&0x0F, data[i+1]&0x07
			stop.ObserveDiscovery(string([]byte{'p', pk}), string([]byte{'m', mk}))
			sightings[[2]byte{pk, mk}] = true
			members := map[byte]int{}
			for s := range sightings {
				members[s[0]]++
			}
			f1 := 0
			for _, c := range members {
				if c == 1 {
					f1++
				}
			}
			want := 1 - float64(f1)/float64(len(sightings))
			est := stop.Estimate()
			if est < 0 || est > 1 {
				t.Fatalf("estimate %v outside [0, 1]", est)
			}
			if est != want {
				t.Fatalf("estimate %v, brute-force 1 − f₁/n = 1 − %d/%d = %v", est, f1, len(sightings), want)
			}
			stopped := stop.ShouldStop()
			if latched && !stopped {
				t.Fatal("ShouldStop revived after latching")
			}
			latched = stopped
		}
	})
}

package aggregate

import (
	"testing"
)

// FuzzStopPolicy drives both stop policies with an arbitrary discovery
// stream decoded from fuzzer bytes and checks the contract every engine
// integration relies on: no panics, estimates stay within [0, 1], and
// ShouldStop is monotone — once a policy has latched it must never
// revive.
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
		policies := []StopPolicy{
			ThresholdStop{},
			NewSpeciesStop(0.5, 4),
		}
		latched := make([]bool, len(policies))
		// Each event consumes 2 bytes: pattern key, member.
		for i := 0; i+1 < len(data); i += 2 {
			pk := string([]byte{'p', data[i] & 0x0F})
			mid := string([]byte{'m', data[i+1] & 0x07})
			for pi, p := range policies {
				p.ObserveDiscovery(pk, mid)
				if est := p.Estimate(); est < 0 || est > 1 {
					t.Fatalf("%s: estimate %v outside [0, 1]", p.Name(), est)
				}
				stop := p.ShouldStop()
				if latched[pi] && !stop {
					t.Fatalf("%s: ShouldStop revived after latching", p.Name())
				}
				latched[pi] = stop
			}
		}
		if policies[0].ShouldStop() {
			t.Fatal("threshold: must never stop")
		}
	})
}

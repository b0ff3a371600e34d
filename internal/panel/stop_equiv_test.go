package panel_test

import (
	"fmt"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/core"
	"oassis/internal/panel"
	"oassis/internal/synth"
)

// TestStopSettlementEquivalenceMatrix: a run the species stop rule ends
// early, and whose frontier settlement then classifies nodes, is
// bit-identical across execution modes — the sequential engine against
// panels of one question or four at parallelism 1 and 8. Each mode gets
// its own rule, so the rule must fire on the same answer in every mode,
// and settlement must read the same answers in the same order.
func TestStopSettlementEquivalenceMatrix(t *testing.T) {
	cases := []struct {
		patterns int
		seed     int64
	}{{8, 1}, {10, 3}, {12, 5}}
	for _, tc := range cases {
		cfg := func() core.Config {
			d, err := synth.OpenWorldDomain(tc.seed, tc.patterns)
			if err != nil {
				t.Fatal(err)
			}
			return core.Config{
				Space:   d.Sp,
				Theta:   0.2,
				Members: d.Members,
				Agg:     aggregate.NewFixedSample(5),
				Stop:    aggregate.NewSpeciesStop(),
			}
		}
		name := fmt.Sprintf("patterns%d/seed%d", tc.patterns, tc.seed)
		seq := core.Run(cfg())
		if !seq.Stats.StoppedEarly || seq.Stats.StopSettled == 0 {
			t.Fatalf("%s: the run must stop early and settle (stopped %v, settled %d)",
				name, seq.Stats.StoppedEarly, seq.Stats.StopSettled)
		}
		want := renderRun(seq)
		for _, size := range []int{1, 4} {
			for _, par := range []int{1, 8} {
				res, _ := panel.Run(cfg(), panel.Config{Size: size}, par)
				if got := renderRun(res); got != want {
					t.Errorf("%s/panels/size%d/p%d drifted from the sequential run:\n--- sequential\n%s--- panels\n%s",
						name, size, par, want, got)
				}
			}
		}
	}
}

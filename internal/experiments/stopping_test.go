package experiments

import "testing"

// TestStoppingSavesQuestions holds the species stop rule to the bar an
// early stop must clear to earn its place, on the seed range its
// constants were chosen on and on the held-out one: over each range's
// domains it saves at least 10% of the exhaustive run's questions, fires
// on most domains, is sound on every one (precision 1.00) and keeps the
// median exact-MSP recall at 0.9 or above. The exact counts pin the
// sweep: the rule and the engine's question order decide them, and
// frontier settlement asks no questions, so it cannot move them.
func TestStoppingSavesQuestions(t *testing.T) {
	sweep, err := stoppingSweep(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ qFull, qEarly, fired int }{
		{91456, 82233, 71}, // seeds 1–40
		{90938, 80717, 73}, // seeds 41–80
	}
	for k, sr := range stoppingRanges {
		all := sweep[k][len(stoppingPatterns)]
		n := len(all.recalls)
		if all.qFull != want[k].qFull || all.qEarly != want[k].qEarly || all.fired != want[k].fired {
			t.Errorf("seeds %v: %d of %d answers, fired on %d; want %d of %d, fired on %d",
				sr, all.qEarly, all.qFull, all.fired, want[k].qEarly, want[k].qFull, want[k].fired)
		}
		if saved := all.qFull - all.qEarly; 10*saved < all.qFull {
			t.Errorf("seeds %v: saved %d of %d questions, want at least 10%%", sr, saved, all.qFull)
		}
		if 2*all.fired <= n {
			t.Errorf("seeds %v: the rule fired on %d of %d domains, want most", sr, all.fired, n)
		}
		if all.unsound != 0 {
			t.Errorf("seeds %v: %d of %d domains unsound (an early MSP below no exhaustive MSP)",
				sr, all.unsound, n)
		}
		if median, _ := all.recall(); median < 0.9 {
			t.Errorf("seeds %v: median recall %.2f, want at least 0.90", sr, median)
		}
	}
}

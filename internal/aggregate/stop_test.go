package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sampler draws species indices from a known abundance distribution, so
// the estimator can be checked against analytic ground truth: after n
// draws the true completeness is (distinct species seen)/S, a quantity
// the simulation knows exactly and the estimator must recover from the
// stream alone.
type sampler struct {
	cum []float64 // cumulative probabilities over S species
	rng *rand.Rand
}

// newSampler builds a sampler over S species with abundance p_k ∝
// 1/(k+1)^skew (skew 0 is uniform; larger skews are Zipf-ier).
func newSampler(S int, skew float64, seed int64) *sampler {
	weights := make([]float64, S)
	total := 0.0
	for k := 0; k < S; k++ {
		weights[k] = 1 / math.Pow(float64(k+1), skew)
		total += weights[k]
	}
	cum := make([]float64, S)
	acc := 0.0
	for k := 0; k < S; k++ {
		acc += weights[k] / total
		cum[k] = acc
	}
	return &sampler{cum: cum, rng: rand.New(rand.NewSource(seed))}
}

func (s *sampler) draw() int {
	u := s.rng.Float64()
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestSpeciesStopConvergence is the estimator's statistical gate: streams
// drawn from known uniform and Zipf species distributions, with seeded
// RNG, must drive the completeness estimate to within tolerance of the
// analytic ground truth (observed distinct / true population). Each draw
// uses a fresh member ID, so the per-member dedup never interferes with
// the abundance counts.
func TestSpeciesStopConvergence(t *testing.T) {
	cases := []struct {
		name    string
		S       int     // true species count
		skew    float64 // 0 = uniform
		n       int     // sample size
		seed    int64
		tol     float64
		wantMin float64 // sanity floor on the true completeness itself
	}{
		{"uniform/small-pop/saturated", 50, 0, 600, 1, 0.05, 0.95},
		{"uniform/mid-pop/partial", 200, 0, 400, 2, 0.08, 0.70},
		{"uniform/large-pop/sparse", 400, 0, 500, 3, 0.10, 0.50},
		{"zipf1.0/mid-pop", 100, 1.0, 1200, 4, 0.12, 0.60},
		{"zipf1.0/large-pop", 250, 1.0, 2500, 5, 0.12, 0.50},
		{"zipf1.5/heavy-skew", 150, 1.5, 2000, 6, 0.15, 0.30},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			smp := newSampler(tc.S, tc.skew, tc.seed)
			stop := NewSpeciesStop(2, 1) // target > 1: never stops, pure estimation
			seen := make(map[int]bool)
			for i := 0; i < tc.n; i++ {
				k := smp.draw()
				seen[k] = true
				stop.ObserveDiscovery(fmt.Sprintf("sp%04d", k), fmt.Sprintf("m%06d", i))
			}
			truth := float64(len(seen)) / float64(tc.S)
			if truth < tc.wantMin {
				t.Fatalf("simulation drifted: true completeness %.3f below the case's %.2f floor", truth, tc.wantMin)
			}
			est := stop.Estimate()
			if est < 0 || est > 1 {
				t.Fatalf("estimate %v outside [0,1]", est)
			}
			if diff := math.Abs(est - truth); diff > tc.tol {
				t.Errorf("estimate %.3f vs true completeness %.3f: off by %.3f (tolerance %.3f, observed %d/%d species)",
					est, truth, diff, tc.tol, len(seen), tc.S)
			}
		})
	}
}

// TestSpeciesStopEstimateTracksSampling: as the sample grows over a fixed
// population, the estimate must approach 1 along with the true coverage —
// the convergence half of the property, checked at checkpoints.
func TestSpeciesStopEstimateTracksSampling(t *testing.T) {
	const S = 80
	smp := newSampler(S, 0.8, 7)
	stop := NewSpeciesStop(2, 1)
	seen := make(map[int]bool)
	checkpoints := map[int]bool{200: true, 800: true, 3200: true}
	for i := 1; i <= 3200; i++ {
		k := smp.draw()
		seen[k] = true
		stop.ObserveDiscovery(fmt.Sprintf("sp%03d", k), fmt.Sprintf("m%05d", i))
		if checkpoints[i] {
			truth := float64(len(seen)) / S
			if diff := math.Abs(stop.Estimate() - truth); diff > 0.15 {
				t.Errorf("after %d draws: estimate %.3f vs truth %.3f (off %.3f)",
					i, stop.Estimate(), truth, diff)
			}
		}
	}
	if est := stop.Estimate(); est < 0.9 {
		t.Errorf("saturated sample still estimates %.3f completeness", est)
	}
}

// TestSpeciesStopLatch: ShouldStop latches — once the target is crossed,
// a later flood of fresh singletons (which drags the estimate down) must
// not revive the run.
func TestSpeciesStopLatch(t *testing.T) {
	stop := NewSpeciesStop(0.8, 10)
	// Saturate a tiny population: 4 species seen by 10 members each.
	for m := 0; m < 10; m++ {
		for k := 0; k < 4; k++ {
			stop.ObserveDiscovery(fmt.Sprintf("sp%d", k), fmt.Sprintf("m%d", m))
		}
	}
	if !stop.ShouldStop() {
		t.Fatalf("saturated stream did not stop: estimate %.3f, n=%d", stop.Estimate(), 40)
	}
	for i := 0; i < 100; i++ {
		stop.ObserveDiscovery(fmt.Sprintf("fresh%d", i), fmt.Sprintf("f%d", i))
		if !stop.ShouldStop() {
			t.Fatalf("stop revived after %d fresh singletons (estimate %.3f)", i+1, stop.Estimate())
		}
	}
}

// TestSpeciesStopDedup: repeated sightings of a species by the same
// member are one observation — chatty members cannot inflate coverage.
func TestSpeciesStopDedup(t *testing.T) {
	stop := NewSpeciesStop(0.99, 1)
	for i := 0; i < 50; i++ {
		stop.ObserveDiscovery("spA", "m1")
	}
	if got := stop.Observed(); got != 1 {
		t.Errorf("Observed() = %d after one member's repeats, want 1", got)
	}
	if stop.ShouldStop() {
		t.Error("a single singleton observation must not satisfy any target")
	}
	stop.ObserveDiscovery("spA", "m2")
	stop.ObserveDiscovery("spA", "m3")
	if got, want := stop.EstimatedRichness(), 1.0; math.Abs(got-want) > 0.01 {
		t.Errorf("richness %v for one thrice-seen species, want ~1", got)
	}
}

// TestSpeciesStopEmpty: the untouched estimator reports 0 completeness
// and never stops.
func TestSpeciesStopEmpty(t *testing.T) {
	stop := NewSpeciesStop(0, 0)
	if stop.Estimate() != 0 {
		t.Errorf("empty estimate = %v, want 0", stop.Estimate())
	}
	if stop.ShouldStop() {
		t.Error("empty estimator stopped")
	}
	if stop.Target != 0.9 || stop.MinObservations != 25 {
		t.Errorf("defaults = (%v, %d), want (0.9, 25)", stop.Target, stop.MinObservations)
	}
}

// TestStopByName covers the registry: every name resolves to a policy of
// that name, the empty name is the threshold default, unknown names err.
func TestStopByName(t *testing.T) {
	for _, name := range append(StopNames(), "") {
		p, err := StopByName(name)
		if err != nil {
			t.Fatalf("StopByName(%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = StopThreshold
		}
		if p.Name() != want {
			t.Errorf("StopByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := StopByName("nope"); err == nil {
		t.Error("unknown stop policy accepted")
	}
	if len(StopNames()) != 2 {
		t.Errorf("StopNames() = %v, want 2 names", StopNames())
	}
}

// TestThresholdStopInert: the extracted default observes everything and
// does nothing.
func TestThresholdStopInert(t *testing.T) {
	var s ThresholdStop
	s.ObserveDiscovery("p", "m")
	if s.ShouldStop() || s.Estimate() != 0 || s.Name() != StopThreshold {
		t.Errorf("ThresholdStop not inert: stop=%v est=%v name=%q", s.ShouldStop(), s.Estimate(), s.Name())
	}
}

package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sampler draws species indices from a known abundance distribution, so
// the estimator can be checked against analytic ground truth: after n
// draws the true coverage is the probability mass of the species drawn
// so far, a quantity the simulation knows exactly and the estimator must
// recover from the stream alone.
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

// coverage is the probability mass of the species in seen.
func (s *sampler) coverage(seen map[int]bool) float64 {
	mass := 0.0
	for k := range seen {
		mass += s.cum[k]
		if k > 0 {
			mass -= s.cum[k-1]
		}
	}
	return mass
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
// RNG, must drive the Good–Turing estimate to within 0.05 of the true
// coverage (the probability mass of the species drawn so far). Each draw
// uses a fresh member ID, so the per-member dedup never interferes with
// the abundance counts.
func TestSpeciesStopConvergence(t *testing.T) {
	cases := []struct {
		name string
		S    int     // true species count
		skew float64 // 0 = uniform
		n    int     // sample size
		seed int64
	}{
		{"uniform/small-pop/saturated", 50, 0, 600, 1},
		{"uniform/mid-pop/partial", 200, 0, 400, 2},
		{"uniform/large-pop/sparse", 400, 0, 500, 3},
		{"zipf1.0/mid-pop", 100, 1.0, 1200, 4},
		{"zipf1.0/large-pop", 250, 1.0, 2500, 5},
		{"zipf1.5/heavy-skew", 150, 1.5, 2000, 6},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			smp := newSampler(tc.S, tc.skew, tc.seed)
			stop := NewSpeciesStop()
			seen := make(map[int]bool)
			for i := 0; i < tc.n; i++ {
				k := smp.draw()
				seen[k] = true
				stop.ObserveDiscovery(fmt.Sprintf("sp%04d", k), fmt.Sprintf("m%06d", i))
			}
			truth := smp.coverage(seen)
			est := stop.Estimate()
			if diff := math.Abs(est - truth); diff > 0.05 {
				t.Errorf("estimate %.3f vs true coverage %.3f: off by %.3f (tolerance 0.05, observed %d/%d species)",
					est, truth, diff, len(seen), tc.S)
			}
		})
	}
}

// TestSpeciesStopEstimateTracksSampling: as the sample grows over a fixed
// population, the estimate must approach 1 along with the true coverage —
// the convergence half of the property, checked at checkpoints.
func TestSpeciesStopEstimateTracksSampling(t *testing.T) {
	smp := newSampler(80, 0.8, 7)
	stop := NewSpeciesStop()
	seen := make(map[int]bool)
	checkpoints := map[int]bool{200: true, 800: true, 3200: true}
	for i := 1; i <= 3200; i++ {
		k := smp.draw()
		seen[k] = true
		stop.ObserveDiscovery(fmt.Sprintf("sp%03d", k), fmt.Sprintf("m%05d", i))
		if checkpoints[i] {
			truth := smp.coverage(seen)
			if diff := math.Abs(stop.Estimate() - truth); diff > 0.05 {
				t.Errorf("after %d draws: estimate %.3f vs true coverage %.3f (off %.3f)",
					i, stop.Estimate(), truth, diff)
			}
		}
	}
	if est := stop.Estimate(); est < 0.99 {
		t.Errorf("saturated sample still estimates %.3f coverage", est)
	}
}

// TestSpeciesStopThreshold pins the rule's two constants: it needs 30
// distinct sightings, and a new-item rate f₁/n strictly below 0.275.
func TestSpeciesStopThreshold(t *testing.T) {
	// 29 sightings of one species by 29 members: coverage 1, too few.
	stop := NewSpeciesStop()
	for m := 0; m < 29; m++ {
		stop.ObserveDiscovery("sp", fmt.Sprintf("m%d", m))
	}
	if stop.ShouldStop() {
		t.Fatal("stopped after 29 sightings")
	}
	stop.ObserveDiscovery("sp", "m29")
	if !stop.ShouldStop() {
		t.Fatalf("did not stop after 30 sightings at coverage %.3f", stop.Estimate())
	}
	// 40 sightings: f₁ singletons by one member each, the rest one
	// common species. f₁/n = 11/40 = 0.275 exactly does not stop; 10/40
	// does.
	for _, tc := range []struct {
		singletons int
		stop       bool
	}{{11, false}, {10, true}} {
		stop := NewSpeciesStop()
		for m := 0; m < 40; m++ {
			sp := "common"
			if m < tc.singletons {
				sp = fmt.Sprintf("one%d", m)
			}
			stop.ObserveDiscovery(sp, fmt.Sprintf("m%d", m))
		}
		if got := stop.ShouldStop(); got != tc.stop {
			t.Errorf("%d singletons of 40: ShouldStop = %v (coverage %.4f), want %v",
				tc.singletons, got, stop.Estimate(), tc.stop)
		}
	}
}

// TestSpeciesStopLatch: ShouldStop latches — once the rule has fired, a
// later flood of fresh singletons (which drags the estimate down) must
// not revive the run.
func TestSpeciesStopLatch(t *testing.T) {
	stop := NewSpeciesStop()
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
	stop := NewSpeciesStop()
	for i := 0; i < 50; i++ {
		stop.ObserveDiscovery("spA", "m1")
	}
	if got := stop.Estimate(); got != 0 {
		t.Errorf("coverage %v after one member's repeats, want 0 (one singleton)", got)
	}
	if stop.ShouldStop() {
		t.Error("a single singleton observation must not stop the run")
	}
	stop.ObserveDiscovery("spA", "m2")
	stop.ObserveDiscovery("spA", "m3")
	if got := stop.Estimate(); got != 1 {
		t.Errorf("coverage %v for one thrice-seen species, want 1", got)
	}
}

// TestSpeciesStopEmpty: the untouched estimator reports 0 coverage and
// never stops.
func TestSpeciesStopEmpty(t *testing.T) {
	stop := NewSpeciesStop()
	if stop.Estimate() != 0 {
		t.Errorf("empty estimate = %v, want 0", stop.Estimate())
	}
	if stop.ShouldStop() {
		t.Error("empty estimator stopped")
	}
}

// Streaming stop-condition estimators: pluggable "when to stop asking"
// policies the engine consults between questions. The paper's engine asks
// until every generated node is classified, which over-asks on open-world
// enumeration queries. A StopPolicy watches the members' discoveries and
// can end the run early (SpeciesStop, a Chao92-style completeness
// estimator in the spirit of Trushkowsky et al., "Getting It All from the
// Crowd"). ThresholdStop is the inert default: attaching it is
// bit-identical to attaching nothing. A stop policy only decides when to
// stop; which members to trust is the engine's spam filter.
package aggregate

import (
	"fmt"
	"sync"
)

// Registry names of the built-in stop policies. The name is part of the
// plan IR (and hence the plan fingerprint): runs with different stop
// policies are different plans.
const (
	StopThreshold = "threshold"
	StopSpecies   = "species"
)

// StopPolicy decides when the engine should stop asking questions. The
// engine feeds it every member's maximal affirmed pattern (the end of a
// descent chain) and polls ShouldStop on the question hot path.
// Implementations must be safe for concurrent use and monotone: once
// ShouldStop reports true it must keep reporting true (the fuzzer enforces
// non-revival).
type StopPolicy interface {
	// Name returns the registry name of the policy.
	Name() string
	// ObserveDiscovery sees the maximal pattern a member's descent chain
	// ended at — the open-world enumeration stream the species estimator
	// tracks.
	ObserveDiscovery(patternKey, memberID string)
	// ShouldStop reports whether the run should stop asking. It latches:
	// once true, always true.
	ShouldStop() bool
	// Estimate is the policy's current confidence statistic in [0, 1]:
	// estimated answer-set completeness for SpeciesStop, 0 for
	// ThresholdStop.
	Estimate() float64
}

// StopNames lists the registry names, sorted, for error messages.
func StopNames() []string {
	return []string{StopSpecies, StopThreshold}
}

// StopByName instantiates a stop policy with default parameters. The
// empty name means ThresholdStop, mirroring plan.PolicyByName.
func StopByName(name string) (StopPolicy, error) {
	switch name {
	case StopThreshold, "":
		return ThresholdStop{}, nil
	case StopSpecies:
		return NewSpeciesStop(0, 0), nil
	}
	return nil, fmt.Errorf("aggregate: unknown stop policy %q", name)
}

// ThresholdStop is the paper's behavior, extracted as the default policy:
// keep asking until the significance thresholds settle on every generated
// node. It observes nothing and never stops, so a run with ThresholdStop
// attached is bit-identical to a run with no policy at all.
type ThresholdStop struct{}

// Name implements StopPolicy.
func (ThresholdStop) Name() string { return StopThreshold }

// ObserveDiscovery implements StopPolicy (no-op).
func (ThresholdStop) ObserveDiscovery(string, string) {}

// ShouldStop implements StopPolicy: the threshold policy never stops
// early.
func (ThresholdStop) ShouldStop() bool { return false }

// Estimate implements StopPolicy.
func (ThresholdStop) Estimate() float64 { return 0 }

// speciesRareCutoff is the abundance cutoff of the Chao92/ACE estimator:
// species sighted more than this often count as fully observed, and the
// coverage and skew statistics are computed over the rare group only —
// which is what keeps the estimator honest under Zipf-like abundance
// (the naive all-species CV correction explodes on heavy heads).
const speciesRareCutoff = 10

// SpeciesStop estimates how complete the crowd's answer set is with the
// Chao92 (ACE) species-richness estimator and stops once estimated
// coverage crosses Target. Each (member, pattern) discovery is one
// observation of one "species"; the tracker is fully streaming — per
// observation it updates, in O(1), the rare-group frequency-of-
// frequencies f_1..f_τ (τ = speciesRareCutoff), the rare token count
// n_rare = Σ_{i≤τ} i·f_i, sumII = Σ_{i≤τ} i(i−1)·f_i, and the rare and
// abundant species counts:
//
//	rare coverage   Ĉ  = 1 − f1/n_rare                  (Good–Turing)
//	skew            γ̂² = max(0, (S_rare/Ĉ)·sumII/(n_rare(n_rare−1)) − 1)
//	richness        Ŝ  = S_abund + S_rare/Ĉ + (f1/Ĉ)·γ̂²
//	completeness       = (S_rare + S_abund)/Ŝ
//
// Repeat sightings by the same member are deduplicated, so colluding or
// chatty members cannot inflate coverage.
type SpeciesStop struct {
	// Target is the completeness level that ends the run, in (0, 1].
	Target float64
	// MinObservations is the number of discovery observations required
	// before the estimate is trusted to stop the run.
	MinObservations int

	mu      sync.Mutex
	counts  map[string]int      // species -> members who reported it
	seen    map[string]struct{} // member\x00species dedup
	n       int                 // total observations
	f       [speciesRareCutoff + 1]int
	nRare   int     // Σ_{i≤τ} i f_i
	sumII   float64 // Σ_{i≤τ} i(i-1) f_i
	sRare   int     // species with count ≤ τ
	sAbund  int     // species with count > τ
	stopped bool
}

// NewSpeciesStop returns a SpeciesStop with the given completeness target
// and minimum observation count; zero values select the defaults (0.9
// target, 25 observations).
func NewSpeciesStop(target float64, minObservations int) *SpeciesStop {
	if target <= 0 || target > 1 {
		target = 0.9
	}
	if minObservations <= 0 {
		minObservations = 25
	}
	return &SpeciesStop{
		Target:          target,
		MinObservations: minObservations,
		counts:          make(map[string]int),
		seen:            make(map[string]struct{}),
	}
}

// Name implements StopPolicy.
func (s *SpeciesStop) Name() string { return StopSpecies }

// ObserveDiscovery implements StopPolicy: one observation of species
// patternKey by memberID, deduplicated per (member, species).
func (s *SpeciesStop) ObserveDiscovery(patternKey, memberID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dk := memberID + "\x00" + patternKey
	if _, dup := s.seen[dk]; dup {
		return
	}
	s.seen[dk] = struct{}{}
	k := s.counts[patternKey]
	s.counts[patternKey] = k + 1
	s.n++
	// Maintain the rare-group summaries for the count transition k -> k+1.
	switch {
	case k == 0:
		s.sRare++
		s.f[1]++
		s.nRare++
	case k < speciesRareCutoff:
		s.f[k]--
		s.f[k+1]++
		s.nRare++
		s.sumII += float64(2 * k) // i(i-1) grows by 2(i-1) when i-1 -> i
	case k == speciesRareCutoff:
		// The species graduates out of the rare group: from here on it
		// counts as fully observed and stops influencing the coverage
		// and skew statistics.
		s.f[speciesRareCutoff]--
		s.sRare--
		s.sAbund++
		s.nRare -= speciesRareCutoff
		s.sumII -= float64(speciesRareCutoff * (speciesRareCutoff - 1))
	}
}

// Estimate implements StopPolicy: estimated completeness c/Ŝ, clamped to
// [0, 1].
func (s *SpeciesStop) Estimate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.estimateLocked()
}

func (s *SpeciesStop) estimateLocked() float64 {
	if s.n == 0 {
		return 0
	}
	c := float64(s.sRare + s.sAbund)
	if s.sRare == 0 {
		return 1 // every observed species abundant: the sample is saturated
	}
	nr := float64(s.nRare)
	f1 := float64(s.f[1])
	cov := 1 - f1/nr // Good–Turing coverage of the rare group
	if cov <= 0 {
		return 0 // every rare species a singleton: no completeness evidence
	}
	sHat := float64(s.sAbund) + float64(s.sRare)/cov
	if s.nRare > 1 {
		gamma2 := float64(s.sRare)/cov*s.sumII/(nr*(nr-1)) - 1
		if gamma2 < 0 {
			gamma2 = 0
		}
		sHat += f1 / cov * gamma2
	}
	if sHat < c {
		sHat = c
	}
	est := c / sHat
	if est > 1 {
		est = 1
	}
	return est
}

// ShouldStop implements StopPolicy: true once the estimate has crossed
// Target with at least MinObservations observations, latched thereafter.
func (s *SpeciesStop) ShouldStop() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return true
	}
	if s.n >= s.MinObservations && s.estimateLocked() >= s.Target {
		s.stopped = true
	}
	return s.stopped
}

// Observed returns the number of distinct species observed so far.
func (s *SpeciesStop) Observed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sRare + s.sAbund
}

// EstimatedRichness returns the current Chao92 richness estimate Ŝ (the
// observed count when no estimate is possible yet).
func (s *SpeciesStop) EstimatedRichness() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := float64(s.sRare + s.sAbund)
	if est := s.estimateLocked(); est > 0 {
		return c / est
	}
	return c
}

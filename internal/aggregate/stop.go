// The streaming stop rule the engine may consult between questions. The
// paper's engine asks until every generated node is classified, which
// over-asks on open-world enumeration queries. SpeciesStop watches the
// members' discoveries and ends the run once the crowd has stopped
// volunteering new patterns: Good–Turing sample coverage, the new-item
// rate behind the pay-as-you-go rule of Trushkowsky et al., "Getting It
// All from the Crowd". A stop rule only decides when to stop; which
// members to trust is the engine's spam filter.
package aggregate

import "sync"

// The stop rule's two constants, chosen on a 6 × 7 grid over the
// `stopping` experiment's seeds 1–40 and checked on held-out seeds 41–80
// (EXPERIMENTS.md, E20).
const (
	// speciesMinObservations is the number of distinct sightings the
	// coverage estimate needs before it may stop the run.
	speciesMinObservations = 30
	// speciesMaxNewRate is the new-item rate f₁/n below which the run
	// stops: the estimated chance that the next sighting is a pattern no
	// member has reported yet.
	speciesMaxNewRate = 0.275
)

// SpeciesStop estimates how complete the crowd's answer set is with
// Good–Turing sample coverage and stops the run once the crowd has
// stopped volunteering new patterns. Each (member, pattern) discovery is
// one sighting of one "species"; repeat sightings by the same member are
// deduplicated, so colluding or chatty members cannot inflate coverage.
// Over the n distinct sightings, with f₁ the number of patterns exactly
// one member has reported,
//
//	coverage Ĉ = 1 − f₁/n
//
// estimates the probability mass of the patterns seen so far, and the
// rule stops once n ≥ 30 and f₁/n < 0.275. A SpeciesStop is safe for
// concurrent use, so one rule may be shared by runs on different
// goroutines. A nil *SpeciesStop is the paper's behavior: the engine
// asks until every generated node is classified.
type SpeciesStop struct {
	mu      sync.Mutex
	counts  map[string]int      // species -> members who reported it
	seen    map[string]struct{} // member\x00species dedup
	n       int                 // distinct (member, species) sightings
	f1      int                 // species reported by exactly one member
	stopped bool
}

// NewSpeciesStop returns a SpeciesStop with no sightings.
func NewSpeciesStop() *SpeciesStop {
	return &SpeciesStop{
		counts: make(map[string]int),
		seen:   make(map[string]struct{}),
	}
}

// ObserveDiscovery records one sighting of species patternKey by
// memberID: the maximal pattern a member's descent chain ended at.
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
	switch k {
	case 0:
		s.f1++
	case 1:
		s.f1--
	}
}

// Estimate returns the Good–Turing coverage 1 − f₁/n in [0, 1] (0 before
// any sighting).
func (s *SpeciesStop) Estimate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return 0
	}
	return 1 - float64(s.f1)/float64(s.n)
}

// ShouldStop reports whether the run should stop asking: true once there
// are at least 30 distinct sightings and their new-item rate f₁/n is
// below 0.275. It latches: once true, always true, however many fresh
// patterns are sighted later.
func (s *SpeciesStop) ShouldStop() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.stopped && s.n >= speciesMinObservations &&
		float64(s.f1)/float64(s.n) < speciesMaxNewRate {
		s.stopped = true
	}
	return s.stopped
}

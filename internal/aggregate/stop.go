// Streaming stop-condition estimators: pluggable "when to stop asking"
// policies the engine consults between questions. The paper's engine asks
// until every generated node is classified, which over-asks on open-world
// enumeration queries and trusts every member equally. A StopPolicy watches
// the answer stream and can end the run early (SpeciesStop, a Chao92-style
// completeness estimator in the spirit of Trushkowsky et al., "Getting It
// All from the Crowd") or reweight it (AccuracyWeightedStop, per-member
// accuracy rates against the running consensus in the spirit of Zhang et
// al.'s accuracy-rate crowdsourcing). ThresholdStop is the inert default:
// attaching it is bit-identical to attaching nothing.
package aggregate

import (
	"fmt"
	"sort"
	"sync"
)

// Registry names of the built-in stop policies. The name is part of the
// plan IR (and hence the plan fingerprint): runs with different stop
// policies are different plans.
const (
	StopThreshold = "threshold"
	StopSpecies   = "species"
	StopAccuracy  = "accuracy"
)

// StopPolicy decides when the engine should stop asking questions. The
// engine feeds it two event streams — every recorded answer and every
// member's maximal affirmed pattern (the end of a descent chain) — and
// polls ShouldStop on the question hot path. Implementations must be safe
// for concurrent use and monotone: once ShouldStop reports true it must
// keep reporting true (the fuzzer enforces non-revival).
type StopPolicy interface {
	// Name returns the registry name of the policy.
	Name() string
	// ObserveAnswer sees every answer recorded into the aggregator, in
	// recording order: the question key, the answering member and the
	// reported support.
	ObserveAnswer(questionKey, memberID string, support float64)
	// ObserveDiscovery sees the maximal pattern a member's descent chain
	// ended at — the open-world enumeration stream the species estimator
	// tracks.
	ObserveDiscovery(patternKey, memberID string)
	// ShouldStop reports whether the run should stop asking. It latches:
	// once true, always true.
	ShouldStop() bool
	// Estimate is the policy's current confidence statistic in [0, 1]:
	// estimated answer-set completeness for SpeciesStop, mean member
	// accuracy for AccuracyWeightedStop, 0 for ThresholdStop.
	Estimate() float64
}

// MemberWeighter is the optional StopPolicy extension for policies that
// grade crowd members: per-member aggregation weights and a spammer flag.
// The engine excludes flagged members from further questions, and the
// Weighted aggregator discounts their recorded answers.
type MemberWeighter interface {
	// Weight returns the member's aggregation weight (0 when flagged).
	Weight(memberID string) float64
	// Flagged reports whether the member fell below the spammer floor.
	Flagged(memberID string) bool
}

// StopNames lists the registry names, sorted, for error messages.
func StopNames() []string {
	return []string{StopAccuracy, StopSpecies, StopThreshold}
}

// StopByName instantiates a stop policy with default parameters. The
// empty name means ThresholdStop, mirroring plan.PolicyByName.
func StopByName(name string) (StopPolicy, error) {
	switch name {
	case StopThreshold, "":
		return ThresholdStop{}, nil
	case StopSpecies:
		return NewSpeciesStop(0, 0), nil
	case StopAccuracy:
		return NewAccuracyWeightedStop(0, 0, 0), nil
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

// ObserveAnswer implements StopPolicy (no-op).
func (ThresholdStop) ObserveAnswer(string, string, float64) {}

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

// ObserveAnswer implements StopPolicy: the species estimator only
// consumes the discovery stream.
func (s *SpeciesStop) ObserveAnswer(string, string, float64) {}

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

// AccuracyWeightedStop maintains per-member accuracy rates online: each
// recorded answer is compared against the running consensus (the mean of
// the answers recorded before it), a member agreeing within Tolerance
// scores a hit, and the Laplace-smoothed hit rate (hits+1)/(trials+2)
// becomes the member's aggregation weight. Members whose rate falls below
// Floor after MinAnswers trials are flagged as spammers: the engine stops
// asking them and the Weighted aggregator drops their recorded answers.
// The policy never ends the run — it reweights it.
type AccuracyWeightedStop struct {
	// Floor is the smoothed accuracy rate below which a member is
	// flagged, in (0, 1).
	Floor float64
	// MinAnswers is the number of consensus comparisons required before a
	// member can be flagged.
	MinAnswers int
	// Tolerance is how far from the consensus an answer may fall and
	// still count as agreement (one answer-scale step, 0.25, by default).
	Tolerance float64

	mu        sync.Mutex
	members   map[string]*memberAcc
	questions map[string]*qConsensus
}

type memberAcc struct {
	hits, trials int
	flagged      bool
}

type qConsensus struct {
	sum float64
	n   int
}

// NewAccuracyWeightedStop returns an AccuracyWeightedStop; zero values
// select the defaults (floor 0.4, 8 answers, tolerance 0.25).
func NewAccuracyWeightedStop(floor float64, minAnswers int, tolerance float64) *AccuracyWeightedStop {
	if floor <= 0 || floor >= 1 {
		floor = 0.4
	}
	if minAnswers <= 0 {
		minAnswers = 8
	}
	if tolerance <= 0 {
		tolerance = 0.25
	}
	return &AccuracyWeightedStop{
		Floor:      floor,
		MinAnswers: minAnswers,
		Tolerance:  tolerance,
		members:    make(map[string]*memberAcc),
		questions:  make(map[string]*qConsensus),
	}
}

// Name implements StopPolicy.
func (a *AccuracyWeightedStop) Name() string { return StopAccuracy }

// ObserveAnswer implements StopPolicy: grade the answer against the
// running consensus of earlier answers to the same question, then fold it
// into the consensus.
func (a *AccuracyWeightedStop) ObserveAnswer(questionKey, memberID string, support float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	q := a.questions[questionKey]
	if q == nil {
		q = &qConsensus{}
		a.questions[questionKey] = q
	}
	if q.n > 0 {
		m := a.members[memberID]
		if m == nil {
			m = &memberAcc{}
			a.members[memberID] = m
		}
		consensus := q.sum / float64(q.n)
		diff := support - consensus
		if diff < 0 {
			diff = -diff
		}
		m.trials++
		if diff <= a.Tolerance+Eps {
			m.hits++
		}
		if !m.flagged && m.trials >= a.MinAnswers && rateOf(m) < a.Floor {
			m.flagged = true // flags latch: a spammer stays excluded
		}
	}
	q.sum += support
	q.n++
}

// rateOf is the Laplace-smoothed accuracy rate.
func rateOf(m *memberAcc) float64 {
	return (float64(m.hits) + 1) / (float64(m.trials) + 2)
}

// ObserveDiscovery implements StopPolicy (accuracy tracking only consumes
// answers).
func (a *AccuracyWeightedStop) ObserveDiscovery(string, string) {}

// ShouldStop implements StopPolicy: the accuracy policy reweights the run
// instead of ending it.
func (a *AccuracyWeightedStop) ShouldStop() bool { return false }

// Estimate implements StopPolicy: the mean smoothed accuracy rate over
// graded members (1 before anyone has been graded — an unexamined crowd
// is trusted).
func (a *AccuracyWeightedStop) Estimate() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.members) == 0 {
		return 1
	}
	sum := 0.0
	for _, m := range a.members {
		sum += rateOf(m)
	}
	return sum / float64(len(a.members))
}

// Weight implements MemberWeighter: the member's smoothed accuracy rate,
// 0 when flagged, 0.5 (the uninformed prior) before any grading.
func (a *AccuracyWeightedStop) Weight(memberID string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.members[memberID]
	if m == nil {
		return 0.5
	}
	if m.flagged {
		return 0
	}
	return rateOf(m)
}

// Flagged implements MemberWeighter.
func (a *AccuracyWeightedStop) Flagged(memberID string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.members[memberID]
	return m != nil && m.flagged
}

// Rate returns the member's smoothed accuracy rate (0.5 before any
// grading), for reports and tests.
func (a *AccuracyWeightedStop) Rate(memberID string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.members[memberID]
	if m == nil {
		return 0.5
	}
	return rateOf(m)
}

// FlaggedMembers returns the flagged member IDs, sorted.
func (a *AccuracyWeightedStop) FlaggedMembers() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []string
	for id, m := range a.members {
		if m.flagged {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Weighted is the accuracy-weighted aggregation black box: like
// FixedSample it waits for K answers per question, but the verdict
// compares the weight-averaged support against the threshold, with each
// member's contribution scaled by W.Weight and flagged members dropped
// entirely. With a nil W it degenerates to FixedSample's plain mean.
// Weights are read at verdict time, so a member flagged late loses
// influence over every still-undecided question at once.
type Weighted struct {
	K int
	W MemberWeighter

	tally
}

// NewWeighted returns a Weighted aggregator requiring k answers and
// weighting them by w.
func NewWeighted(k int, w MemberWeighter) *Weighted {
	if k < 1 {
		k = 1
	}
	return &Weighted{K: k, W: w}
}

// weightedMean computes the current weighted mean of a record, iterating
// members in sorted order so float summation is deterministic. When every
// weight is zero (the whole sample flagged) it falls back to the plain
// mean — a degenerate crowd still gets the paper's semantics.
func (a *Weighted) weightedMean(r *record) float64 {
	if len(r.byMember) == 0 || a.W == nil {
		return r.mean()
	}
	members := make([]string, 0, len(r.byMember))
	for m := range r.byMember {
		members = append(members, m)
	}
	sort.Strings(members)
	num, den := 0.0, 0.0
	for _, m := range members {
		if a.W.Flagged(m) {
			continue
		}
		w := a.W.Weight(m)
		if w <= 0 {
			continue
		}
		num += w * r.byMember[m]
		den += w
	}
	if den <= 0 {
		return r.mean()
	}
	return num / den
}

// Verdict implements Aggregator.
func (a *Weighted) Verdict(key string, theta float64) Verdict {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.data[key]
	if r == nil || len(r.byMember) < a.K {
		return Undecided
	}
	if a.weightedMean(r) >= theta-Eps {
		return Significant
	}
	return Insignificant
}

// Mean implements Aggregator: the current weighted mean.
func (a *Weighted) Mean(key string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.data[key]
	if r == nil {
		return 0
	}
	return a.weightedMean(r)
}

// Package aggregate implements the answer-aggregation black box of
// Section 4.2 of the paper: given the answers collected from different crowd
// members for a question, it decides (i) whether enough answers have been
// gathered and (ii) whether the assignment in question is overall
// significant. FixedSample is the black box of the paper's crowd
// experiments (5 answers, average against the threshold). Crowd-member
// selection (Section 4.2) is the engine's spam filter, which grades each
// question's answers once this package's aggregator decides it.
package aggregate

import (
	"sort"
	"sync"
)

// Eps absorbs floating-point noise in threshold comparisons: the paper's
// semantics is "average support ≥ θ", and sums like 1/2 + 1/3 + 2/3 must
// not fall on the wrong side of the threshold by one ulp.
const Eps = 1e-9

// Verdict is the aggregator's decision for one question.
type Verdict int

// Verdicts.
const (
	Undecided Verdict = iota
	Significant
	Insignificant
)

func (v Verdict) String() string {
	switch v {
	case Significant:
		return "significant"
	case Insignificant:
		return "insignificant"
	default:
		return "undecided"
	}
}

// Aggregator decides overall significance from per-member answers. Answers
// are recorded per question key (the canonical key of the asked fact-set);
// a member's repeated answers to the same question are ignored after the
// first (the engine caches member answers anyway).
type Aggregator interface {
	// Record stores an answer. It reports whether the answer was new.
	Record(questionKey, memberID string, support float64) bool
	// Verdict returns the current decision against threshold theta.
	Verdict(questionKey string, theta float64) Verdict
	// Answers reports how many distinct member answers are recorded.
	Answers(questionKey string) int
	// Mean reports the current average answer (0 if none).
	Mean(questionKey string) float64
}

// FixedSample is the paper's crowd-experiment black box: a question is
// undecided until K answers have been collected; then it is significant iff
// the average support reaches the threshold. Per question key it keeps
// each member's first answer plus the running sum. It is safe for
// concurrent use.
type FixedSample struct {
	K int

	mu   sync.Mutex
	data map[string]*record
}

type record struct {
	byMember map[string]float64
	sum      float64
}

// mean is the record's plain average answer (0 with no answers).
func (r *record) mean() float64 {
	if len(r.byMember) == 0 {
		return 0
	}
	return r.sum / float64(len(r.byMember))
}

// NewFixedSample returns a FixedSample aggregator requiring k answers.
func NewFixedSample(k int) *FixedSample {
	if k < 1 {
		k = 1
	}
	return &FixedSample{K: k}
}

// Record implements Aggregator.
func (a *FixedSample) Record(key, member string, support float64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.data == nil {
		a.data = make(map[string]*record)
	}
	r := a.data[key]
	if r == nil {
		r = &record{byMember: make(map[string]float64)}
		a.data[key] = r
	}
	if _, dup := r.byMember[member]; dup {
		return false
	}
	r.byMember[member] = support
	r.sum += support
	return true
}

// Answers implements Aggregator.
func (a *FixedSample) Answers(key string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if r := a.data[key]; r != nil {
		return len(r.byMember)
	}
	return 0
}

// Mean implements Aggregator: the plain average answer.
func (a *FixedSample) Mean(key string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if r := a.data[key]; r != nil {
		return r.mean()
	}
	return 0
}

// Verdict implements Aggregator.
func (a *FixedSample) Verdict(key string, theta float64) Verdict {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.data[key]
	if r == nil || len(r.byMember) < a.K {
		return Undecided
	}
	if r.mean() >= theta-Eps {
		return Significant
	}
	return Insignificant
}

// SortedKeys returns the recorded question keys of a FixedSample in sorted
// order (for deterministic reporting).
func (a *FixedSample) SortedKeys() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	keys := make([]string, 0, len(a.data))
	for k := range a.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Package aggregate implements the answer-aggregation black box of
// Section 4.2 of the paper: given the answers collected from different crowd
// members for a question, it decides (i) whether enough answers have been
// gathered and (ii) whether the assignment in question is overall
// significant. Two aggregators are provided: the fixed-sample mean used in
// the paper's crowd experiments (5 answers, average against the threshold)
// and a confidence-interval aggregator in the style of the SIGMOD'13 Crowd
// Mining framework [3]. A consistency tracker for spammer filtering
// (Section 4.2, crowd member selection) is in consistency.go.
package aggregate

import (
	"math"
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

// tally is the answer store every aggregator embeds: per question key,
// each member's first answer plus the running sum and sum of squares.
// It supplies Record, Answers and the plain Mean of the Aggregator
// interface, so an aggregator adds only its Verdict (and, if it weighs
// answers, its own Mean). It is safe for concurrent use.
type tally struct {
	mu   sync.Mutex
	data map[string]*record
}

type record struct {
	byMember map[string]float64
	sum      float64
	sumSq    float64
}

// mean is the record's plain average answer (0 with no answers).
func (r *record) mean() float64 {
	if len(r.byMember) == 0 {
		return 0
	}
	return r.sum / float64(len(r.byMember))
}

// Record implements Aggregator.
func (t *tally) Record(key, member string, support float64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.data == nil {
		t.data = make(map[string]*record)
	}
	r := t.data[key]
	if r == nil {
		r = &record{byMember: make(map[string]float64)}
		t.data[key] = r
	}
	if _, dup := r.byMember[member]; dup {
		return false
	}
	r.byMember[member] = support
	r.sum += support
	r.sumSq += support * support
	return true
}

// Answers implements Aggregator.
func (t *tally) Answers(key string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.data[key]; r != nil {
		return len(r.byMember)
	}
	return 0
}

// Mean implements Aggregator: the plain average answer.
func (t *tally) Mean(key string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.data[key]; r != nil {
		return r.mean()
	}
	return 0
}

// FixedSample is the paper's crowd-experiment black box: a question is
// undecided until K answers have been collected; then it is significant iff
// the average support reaches the threshold.
type FixedSample struct {
	K int

	tally
}

// NewFixedSample returns a FixedSample aggregator requiring k answers.
func NewFixedSample(k int) *FixedSample {
	if k < 1 {
		k = 1
	}
	return &FixedSample{K: k}
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

// Confidence is a confidence-interval aggregator in the style of the
// SIGMOD'13 Crowd Mining estimators: the question is decided as soon as the
// threshold falls outside the mean ± Z·(sd/√n) interval (with n ≥ MinN), and
// forced to a mean comparison at MaxN answers.
type Confidence struct {
	Z    float64 // normal quantile, e.g. 1.96 for 95%
	MinN int
	MaxN int

	tally
}

// NewConfidence returns a Confidence aggregator with the given parameters.
func NewConfidence(z float64, minN, maxN int) *Confidence {
	if minN < 2 {
		minN = 2
	}
	if maxN < minN {
		maxN = minN
	}
	return &Confidence{Z: z, MinN: minN, MaxN: maxN}
}

// Verdict implements Aggregator.
func (a *Confidence) Verdict(key string, theta float64) Verdict {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.data[key]
	if r == nil || len(r.byMember) < a.MinN {
		return Undecided
	}
	n := float64(len(r.byMember))
	mean := r.sum / n
	if len(r.byMember) >= a.MaxN {
		if mean >= theta-Eps {
			return Significant
		}
		return Insignificant
	}
	variance := r.sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	se := math.Sqrt(variance / n)
	switch {
	case mean-a.Z*se >= theta-Eps:
		return Significant
	case mean+a.Z*se < theta-Eps:
		return Insignificant
	default:
		return Undecided
	}
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

// Package aggregate implements the answer-aggregation black box of
// Section 4.2 of the paper: given the answers collected from different crowd
// members for a question, it decides (i) whether enough answers have been
// gathered and (ii) whether the assignment in question is overall
// significant. FixedSample is the black box of the paper's crowd
// experiments (5 answers, average against the threshold). It keeps no
// answers: the engine's CrowdCache holds each question's answers once and
// hands their count and running sum to the rule. Crowd-member selection
// (Section 4.2) is the engine's spam filter, which grades each question's
// answers once this rule decides it.
package aggregate

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

// FixedSample is the paper's crowd-experiment black box: a question is
// undecided until K answers have been collected; then it is significant iff
// the average support reaches the threshold. It is a stateless rule, safe
// to share between runs and goroutines.
type FixedSample struct {
	K int
}

// NewFixedSample returns a FixedSample aggregator requiring k answers.
func NewFixedSample(k int) *FixedSample {
	if k < 1 {
		k = 1
	}
	return &FixedSample{K: k}
}

// Verdict decides a question from its n distinct member answers and their
// sum against threshold theta. No answers never decide a question.
func (a *FixedSample) Verdict(n int, sum, theta float64) Verdict {
	if n < 1 || n < a.K {
		return Undecided
	}
	if sum/float64(n) >= theta-Eps {
		return Significant
	}
	return Insignificant
}

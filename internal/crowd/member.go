package crowd

import (
	"math/rand"

	"oassis/internal/fact"
	"oassis/internal/vocab"
)

// SpecializeResponse is the structured answer to a specialization question.
// Exactly one of the three outcomes applies: Chosen (the member picked the
// candidate at Choice and reports its Support), Declined (the member
// prefers concrete questions — the paper lets members choose the question
// type), or neither ("none of these", which assigns support 0 to every
// candidate at once).
type SpecializeResponse struct {
	// Choice indexes the picked candidate; meaningful only when Chosen.
	Choice int
	// Support is the member's support for the picked candidate in [0, 1].
	Support float64
	// Chosen reports that a candidate was picked.
	Chosen bool
	// Declined reports that the member wants a concrete question instead.
	Declined bool
}

// Choose is a SpecializeResponse picking candidate idx with the given
// support.
func Choose(idx int, support float64) SpecializeResponse {
	return SpecializeResponse{Choice: idx, Support: support, Chosen: true}
}

// NoneOfThese is the SpecializeResponse rejecting every candidate.
func NoneOfThese() SpecializeResponse { return SpecializeResponse{} }

// DeclineSpecialization is the SpecializeResponse asking for concrete
// questions instead.
func DeclineSpecialization() SpecializeResponse { return SpecializeResponse{Declined: true} }

// Member is the question interface between the mining engine and one crowd
// member. All questions are about fact-sets (the instantiated SATISFYING
// meta-fact-set of an assignment).
type Member interface {
	// ID identifies the member.
	ID() string

	// Concrete answers a concrete question (Section 2): the member's
	// support for the fact-set, already translated to [0, 1].
	Concrete(fs fact.Set) float64

	// ChooseSpecialization answers a specialization question: given the
	// candidate specializations of the current fact-set (the UI's
	// auto-completion suggestions, §6.2), the member picks one that is
	// significant in their history and reports its support, rejects all of
	// them, or declines in favor of a concrete question.
	ChooseSpecialization(candidates []fact.Set) SpecializeResponse

	// Irrelevant implements user-guided pruning (§6.2): the member may mark
	// one of the given terms as irrelevant, meaning every assignment
	// involving that term or a more specific one has support 0 for them.
	Irrelevant(terms []vocab.Term) (vocab.Term, bool)
}

// Discretizer maps a true support value to the answer actually given; the
// paper's UI offers never / rarely / sometimes / often / very often,
// interpreted as 0, 0.25, 0.5, 0.75 and 1.
type Discretizer func(float64) float64

// FiveLevel is the paper's five-answer scale.
func FiveLevel(s float64) float64 {
	switch {
	case s < 0.125:
		return 0
	case s < 0.375:
		return 0.25
	case s < 0.625:
		return 0.5
	case s < 0.875:
		return 0.75
	default:
		return 1
	}
}

// Exact reports the support unchanged.
func Exact(s float64) float64 { return s }

// SimMember is a simulated crowd member backed by a virtual personal DB.
// Its answer behavior is configurable to reproduce the paper's experiments:
// the probability of accepting a specialization question over a concrete one
// (§6.4 varies this ratio), the probability of volunteering a user-guided
// pruning click, the member's own significance threshold when choosing
// specializations, and the answer discretization.
type SimMember struct {
	Name string
	DB   *PersonalDB

	// SpecializeProb is the probability the member answers a specialization
	// question rather than declining it in favor of a concrete one.
	SpecializeProb float64
	// PruneProb is the probability of a user-guided pruning click when an
	// irrelevant term is present in the question.
	PruneProb float64
	// Theta is the member's own notion of "significant" when picking a
	// specialization to report.
	Theta float64
	// Disc discretizes answers; nil means FiveLevel.
	Disc Discretizer
	// Rng drives the member's random choices; nil means deterministic
	// (always specialize if possible, never prune).
	Rng *rand.Rand
}

// ID implements Member.
func (m *SimMember) ID() string { return m.Name }

func (m *SimMember) disc(s float64) float64 {
	if m.Disc == nil {
		return FiveLevel(s)
	}
	return m.Disc(s)
}

func (m *SimMember) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	if m.Rng == nil {
		return false
	}
	return m.Rng.Float64() < p
}

// Concrete implements Member.
func (m *SimMember) Concrete(fs fact.Set) float64 {
	return m.disc(m.DB.Support(fs))
}

// ChooseSpecialization implements Member.
func (m *SimMember) ChooseSpecialization(candidates []fact.Set) SpecializeResponse {
	if !m.chance(m.SpecializeProb) {
		return DeclineSpecialization() // prefers a concrete question
	}
	idx, sup := m.DB.FrequentSupersets(candidates, m.Theta)
	if len(idx) == 0 {
		return NoneOfThese()
	}
	// Pick the most frequent candidate (deterministic tie-break by index).
	best := 0
	for i := range idx {
		if sup[i] > sup[best] {
			best = i
		}
	}
	return Choose(idx[best], m.disc(sup[best]))
}

// Irrelevant implements Member: terms never occurring (even generalized) in
// the member's history may be marked irrelevant with probability PruneProb.
func (m *SimMember) Irrelevant(terms []vocab.Term) (vocab.Term, bool) {
	for _, t := range terms {
		if !m.DB.ContainsTerm(t) && m.chance(m.PruneProb) {
			return t, true
		}
	}
	return vocab.None, false
}

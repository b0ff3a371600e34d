package plan

// Registry names of the question orderings. An ordering decides which
// unclassified lattice node the crowd is asked about next; it is part of
// the compiled plan, so each ordering is a distinct plan variant.
const (
	// PolicyPaperOrder is the paper's §4 order and the default: ask about
	// the smallest unclassified assignment first (bottom-up
	// generalization pays for itself — small significant assignments
	// prune the most), with the lexicographically least key breaking
	// ties. The engine runs it as one allocation-free comparator scan.
	PolicyPaperOrder = "paper-order"
	// PolicyMaxPrune is the opt-in adaptive ordering, MaxPrune.
	PolicyMaxPrune = "max-prune"
)

// OrderingByName validates an ordering name and returns its canonical
// form: the empty name is the planner's default, PolicyPaperOrder.
// Unknown names wrap ErrUnknownPolicy.
func OrderingByName(name string) (string, error) {
	switch name {
	case "":
		return PolicyPaperOrder, nil
	case PolicyPaperOrder, PolicyMaxPrune:
		return name, nil
	}
	return "", unknownPolicy(name)
}

// OrderingNames lists the ordering names, sorted — the vocabulary of
// Plan.PolicyName, WithPolicy validation and the experiment sweeps.
func OrderingNames() []string {
	return []string{PolicyMaxPrune, PolicyPaperOrder}
}

// CandidateView is the read-only window MaxPrune gets over the engine's
// current candidate set: every unclassified generated node, with its
// lattice position (size, fringe counts among still-unclassified
// neighbors) and its live answer aggregate. The engine materializes the
// view over its interned node store; candidates are presented in
// canonical key order, which is the one enumeration identical across
// sequential, concurrent and panel execution — the determinism contract
// rests on it.
//
// The fringe counts are the pruning potential of Observation 4.4:
// significance is downward closed and insignificance upward closed, so
// classifying a candidate significant settles its unresolved down-set
// (UnclassifiedPredecessors) and classifying it insignificant settles its
// unresolved up-set (UnclassifiedSuccessors) — without asking a single
// further question about those neighbors.
type CandidateView interface {
	// Len returns the number of candidates.
	Len() int
	// Key returns candidate i's canonical node key. Keys are distinct and
	// ascending in i.
	Key(i int) string
	// Size returns candidate i's lattice size (pattern specificity).
	Size(i int) int
	// UnclassifiedSuccessors counts candidate i's immediate successors
	// that are still unclassified — the up-set fringe an insignificant
	// verdict prunes.
	UnclassifiedSuccessors(i int) int
	// UnclassifiedPredecessors counts candidate i's immediate predecessors
	// that are still unclassified — the down-set fringe a significant
	// verdict settles by inference.
	UnclassifiedPredecessors(i int) int
	// Answers returns how many crowd answers candidate i's question has
	// collected so far.
	Answers(i int) int
	// Mean returns the running mean support of candidate i's question
	// (0 with no answers).
	Mean(i int) float64
	// Theta returns the run's significance threshold.
	Theta() float64
}

// MaxPrune is the adaptive ordering: it re-scores every candidate from
// the live answer distribution, weighting the two one-sided prunes of
// Observation 4.4 by the estimated probability of each verdict. A
// candidate whose running mean sits far above the threshold is probably
// significant, so its value is the down-set it would settle; far below,
// the up-set it would prune. Candidates without answers score under the
// running prior — the mean verdict probability observed on answered
// candidates so far — which is how the ordering adapts as evidence
// accumulates.
//
// A MaxPrune carries that prior across rounds, so every run starts from a
// fresh zero value (an indifferent prior of 0.5). It is deterministic:
// the same view and state always pick the same index.
type MaxPrune struct {
	// prior is the running estimate of P(significant) for candidates
	// without answers; warm reports that it has been estimated at least
	// once.
	prior float64
	warm  bool
}

// probSignificant maps a running mean to a verdict probability: linear in
// the distance from the threshold, clamped away from certainty so no
// candidate's fringe is ever fully discounted on partial evidence.
func probSignificant(mean, theta float64) float64 {
	p := 0.5 + (mean - theta)
	if p < 0.05 {
		return 0.05
	}
	if p > 0.95 {
		return 0.95
	}
	return p
}

// Select returns the index in [0, v.Len()) of the candidate with the
// greatest expected prune p·down + (1−p)·up, breaking ties with the
// paper's (size, key)-least order so the choice is a total order. It is
// never called on an empty view.
func (s *MaxPrune) Select(v CandidateView) int {
	theta := v.Theta()
	sum, n := 0.0, 0
	for i := 0; i < v.Len(); i++ {
		if v.Answers(i) > 0 {
			sum += probSignificant(v.Mean(i), theta)
			n++
		}
	}
	if n > 0 {
		s.prior, s.warm = sum/float64(n), true
	} else if !s.warm {
		s.prior = 0.5
	}
	best, bestScore := -1, 0.0
	for i := 0; i < v.Len(); i++ {
		p := s.prior
		if v.Answers(i) > 0 {
			p = probSignificant(v.Mean(i), theta)
		}
		score := p*float64(v.UnclassifiedPredecessors(i)) +
			(1-p)*float64(v.UnclassifiedSuccessors(i))
		if best < 0 || score > bestScore ||
			(score == bestScore && paperBefore(v, i, best)) {
			best, bestScore = i, score
		}
	}
	return best
}

// paperBefore is MaxPrune's tie-break: between equally-scored
// candidates, fall back to the paper's (size, key)-least order.
func paperBefore(v CandidateView, i, j int) bool {
	if v.Size(i) != v.Size(j) {
		return v.Size(i) < v.Size(j)
	}
	return v.Key(i) < v.Key(j)
}

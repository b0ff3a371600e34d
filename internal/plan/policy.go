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
// Plan.PolicyName, Plan.Variant validation and the experiment sweeps.
func OrderingNames() []string {
	return []string{PolicyMaxPrune, PolicyPaperOrder}
}

// Candidate is one row of the table MaxPrune selects from: an
// unclassified generated node with its lattice position and its live
// answer aggregate. The engine fills the table in canonical key order,
// the one enumeration identical across sequential, concurrent and panel
// execution — the determinism contract rests on it.
//
// Up and Down are the pruning potential of Observation 4.4: significance
// is downward closed and insignificance upward closed, so classifying a
// candidate significant settles its unresolved down-set and classifying
// it insignificant prunes its unresolved up-set — without asking a single
// further question about those neighbors.
type Candidate struct {
	// Key is the node's canonical key, distinct and ascending in the
	// table.
	Key string
	// Size is the node's lattice size (pattern specificity).
	Size int
	// Up counts the node's immediate successors that are still
	// unclassified.
	Up int
	// Down counts the node's immediate predecessors that are still
	// unclassified.
	Down int
	// Answers is how many crowd answers the node's question has
	// collected so far.
	Answers int
	// Mean is the running mean support of the node's question (0 with no
	// answers).
	Mean float64
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
// the same table and state always pick the same index.
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

// Select returns the index in cs of the candidate with the greatest
// expected prune p·Down + (1−p)·Up under significance threshold theta,
// breaking ties with the paper's (size, key)-least order so the choice is
// a total order. It is never called on an empty table.
func (s *MaxPrune) Select(cs []Candidate, theta float64) int {
	sum, n := 0.0, 0
	for _, c := range cs {
		if c.Answers > 0 {
			sum += probSignificant(c.Mean, theta)
			n++
		}
	}
	if n > 0 {
		s.prior, s.warm = sum/float64(n), true
	} else if !s.warm {
		s.prior = 0.5
	}
	best, bestScore := -1, 0.0
	for i, c := range cs {
		p := s.prior
		if c.Answers > 0 {
			p = probSignificant(c.Mean, theta)
		}
		score := p*float64(c.Down) + (1-p)*float64(c.Up)
		if best < 0 || score > bestScore ||
			(score == bestScore && paperBefore(c, cs[best])) {
			best, bestScore = i, score
		}
	}
	return best
}

// paperBefore is MaxPrune's tie-break: between equally-scored
// candidates, fall back to the paper's (size, key)-least order.
func paperBefore(a, b Candidate) bool {
	if a.Size != b.Size {
		return a.Size < b.Size
	}
	return a.Key < b.Key
}

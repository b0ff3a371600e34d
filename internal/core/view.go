package core

import (
	"sort"

	"oassis/internal/assign"
)

// candidateView is the engine's concrete plan.CandidateView: a snapshot
// of the unclassified pool candidates in canonical key order, with their
// lattice fringe counts and live aggregates, built fresh before every
// max-prune selection. The backing slices live on the engine and are
// reused across rounds, so a max-prune run allocates only what the
// candidate set grows to.
//
// Candidate enumeration MUST be deterministic across execution modes:
// the unclassified set is a Go map (iteration order random), and interned
// node ids can differ between sequential and speculative (session/panel)
// execution, so the view sorts by canonical node key — the one order
// every mode agrees on. The equivalence matrix in internal/panel rests
// on this.
type candidateView struct {
	e     *engine
	ids   []uint32
	keys  []string
	sizes []int
	ups   []int
	downs []int
	ans   []int
	means []float64
}

func (v *candidateView) reset() {
	v.ids = v.ids[:0]
	v.keys = v.keys[:0]
	v.sizes = v.sizes[:0]
	v.ups = v.ups[:0]
	v.downs = v.downs[:0]
	v.ans = v.ans[:0]
	v.means = v.means[:0]
}

// Len implements plan.CandidateView.
func (v *candidateView) Len() int { return len(v.ids) }

// Key implements plan.CandidateView.
func (v *candidateView) Key(i int) string { return v.keys[i] }

// Size implements plan.CandidateView.
func (v *candidateView) Size(i int) int { return v.sizes[i] }

// UnclassifiedSuccessors implements plan.CandidateView.
func (v *candidateView) UnclassifiedSuccessors(i int) int { return v.ups[i] }

// UnclassifiedPredecessors implements plan.CandidateView.
func (v *candidateView) UnclassifiedPredecessors(i int) int { return v.downs[i] }

// Answers implements plan.CandidateView.
func (v *candidateView) Answers(i int) int { return v.ans[i] }

// Mean implements plan.CandidateView.
func (v *candidateView) Mean(i int) float64 { return v.means[i] }

// Theta implements plan.CandidateView.
func (v *candidateView) Theta() float64 { return v.e.cfg.Theta }

// countUnclassified counts the still-unclassified nodes among ns. The
// status probe registers unseen neighbors with the classifier — exactly
// what unclassifiedSuccessors does on the descent path — which is
// deterministic here because candidates (and their neighbor lists) are
// walked in canonical order.
func (e *engine) countUnclassified(ns []assign.Assignment) int {
	n := 0
	for _, s := range ns {
		if e.cls.status(s) == Unclassified {
			n++
		}
	}
	return n
}

// buildView snapshots the current candidate set into the engine's
// reusable view. With answeredOnly, candidates whose questions hold no
// recorded answers are excluded (the frontier-settlement filter).
func (e *engine) buildView(answeredOnly bool) *candidateView {
	v := &e.view
	v.e = e
	v.reset()
	for id := range e.cls.unclassified {
		if int(id) >= len(e.inPool) || !e.inPool[id] {
			continue
		}
		if answeredOnly {
			_, qKey := e.instantiate(e.ns.node(id))
			if e.agg.Answers(qKey) == 0 {
				continue
			}
		}
		v.ids = append(v.ids, id)
		v.keys = append(v.keys, e.ns.node(id).Key())
	}
	sort.Sort(byKey{v})
	for _, id := range v.ids {
		n := e.ns.node(id)
		v.sizes = append(v.sizes, n.Size())
		v.ups = append(v.ups, e.countUnclassified(e.succsOf(id)))
		v.downs = append(v.downs, e.countUnclassified(e.predsOf(id)))
		_, qKey := e.instantiate(n)
		v.ans = append(v.ans, e.agg.Answers(qKey))
		v.means = append(v.means, e.agg.Mean(qKey))
	}
	return v
}

// byKey sorts the view's (ids, keys) pair by canonical key.
type byKey struct{ v *candidateView }

func (s byKey) Len() int           { return len(s.v.ids) }
func (s byKey) Less(i, j int) bool { return s.v.keys[i] < s.v.keys[j] }
func (s byKey) Swap(i, j int) {
	s.v.ids[i], s.v.ids[j] = s.v.ids[j], s.v.ids[i]
	s.v.keys[i], s.v.keys[j] = s.v.keys[j], s.v.keys[i]
}

// pickSelected runs the max-prune selector over a fresh candidate view
// and maps the chosen index back to its node.
func (e *engine) pickSelected(answeredOnly bool) (assign.Assignment, bool) {
	v := e.buildView(answeredOnly)
	if v.Len() == 0 {
		return assign.Assignment{}, false
	}
	return e.ns.node(v.ids[e.maxPrune.Select(v)]), true
}

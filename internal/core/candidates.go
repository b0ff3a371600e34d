package core

import (
	"slices"
	"strings"

	"oassis/internal/assign"
	"oassis/internal/plan"
)

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

// candidates fills the max-prune candidate table: every unclassified
// pool node in canonical key order, with its lattice fringe counts and
// live aggregate. e.candIDs holds the node ids row for row. With
// answeredOnly, candidates whose questions hold no recorded answers are
// excluded (the frontier-settlement filter). Both slices are reused
// across rounds, so a max-prune run allocates only what the candidate set
// grows to.
//
// The order MUST be deterministic across execution modes: the
// unclassified set keeps no meaningful order (a removal swaps the last id
// into the hole, and settling order follows the classifier's postings),
// and interned node ids can differ between sequential and speculative
// (session/panel) execution, so the table sorts by canonical node key —
// the one order every mode agrees on. The equivalence matrix in
// internal/panel rests on this.
func (e *engine) candidates(answeredOnly bool) []plan.Candidate {
	ids := e.candIDs[:0]
	for _, id := range e.cls.uncl {
		if int(id) >= len(e.inPool) || !e.inPool[id] {
			continue
		}
		if answeredOnly {
			_, qKey := e.instantiate(e.ns.node(id))
			if e.agg.Answers(qKey) == 0 {
				continue
			}
		}
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b uint32) int {
		return strings.Compare(e.ns.node(a).Key(), e.ns.node(b).Key())
	})
	cs := e.cands[:0]
	for _, id := range ids {
		n := e.ns.node(id)
		up := e.countUnclassified(e.succsOf(id))
		down := e.countUnclassified(e.predsOf(id))
		_, qKey := e.instantiate(n)
		cs = append(cs, plan.Candidate{Key: n.Key(), Size: n.Size(), Up: up, Down: down,
			Answers: e.agg.Answers(qKey), Mean: e.agg.Mean(qKey)})
	}
	e.candIDs, e.cands = ids, cs
	return cs
}

// pickSelected runs the max-prune selector over a fresh candidate table
// and maps the chosen row back to its node.
func (e *engine) pickSelected(answeredOnly bool) (assign.Assignment, bool) {
	cs := e.candidates(answeredOnly)
	if len(cs) == 0 {
		return assign.Assignment{}, false
	}
	return e.ns.node(e.candIDs[e.maxPrune.Select(cs, e.cfg.Theta)]), true
}

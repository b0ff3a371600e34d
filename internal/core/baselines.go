package core

import "oassis/internal/assign"

// RunHorizontal executes the Horizontal baseline of §6.4, inspired by the
// classic Apriori algorithm: it proceeds level by level from the most
// general assignments and asks about an assignment only after all of its
// predecessors have been found significant. It shares the engine's inference
// scheme and never re-asks classified assignments.
func RunHorizontal(cfg Config) *Result {
	e := newEngine(cfg, memberIDs(cfg.Members))
	e.seed()

	frontier := append([]uint32(nil), e.poolIDs...)
	var preds []uint32
	for len(frontier) > 0 && e.budgetLeft() {
		// Ask every unclassified node of the current level.
		e.sortByKey(frontier)
		next := map[uint32]struct{}{}
		for _, node := range frontier {
			if !e.budgetLeft() {
				break
			}
			e.classify(node)
			if e.cls.status(node) != Significant {
				continue
			}
			for _, s := range e.succsOf(node) {
				// Apriori candidate condition: all predecessors significant.
				if e.cls.status(s) != Unclassified {
					continue
				}
				allSig := true
				preds = e.cfg.Space.AppendPredecessorIDs(preds[:0], s)
				for _, p := range preds {
					if e.cls.status(p) != Significant {
						allSig = false
						break
					}
				}
				if allSig {
					e.addNode(s)
					next[s] = struct{}{}
				}
			}
		}
		frontier = frontier[:0]
		for id := range next {
			frontier = append(frontier, id)
		}
	}
	return e.result()
}

// RunNaive executes the Naive baseline of §6.4: it asks about assignments in
// random order among the valid ones (plus, for fairness, any multiplicity
// nodes already generated — the paper feeds the naive algorithm the
// assignments the vertical algorithm generated). It uses the same inference
// scheme and skips classified assignments.
func RunNaive(cfg Config, extra []assign.Assignment) *Result {
	e := newEngine(cfg, memberIDs(cfg.Members))
	nodes := make([]uint32, 0, len(cfg.Space.ValidBase)+len(extra))
	seen := map[uint32]bool{}
	add := func(a assign.Assignment) {
		if id := cfg.Space.ID(a); !seen[id] {
			seen[id] = true
			nodes = append(nodes, id)
		}
	}
	for _, row := range cfg.Space.ValidBase {
		add(cfg.Space.Singleton(row...))
	}
	for _, n := range extra {
		add(n)
	}
	if cfg.Rng != nil {
		cfg.Rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	}
	for _, n := range nodes {
		if !e.budgetLeft() {
			break
		}
		e.addNode(n)
		if e.cls.status(n) != Unclassified {
			continue
		}
		e.classify(n)
	}
	return e.result()
}

// classify collects answers for one node from the crowd until the aggregator
// decides (or the crowd is exhausted, forcing a verdict).
func (e *engine) classify(node uint32) {
	if e.cls.status(node) != Unclassified {
		return
	}
	for mi := range e.ids {
		if !e.budgetLeft() {
			return
		}
		if !e.memberActive(mi) {
			continue
		}
		e.pull(mi, node)
		if e.cls.status(node) != Unclassified {
			return
		}
	}
	if e.cls.status(node) == Unclassified {
		e.forceClassify(node)
	}
}

// BaselineQuestions computes the question count of the paper's baseline%
// comparator (Fig. 4a–4c): an algorithm that asks K questions for every
// valid assignment, without any traversal order or inference.
func BaselineQuestions(sp *assign.Space, k int) int {
	return len(sp.ValidBase) * k
}

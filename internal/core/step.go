package core

import (
	"oassis/internal/aggregate"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/obs"
)

// The engine is a resumable step machine over the vertical algorithm
// (Algorithm 1 with the multi-user modifications of §4.2). Its position
// in the algorithm's loops — the round's node, whose turn it is, the node
// a member's descent chain has reached — is plain data in a cursor, and
// step advances it one phase at a time. A phase that needs a crowd answer
// parks the engine on a question and returns; answer delivers the reply,
// and the same phase picks it up on its next step. A Session holds the
// engine parked until its caller answers (Run is a session whose members
// answer inline), and the baselines pull answers synchronously. There is
// no goroutine and no channel anywhere: between calls the engine is just
// data.

// phase is a position in the algorithm's control flow.
type phase uint8

const (
	phRound    phase = iota // main loop: pick the round's node
	phTurn                  // the next member's turn at the round's node
	phAskNode               // ask the member about the round's node
	phDescend               // descent loop: the chain node's successors
	phAskSucc               // try the next successor, budget permitting
	phAskSuccQ              // ask the member about that successor
	phSpecQ                 // ask a specialization question over them
	phDeclineQ              // specialization declined: ask the first one
	phChainEnd              // the member's descent chain ends
	phRoundEnd              // every member had their turn
	phDone                  // the run is over
)

// cursor is the engine's position in the algorithm.
type cursor struct {
	at    phase
	round int        // rounds started so far
	node  uint32     // id of the round's node
	turn  int        // index of the member whose turn it is (-1 before the first)
	cur   uint32     // id of the node the member's descent chain has reached
	succs []uint32   // ids of cur's unclassified successors being asked
	next  int        // index into succs of the successor being asked
	sets  []fact.Set // the specialization question's candidates
}

// want is the crowd question the engine is parked on: render builds the
// Question from these ids.
type want struct {
	mi   int          // index of the asked member
	node uint32       // id of the questioned node (concrete and pruning questions)
	qid  uint32       // the node's question id (concrete and pruning questions)
	kind QuestionKind // concrete, specialization or pruning
}

// reply hands a delivered answer to the phase that parked for it.
type reply struct {
	ok      bool    // the question point is resolved
	sup     float64 // the support, at a support question point
	ans     Answer  // the response, at a specialization question
	noClick bool    // the pruning offer went unclicked: ask the concrete question
}

// run advances the machine until it parks on a crowd question, which it
// returns, or finishes (nil). A question parked for a member who left, or
// once the run is canceled, is answered on the spot with a decline —
// support 0, no click, no choice — so only live questions reach a driver.
func (e *engine) run() *want {
	for e.at.at != phDone {
		if e.parked {
			if !e.canceled() && !e.left[e.want.mi] {
				return &e.want
			}
			e.answer(Answer{Declined: true})
		}
		e.step()
	}
	return nil
}

// answer delivers the reply to the parked question. Once the run is
// canceled the reply is discarded, so the recorded state stays a prefix
// of the uncanceled run's, but it still resolves the question point.
func (e *engine) answer(a Answer) {
	w := &e.want
	e.parked = false
	switch {
	case w.kind == KindSpecialization:
		e.rep = reply{ok: true, ans: a}
	case e.canceled():
		e.rep = reply{ok: true}
	case w.kind == KindPruning:
		terms := e.pruneTerms(w.qid)
		if !a.Chosen || a.Choice < 0 || a.Choice >= len(terms) {
			e.rep = reply{noClick: true}
			return
		}
		e.prune(w.mi, terms[a.Choice])
		e.recordAnswer(w.node, w.qid, w.mi, 0, KindPruning, true)
		e.rep = reply{ok: true}
	default:
		e.recordAnswer(w.node, w.qid, w.mi, a.Support, KindConcrete, true)
		e.rep = reply{ok: true, sup: a.Support}
	}
}

// park suspends the machine on a question to member mi.
func (e *engine) park(mi int, node, qid uint32, kind QuestionKind) {
	e.want = want{mi: mi, node: node, qid: qid, kind: kind}
	e.parked = true
}

// render writes member mi's question of the given kind into q, every
// field but ID and Speculative: a concrete question's facts are question
// qid's, a pruning offer's terms those of question qid, and a
// specialization's candidates the cursor's — so a specialization renders
// only while the engine is parked on it.
func (e *engine) render(q *Question, mi int, qid uint32, kind QuestionKind) {
	q.Member, q.Kind = e.ids[mi], kind
	q.Facts, q.Choices, q.Terms = nil, nil, nil
	switch kind {
	case KindConcrete:
		q.Facts = e.qs.all[qid].fs
	case KindSpecialization:
		q.Choices = e.at.sets
	case KindPruning:
		q.Terms = e.pruneTerms(qid)
	}
}

// wanted renders the question the engine is parked on.
func (e *engine) wanted() Question {
	var q Question
	e.render(&q, e.want.mi, e.want.qid, e.want.kind)
	return q
}

// take consumes the reply delivered to the current question point.
func (e *engine) take() reply {
	r := e.rep
	e.rep = reply{}
	return r
}

// step runs one phase.
func (e *engine) step() {
	c := &e.at
	switch c.at {
	case phRound:
		e.startRound()
	case phTurn:
		c.turn++
		switch {
		case c.turn == len(e.ids):
			c.at = phRoundEnd
		case e.spent(c.turn) || !e.budgetLeft() || !e.memberActive(c.turn):
			// no turn for this member
		case e.cls.status(c.node) != Unclassified:
			c.at = phRoundEnd
		default:
			c.at = phAskNode
		}
	case phAskNode:
		if s, ok := e.support(c.turn, c.node); ok {
			if e.affirmed(s, c.node) {
				c.cur, c.at = c.node, phDescend
			} else {
				c.at = phTurn
			}
		}
	case phDescend:
		if !e.budgetLeft() || e.spent(c.turn) {
			c.at = phChainEnd
			return
		}
		c.succs = e.appendUnclassifiedSuccessors(c.succs[:0], c.cur)
		switch {
		case len(c.succs) == 0:
			c.at = phChainEnd
		case e.specializeCoin():
			e.offerSpecialization()
		default:
			c.next, c.at = 0, phAskSucc
		}
	case phAskSucc:
		if c.next == len(c.succs) || e.spent(c.turn) || !e.budgetLeft() {
			c.at = phChainEnd // no successor affirmed
		} else {
			c.at = phAskSuccQ
		}
	case phAskSuccQ:
		n := c.succs[c.next]
		if s, ok := e.support(c.turn, n); ok {
			if e.affirmed(s, n) {
				c.cur, c.at = n, phDescend
			} else {
				c.next++
				c.at = phAskSucc
			}
		}
	case phSpecQ:
		if r := e.take(); r.ok {
			e.specialized(r.ans)
		} else {
			e.park(c.turn, 0, 0, KindSpecialization)
		}
	case phDeclineQ:
		n := c.succs[0]
		if s, ok := e.support(c.turn, n); ok {
			if e.affirmed(s, n) {
				c.cur, c.at = n, phDescend
			} else {
				c.at = phChainEnd
			}
		}
	case phChainEnd:
		// Line 8 of Algorithm 1: the chain's last node is a candidate MSP.
		e.recordChainMax(c.cur)
		e.observeStopDiscovery(c.cur, e.ids[c.turn])
		c.at = phTurn
	case phRoundEnd:
		if e.cls.status(c.node) == Unclassified && e.newAnswers == 0 {
			// The remaining crowd cannot decide this node: force a
			// verdict from the current mean (crowd exhausted).
			e.forceClassify(c.node)
		}
		c.at = phRound
	}
}

// startRound picks the next unclassified node and gives every member a
// turn at it, or ends the run when every generated node is classified,
// the budget is spent, or (top-k extension) enough MSPs are confirmed.
func (e *engine) startRound() {
	if !e.budgetLeft() {
		e.finish()
		return
	}
	e.drainExpansions()
	node, ok := e.pickUnclassified(false)
	if !ok || e.cfg.MaxMSPs > 0 && e.confirmedMSPs() >= e.cfg.MaxMSPs {
		e.finish()
		return
	}
	e.cfg.Metrics.roundStarted()
	e.endRound()
	e.endRound = obs.Begin(e.cfg.Tracer, "round", obs.A("node", e.cfg.Space.Node(node).Key()))
	e.newAnswers = 0
	c := &e.at
	c.round++
	c.node, c.turn, c.at = node, -1, phTurn
}

// finish ends the run.
func (e *engine) finish() {
	e.endRound()
	e.at.at = phDone
}

// support is the question point behind ask(·): member mi's support for
// node, known without asking from the member's earlier answers, pruning
// inference or the primed cache (ok), or else parked on a pruning offer
// and then a concrete question (!ok), whose delivered answer the next
// call returns.
func (e *engine) support(mi int, node uint32) (float64, bool) {
	r := e.take()
	if r.ok {
		return r.sup, true
	}
	qid, q := e.questionOf(node)
	if s, ok := q.support(mi); ok {
		e.stats.FreeAnswers++
		e.cfg.Metrics.freeAnswer()
		e.applyVerdict(node, q)
		return s, true
	}
	if e.pruneHit(mi, q.fs) {
		e.recordAnswer(node, qid, mi, 0, KindConcrete, false)
		return 0, true
	}
	if s, ok := e.primed(qid, mi); ok {
		e.stats.PrimedAnswers++
		e.cfg.Metrics.primedAnswer()
		e.recordAnswer(node, qid, mi, s, KindConcrete, true)
		return s, true
	}
	if e.canceled() {
		return 0, true
	}
	if e.cfg.EnablePruning && !r.noClick {
		if terms := e.pruneTerms(qid); len(terms) > 0 {
			e.park(mi, node, qid, KindPruning)
			return 0, false
		}
	}
	e.park(mi, node, qid, KindConcrete)
	return 0, false
}

// pull obtains member mi's support for node synchronously from
// cfg.Members: the baselines' use of the question point.
func (e *engine) pull(mi int, node uint32) float64 {
	for {
		if s, ok := e.support(mi, node); ok {
			return s
		}
		e.answer(AnswerFrom(e.cfg.Members[mi], e.wanted()))
	}
}

// affirmed books the turn member's answer about n and reports whether
// their descent continues from n: the ask(·) test of Algorithm 1 with the
// §4.2 modification — the member's own support reaches the threshold AND
// n is not overall insignificant, so members are not sent down branches
// that are already globally dead.
func (e *engine) affirmed(s float64, n uint32) bool {
	e.decBudget(e.at.turn)
	return s >= e.cfg.Theta-aggregate.Eps && e.cls.status(n) != Insignificant
}

// offerSpecialization prepares a specialization question over (at most
// maxSpecializationCandidates of) the chain node's successors.
func (e *engine) offerSpecialization() {
	c := &e.at
	if len(c.succs) > maxSpecializationCandidates {
		c.succs = c.succs[:maxSpecializationCandidates]
	}
	c.sets = make([]fact.Set, len(c.succs))
	for i, s := range c.succs {
		_, q := e.questionOf(s)
		c.sets[i] = q.fs
	}
	c.at = phSpecQ
}

// specialized applies a specialization response (§6.2). A decline falls
// back to a concrete question on the first candidate; "none of these" —
// or a choice outside the candidates — is one counted answer of support
// 0 for every candidate at once; a choice continues the descent from the
// chosen candidate when its support reaches the threshold.
func (e *engine) specialized(a Answer) {
	c := &e.at
	switch {
	case e.canceled():
		// Canceled while the question was in flight: discard the answer so
		// cancellation points never perturb recorded state.
		c.at = phChainEnd
	case a.Declined:
		c.at = phDeclineQ
	case !a.Chosen || a.Choice < 0 || a.Choice >= len(c.succs):
		e.countAnswer(KindNoneOfThese)
		e.answersBy[c.turn]++
		e.decBudget(c.turn)
		for _, s := range c.succs {
			e.recordAnswer(s, e.instantiate(s), c.turn, 0, KindNoneOfThese, false)
		}
		c.at = phChainEnd
	default:
		chosen := c.succs[a.Choice]
		qid := e.instantiate(chosen)
		e.countAnswer(KindSpecialization)
		e.answersBy[c.turn]++
		e.decBudget(c.turn)
		e.recordAnswer(chosen, qid, c.turn, a.Support, KindSpecialization, false)
		e.qs.all[qid].asked = true
		if a.Support >= e.cfg.Theta-aggregate.Eps && e.cls.status(chosen) != Insignificant {
			c.cur, c.at = chosen, phDescend
		} else {
			c.at = phChainEnd
		}
	}
}

// decBudget decrements member mi's per-question budget if bounded.
func (e *engine) decBudget(mi int) {
	if e.budgets != nil && e.budgets[mi] > 0 {
		e.budgets[mi]--
	}
}

// spent reports whether member mi has used up a bounded per-member budget.
func (e *engine) spent(mi int) bool {
	return e.budgets != nil && e.budgets[mi] == 0
}

// AnswerFrom obtains a crowd member's answer to a question: the one
// conversion from the crowd.Member interface to the session protocol,
// shared by Run, the baselines and the panel dispatcher.
func AnswerFrom(m crowd.Member, q Question) Answer {
	switch q.Kind {
	case KindSpecialization:
		r := m.ChooseSpecialization(q.Choices)
		return Answer{Support: r.Support, Choice: r.Choice, Chosen: r.Chosen, Declined: r.Declined}
	case KindPruning:
		if t, ok := m.Irrelevant(q.Terms); ok {
			for i, cand := range q.Terms {
				if cand == t {
					return AnswerIrrelevant(i)
				}
			}
		}
		return AnswerNoClick()
	default:
		return AnswerSupport(m.Concrete(q.Facts))
	}
}

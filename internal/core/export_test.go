package core

import (
	"fmt"
	"sort"
)

// speculateEveryCall is the speculation pass as it ran before the round's
// node question was offered once per round, kept as the oracle for
// TestSpeculationSkipMatchesOracle: on every call it offers the node
// question and the mirror of the blocked concrete question to every member
// after the turn, then the successors. It returns how many questions it
// issued; run right after a Next, a sound skip leaves it nothing to issue.
func (s *Session) speculateEveryCall() int {
	before := s.nextID
	c := &s.eng.at
	qid := s.eng.instantiate(c.node)
	b := s.open[s.blocked].key
	for i := c.turn + 1; i < len(s.eng.ids); i++ {
		s.speculateOn(i, qid)
		if b.kind == KindConcrete && b.q != qid {
			s.speculateOn(i, b.q)
		}
	}
	s.speculateSuccessors()
	return int(s.nextID - before)
}

// fullView is Next's view as it was rendered before Next kept it from
// call to call, kept as the oracle for TestNextViewMatchesOracle: the
// blocked question, then every other slab entry in ID order, each read
// afresh. Run right after a Next, it reads the slab that Next compacted.
func (s *Session) fullView() []Question {
	out := make([]Question, len(s.open))
	s.read(&out[0], &s.open[s.blocked])
	n := 1
	for i := range s.open {
		if i != s.blocked {
			s.read(&out[n], &s.open[i])
			n++
		}
	}
	return out
}

// shadowCache is the CrowdCache as it was while it was the run's answer
// state: one entry per question key string, holding the member → support
// map, the sum in recording order and the asked flag. Attached as a run's
// Sink it records every answer the engine enters, and is the oracle the
// lazily built Result.Cache must equal entry for entry.
type shadowCache struct {
	entries map[string]*entry
	err     error // the first duplicate answer the sink was handed
}

func newShadowCache() *shadowCache { return &shadowCache{entries: make(map[string]*entry)} }

// AppendAnswer records the answer as the old Cache.record did. A question
// is asked once a counted answer or a specialization choice names it.
func (c *shadowCache) AppendAnswer(qKey, member string, support float64, kind QuestionKind, counted bool) error {
	q := c.entries[qKey]
	if q == nil {
		q = &entry{byMember: make(map[string]float64)}
		c.entries[qKey] = q
	}
	if _, dup := q.byMember[member]; dup {
		if c.err == nil {
			c.err = fmt.Errorf("answer of %s to question %x recorded twice", member, qKey)
		}
		return c.err
	}
	q.byMember[member] = support
	q.sum += support
	if counted || kind == KindSpecialization {
		q.asked = true
	}
	return nil
}

// diff reports the first difference between the view and the shadow:
// their keys, each entry's members and answers, sums and asked flags, and
// the answer counts.
func (c *shadowCache) diff(view *Cache) error {
	if c.err != nil {
		return c.err
	}
	view.load()
	n := 0
	for k, want := range c.entries {
		got := view.entries[k]
		if got == nil {
			return fmt.Errorf("question %x missing from the view", k)
		}
		if got.sum != want.sum || got.asked != want.asked || len(got.byMember) != len(want.byMember) {
			return fmt.Errorf("question %x: view sum %v asked %v members %d, shadow %v %v %d",
				k, got.sum, got.asked, len(got.byMember), want.sum, want.asked, len(want.byMember))
		}
		for m, s := range want.byMember {
			if g, ok := got.byMember[m]; !ok || g != s {
				return fmt.Errorf("question %x member %s: view %v (%v), shadow %v", k, m, g, ok, s)
			}
		}
		n += len(want.byMember)
	}
	if len(view.entries) != len(c.entries) || view.Len() != n {
		keys := make([]string, 0, len(view.entries))
		for k := range view.entries {
			if c.entries[k] == nil {
				keys = append(keys, fmt.Sprintf("%x", k))
			}
		}
		sort.Strings(keys)
		return fmt.Errorf("view holds %d questions and %d answers, shadow %d and %d; extra %v",
			len(view.entries), view.Len(), len(c.entries), n, keys)
	}
	return nil
}

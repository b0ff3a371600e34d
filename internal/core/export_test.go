package core

import "oassis/internal/fact"

// speculateEveryCall is the speculation pass as it ran before the round's
// node question was offered once per round, kept as the oracle for
// TestSpeculationSkipMatchesOracle: on every call it offers the node
// question and the mirror of the blocked concrete question to every member
// after the turn, then the successors. It returns how many questions it
// issued; run right after a Next, a sound skip leaves it nothing to issue.
func (s *Session) speculateEveryCall() int {
	before := s.nextID
	c := &s.eng.at
	fs, qKey := s.eng.instantiate(c.node)
	mirror := ""
	var mirrorFS fact.Set
	if s.blocked.key.kind == KindConcrete {
		mirror = s.blocked.key.key
		mirrorFS = s.blocked.q.Facts
	}
	for i := c.turn + 1; i < len(s.eng.ids); i++ {
		s.speculateOn(i, qKey, fs)
		if mirror != "" && mirror != qKey {
			s.speculateOn(i, mirror, mirrorFS)
		}
	}
	s.speculateSuccessors()
	return int(s.nextID - before)
}

package core

import (
	"slices"

	"oassis/internal/fact"
)

// questionTable is a run's CrowdCache: every question the engine asks is
// interned once, by content, under a dense question id, and its answers
// live in its slot of one slab, by member index. Interning keys by
// question, not by lattice node: distinct nodes whose instantiations are
// the same fact-set (a symmetric pattern whose variables take one value)
// share one question, so a member who answered one is never asked the
// other. Question-key strings exist only at the boundaries that need them
// (Sink, Prime, Result.Cache).
type questionTable struct {
	all    []question
	byHash map[uint64]uint32 // content hash -> question id, probing h+1, h+2, … past a collision; nil until the first question
}

// question is one interned question: its canonical fact-set and every
// member's first answer, with their sum accumulated in recording order (so
// means are reproducible bit for bit) and whether the run asked it — a
// counted answer or a specialization choice named it
// (Stats.UniqueQuestions).
type question struct {
	fs      fact.Set
	answers []memberAnswer // in recording order
	sum     float64
	asked   bool
}

// memberAnswer is member mi's support for a question.
type memberAnswer struct {
	mi  int
	sup float64
}

// lookup returns the id of the question fs (canonical), or, when there is
// none, false and the hash slot a new one would take.
func (t *questionTable) lookup(fs fact.Set) (id uint32, slot uint64, ok bool) {
	for h := fs.Hash(); ; h++ {
		id, ok := t.byHash[h]
		if !ok {
			return 0, h, false
		}
		if slices.Equal(t.all[id].fs, fs) {
			return id, h, true
		}
	}
}

// intern returns the id of the question fs (canonical), adding it on first
// sight.
func (t *questionTable) intern(fs fact.Set) uint32 {
	id, slot, ok := t.lookup(fs)
	if ok {
		return id
	}
	if t.byHash == nil {
		t.byHash = make(map[uint64]uint32)
	}
	id = uint32(len(t.all))
	t.all = append(t.all, question{fs: fs})
	t.byHash[slot] = id
	return id
}

// record stores member mi's answer unless they already answered, reporting
// whether it was new. A question's first answer sizes its list for a full
// sample of k answers.
func (q *question) record(mi int, sup float64, k int) bool {
	if _, dup := q.support(mi); dup {
		return false
	}
	if q.answers == nil {
		q.answers = make([]memberAnswer, 0, k)
	}
	q.answers = append(q.answers, memberAnswer{mi: mi, sup: sup})
	q.sum += sup
	return true
}

// support returns member mi's recorded answer.
func (q *question) support(mi int) (float64, bool) {
	for _, a := range q.answers {
		if a.mi == mi {
			return a.sup, true
		}
	}
	return 0, false
}

// mean is the plain average answer (0 with no answers).
func (q *question) mean() float64 {
	if len(q.answers) == 0 {
		return 0
	}
	return q.sum / float64(len(q.answers))
}

// view returns the table as a string-keyed Cache over the members ids,
// built on first use. The run must record nothing more once it is taken.
func (t *questionTable) view(ids []string) *Cache {
	all := t.all
	return &Cache{build: func() (map[string]*entry, int) {
		entries := make(map[string]*entry)
		n := 0
		for i := range all {
			q := &all[i]
			if len(q.answers) == 0 {
				continue
			}
			byMember := make(map[string]float64, len(q.answers))
			for _, a := range q.answers {
				byMember[ids[a.mi]] = a.sup
			}
			entries[q.fs.Key()] = &entry{byMember: byMember, sum: q.sum, asked: q.asked}
			n += len(q.answers)
		}
		return entries, n
	}}
}

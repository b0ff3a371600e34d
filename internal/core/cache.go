package core

// Cache is the CrowdCache of the paper's architecture (§6.1): it records
// every answer collected from the crowd, keyed by question fact-set and
// member, and is the run's only per-question answer state — the
// aggregation rule decides a question from its entry's count and sum.
// Cached answers are independent of the support threshold, so a query can
// be re-evaluated for a different threshold by priming a run with the
// cache (Config.Prime, §6.3).
type Cache struct {
	entries map[string]*entry // question key -> its answers
	n       int               // recorded answers

	// memberHint sizes each per-question member map at creation: in a run
	// every member eventually answers most questions, so allocating for the
	// crowd size up front avoids rehash churn on the answer hot path.
	memberHint int
}

// entry is one question's record: each member's first answer, their sum
// accumulated in recording order (so means are reproducible bit for bit),
// and whether the run asked the question — a counted answer or a
// specialization choice named it (Stats.UniqueQuestions).
type entry struct {
	byMember map[string]float64
	sum      float64
	asked    bool
}

// answers reports how many members answered the question (0 for the nil
// entry of a question nobody answered).
func (q *entry) answers() int {
	if q == nil {
		return 0
	}
	return len(q.byMember)
}

// support returns member's recorded answer to the question.
func (q *entry) support(member string) (float64, bool) {
	if q == nil {
		return 0, false
	}
	s, ok := q.byMember[member]
	return s, ok
}

// mean is the plain average answer (0 with no answers).
func (q *entry) mean() float64 {
	if q.answers() == 0 {
		return 0
	}
	return q.sum / float64(len(q.byMember))
}

// NewCache returns an empty cache.
func NewCache() *Cache { return NewCacheSized(0) }

// NewCacheSized returns an empty cache whose per-question member maps are
// preallocated for memberHint members (the crowd size of the run feeding it).
func NewCacheSized(memberHint int) *Cache {
	return &Cache{entries: make(map[string]*entry), memberHint: memberHint}
}

// Record stores an answer; re-recording the same (question, member) pair is
// ignored.
func (c *Cache) Record(qKey, member string, support float64) { c.record(qKey, member, support) }

// record stores an answer and returns the question's entry, reporting
// whether the answer was new.
func (c *Cache) record(qKey, member string, support float64) (*entry, bool) {
	q := c.entries[qKey]
	if q == nil {
		q = &entry{byMember: make(map[string]float64, c.memberHint)}
		c.entries[qKey] = q
	}
	if _, dup := q.byMember[member]; dup {
		return q, false
	}
	q.byMember[member] = support
	q.sum += support
	c.n++
	return q, true
}

// question returns the question's entry, nil when nobody answered it.
// Like Lookup it never writes, so a finished run's cache can prime
// concurrent runs.
func (c *Cache) question(qKey string) *entry { return c.entries[qKey] }

// Lookup returns the recorded answer of member for the question.
func (c *Cache) Lookup(qKey, member string) (float64, bool) {
	return c.entries[qKey].support(member)
}

// Len reports the number of recorded answers.
func (c *Cache) Len() int { return c.n }

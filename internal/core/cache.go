package core

import "sync"

// Cache is the CrowdCache of the paper's architecture (§6.1) as it crosses
// runs: every answer collected from the crowd, keyed by question fact-set
// key and member. Cached answers are independent of the support threshold,
// so a query can be re-evaluated for a different threshold by priming a
// run with the cache (Config.Prime, §6.3), and a store reprimes a
// restarted run from one (internal/store).
//
// Inside a run the answers live in the engine's question table, by
// question id and member index (questions.go); a Result's Cache is a
// string view of that table, built on first use. Readers may share a
// Cache across goroutines — the view is built once, under a sync.Once —
// but Record is a write and needs exclusive access.
type Cache struct {
	once    sync.Once
	build   func() (map[string]*entry, int) // renders a run's table; nil for NewCache
	entries map[string]*entry               // question key -> its answers
	n       int                             // recorded answers
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

// support returns member's recorded answer (none for the nil entry of a
// question nobody answered).
func (q *entry) support(member string) (float64, bool) {
	if q == nil {
		return 0, false
	}
	s, ok := q.byMember[member]
	return s, ok
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{entries: make(map[string]*entry)} }

// load renders a view's entries once; concurrent callers wait for it.
func (c *Cache) load() {
	c.once.Do(func() {
		if c.build != nil {
			c.entries, c.n = c.build()
			c.build = nil
		}
	})
}

// Record stores an answer; re-recording the same (question, member) pair is
// ignored.
func (c *Cache) Record(qKey, member string, support float64) {
	c.load()
	q := c.entries[qKey]
	if q == nil {
		q = &entry{byMember: make(map[string]float64)}
		c.entries[qKey] = q
	}
	if _, dup := q.byMember[member]; dup {
		return
	}
	q.byMember[member] = support
	q.sum += support
	c.n++
}

// Lookup returns the recorded answer of member for the question.
func (c *Cache) Lookup(qKey, member string) (float64, bool) {
	c.load()
	return c.entries[qKey].support(member)
}

// lookupKey is Lookup with the question key in bytes (fact.Set.AppendKey),
// which it reads without building a string.
func (c *Cache) lookupKey(qKey []byte, member string) (float64, bool) {
	c.load()
	return c.entries[string(qKey)].support(member)
}

// Len reports the number of recorded answers.
func (c *Cache) Len() int {
	c.load()
	return c.n
}

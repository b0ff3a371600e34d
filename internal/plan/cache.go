package plan

import (
	"sort"
	"sync"
	"time"

	"oassis/internal/obs"
)

// Cache is a content-addressed plan cache: plans are keyed on the query
// text and the domain fingerprint, so the same query over the same domain
// compiles exactly once and every later execution reuses the same *Plan
// pointer — the cache-hit path allocates nothing. A Cache is safe for
// concurrent use; the server shares one per domain across all sessions.
type Cache struct {
	mu sync.Mutex
	m  map[cacheKey]*Plan
}

type cacheKey struct {
	query, domain string
}

// NewCache returns an empty plan cache.
func NewCache() *Cache {
	return &Cache{m: make(map[cacheKey]*Plan)}
}

// GetOrCompile returns the cached plan for (queryText, domainFP), or runs
// compile and caches its result. The boolean reports a cache hit.
// Compilation happens under the cache lock, so concurrent sessions racing
// on a cold key compile once, not once each. Metrics (hit/miss counters
// and compile latency) are recorded on m; a nil m records nothing.
func (c *Cache) GetOrCompile(queryText, domainFP string, m *CacheMetrics,
	compile func() (*Plan, error)) (*Plan, bool, error) {

	k := cacheKey{queryText, domainFP}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.m[k]; ok {
		m.hit()
		return p, true, nil
	}
	start := time.Now()
	p, err := compile()
	if err != nil {
		return nil, false, err
	}
	m.miss(time.Since(start))
	c.m[k] = p
	return p, false, nil
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Plans returns the cached plans sorted by (query text, domain
// fingerprint), for introspection routes and reports.
func (c *Cache) Plans() []*Plan {
	c.mu.Lock()
	keys := make([]cacheKey, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].query != keys[j].query {
			return keys[i].query < keys[j].query
		}
		return keys[i].domain < keys[j].domain
	})
	out := make([]*Plan, len(keys))
	for i, k := range keys {
		out[i] = c.m[k]
	}
	c.mu.Unlock()
	return out
}

// CacheMetrics bundles the planner instruments: cache hits, misses and
// compile latency. Attach one per registry via NewCacheMetrics; all
// methods are nil-safe, so an unmetered cache costs nothing.
type CacheMetrics struct {
	hits    *obs.Counter
	misses  *obs.Counter
	compile *obs.Histogram
}

// NewCacheMetrics registers the planner instruments on r.
func NewCacheMetrics(r *obs.Registry) *CacheMetrics {
	return &CacheMetrics{
		hits: r.Counter("oassis_plan_cache_hits_total",
			"plan-cache lookups answered with an already-compiled plan"),
		misses: r.Counter("oassis_plan_cache_misses_total",
			"plan-cache lookups that compiled a new plan"),
		compile: r.Histogram("oassis_plan_compile_seconds",
			"seconds spent compiling a query into a plan (cache misses only)", nil),
	}
}

// Hits returns the hit-counter value (0 for a nil receiver).
func (m *CacheMetrics) Hits() uint64 {
	if m == nil {
		return 0
	}
	return m.hits.Value()
}

// Misses returns the miss-counter value (0 for a nil receiver).
func (m *CacheMetrics) Misses() uint64 {
	if m == nil {
		return 0
	}
	return m.misses.Value()
}

func (m *CacheMetrics) hit() {
	if m == nil {
		return
	}
	m.hits.Inc()
}

func (m *CacheMetrics) miss(d time.Duration) {
	if m == nil {
		return
	}
	m.misses.Inc()
	m.compile.Observe(d.Seconds())
}

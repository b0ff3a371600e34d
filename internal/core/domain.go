package core

import (
	"fmt"

	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/plan"
	"oassis/internal/vocab"
)

// Domain is the shared read-only context many concurrent sessions
// execute against: a frozen vocabulary, its ontology, the domain
// fingerprint (hashed once, at construction) and a per-domain plan
// cache. Sessions reference a Domain instead of owning vocabulary and
// ontology copies; everything reachable from it is immutable or
// internally synchronized, so no external locking is needed.
type Domain struct {
	Voc  *vocab.Vocabulary
	Onto *ontology.Ontology

	fp    string
	plans *plan.Cache
}

// NewDomain wraps a frozen vocabulary and its ontology as a shared
// domain. The vocabulary must be frozen — an unfrozen one could drift
// under running sessions and invalidate every cached plan.
func NewDomain(voc *vocab.Vocabulary, onto *ontology.Ontology) (*Domain, error) {
	if !voc.Frozen() {
		return nil, fmt.Errorf("core: domain requires a frozen vocabulary")
	}
	return &Domain{
		Voc:   voc,
		Onto:  onto,
		fp:    plan.DomainFingerprint(voc, onto),
		plans: plan.NewCache(),
	}, nil
}

// Fingerprint returns the content address of the domain
// (plan.DomainFingerprint, computed once at construction).
func (d *Domain) Fingerprint() string { return d.fp }

// Plans returns the domain's shared plan cache.
func (d *Domain) Plans() *plan.Cache { return d.plans }

// CompileVariant returns the compiled plan for q over this domain,
// consulting the plan cache. Both string arguments are unused: they named
// the stop rule and the question ordering when those were plan variants,
// and stay so the benchmark harness in bench/ builds unchanged. The
// boolean reports a cache hit; metrics m may be nil.
func (d *Domain) CompileVariant(q *oassisql.Query, _, _ string, m *plan.CacheMetrics) (*plan.Plan, bool, error) {
	return d.plans.GetOrCompile(q.String(), d.fp, m, func() (*plan.Plan, error) {
		return plan.Compile(d.Voc, d.Onto, q, d.fp)
	})
}

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

// CompileVariant returns the stop variant of the compiled plan for q
// over this domain, consulting the plan cache: the base plan compiles (or
// hits) as usual, then one derivation through the same cache resolves
// the variant. The empty stop name is the planner's default, so
// CompileVariant(q, "", "", m) is the as-compiled plan. The third
// argument is unused: it named the question ordering before the engine
// had only one, and stays so the benchmark harness in bench/ builds
// unchanged. The boolean reports a cache hit; metrics m may be nil.
func (d *Domain) CompileVariant(q *oassisql.Query, stop, _ string, m *plan.CacheMetrics) (*plan.Plan, bool, error) {
	pl, hit, err := d.plans.GetOrCompile(q.String(), d.fp, m, func() (*plan.Plan, error) {
		return plan.Compile(d.Voc, d.Onto, q, d.fp)
	})
	if err != nil {
		return nil, false, err
	}
	v, vhit, err := d.plans.GetOrDerive(pl, stop, m)
	if v == pl {
		vhit = hit // the defaults: the base lookup decides the hit
	}
	return v, vhit, err
}

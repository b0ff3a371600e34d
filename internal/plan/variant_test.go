package plan_test

import (
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/obs"
	"oassis/internal/plan"
)

// TestWithPolicyFingerprints: stop-policy variants are first-class plans
// — distinct fingerprints, shared frozen tables, no-op derivations
// returning the base pointer, and unknown names refused.
func TestWithPolicyFingerprints(t *testing.T) {
	v, o, q := captureDomain(t, 6)
	base, err := plan.Compile(v, o, q, plan.DomainFingerprint(v, o))
	if err != nil {
		t.Fatal(err)
	}
	sv, err := base.Variant(aggregate.StopSpecies)
	if err != nil {
		t.Fatal(err)
	}
	if sv.StopName != aggregate.StopSpecies {
		t.Errorf("variant StopName = %q", sv.StopName)
	}
	if sv.Fingerprint() == base.Fingerprint() {
		t.Error("stop variant shares the base fingerprint; caches and WALs would mix stopping rules")
	}
	if sv.Vocabulary() != base.Vocabulary() {
		t.Error("variant does not share the base vocabulary")
	}
	// Each stop policy fingerprints distinctly from the others.
	seen := map[string]string{}
	for _, name := range []string{aggregate.StopSpecies, aggregate.StopThreshold} {
		p, err := base.Variant(name)
		if err != nil {
			t.Fatal(err)
		}
		again, err := base.Variant(name)
		if err != nil || again.Fingerprint() != p.Fingerprint() {
			t.Errorf("%s fingerprint unstable", name)
		}
		for other, fp := range seen {
			if fp == p.Fingerprint() {
				t.Errorf("%s and %s share a fingerprint", name, other)
			}
		}
		seen[name] = p.Fingerprint()
	}
	// No-op derivations return the base pointer itself.
	if same, err := base.Variant(""); err != nil || same != base {
		t.Errorf("Variant(\"\") = %v, %v; want base", same, err)
	}
	if same, err := base.Variant(base.StopName); err != nil || same != base {
		t.Errorf("Variant(base) = %v, %v; want base", same, err)
	}
	if _, err := base.Variant("nope"); err == nil {
		t.Error("unknown stop policy accepted")
	}
}

// TestCachePolicyVariants: two plans differing only in stop policy never
// share a cache slot; a repeated derivation is a hit on the same pointer.
func TestCachePolicyVariants(t *testing.T) {
	v, o, q := captureDomain(t, 6)
	fp := plan.DomainFingerprint(v, o)
	c := plan.NewCache()
	m := plan.NewCacheMetrics(obs.NewRegistry())
	base, _, err := c.GetOrCompile(q.String(), fp, m, func() (*plan.Plan, error) {
		return plan.Compile(v, o, q, fp)
	})
	if err != nil {
		t.Fatal(err)
	}

	sv, hit, err := c.GetOrDerive(base, aggregate.StopSpecies, m)
	if err != nil || hit {
		t.Fatalf("first GetOrDerive: hit=%v err=%v", hit, err)
	}
	if sv == base || sv.Fingerprint() == base.Fingerprint() {
		t.Error("stop variant shares the base plan or fingerprint")
	}
	sv2, hit, err := c.GetOrDerive(base, aggregate.StopSpecies, m)
	if err != nil || !hit || sv2 != sv {
		t.Fatalf("second GetOrDerive: plan=%p hit=%v err=%v, want %p hit", sv2, hit, err, sv)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2 (base + one variant)", c.Len())
	}

	// The base's own name and the empty default are hits on base itself.
	if p, hit, err := c.GetOrDerive(base, "", m); err != nil || !hit || p != base {
		t.Errorf("GetOrDerive(\"\") = %v, %v, %v", p, hit, err)
	}
	if p, hit, err := c.GetOrDerive(base, base.StopName, m); err != nil || !hit || p != base {
		t.Errorf("GetOrDerive(default) = %v, %v, %v", p, hit, err)
	}

	// Unknown names never reach the cache.
	if _, _, err := c.GetOrDerive(base, "nope", m); err == nil || c.Len() != 2 {
		t.Errorf("unknown stop policy: err=%v, Len=%d", err, c.Len())
	}
}

// TestCacheOneEntryPerPlan: the cache files every plan under one key,
// however the plan is reached. Deriving back to the base's name returns
// the base pointer as a hit, deriving one variant from another returns
// the cached variant, and Len and Plans list each fingerprint once.
func TestCacheOneEntryPerPlan(t *testing.T) {
	v, o, q := captureDomain(t, 6)
	fp := plan.DomainFingerprint(v, o)
	c := plan.NewCache()
	base, _, err := c.GetOrCompile(q.String(), fp, nil, func() (*plan.Plan, error) {
		return plan.Compile(v, o, q, fp)
	})
	if err != nil {
		t.Fatal(err)
	}
	sv, _, err := c.GetOrDerive(base, aggregate.StopSpecies, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p, hit, err := c.GetOrDerive(sv, aggregate.StopThreshold, nil); err != nil || !hit || p != base {
		t.Errorf("threshold from species = %p, hit=%v, err=%v; want base %p as a hit", p, hit, err, base)
	}
	if p, hit, err := c.GetOrDerive(sv, aggregate.StopSpecies, nil); err != nil || !hit || p != sv {
		t.Errorf("species from species = %p, hit=%v, err=%v; want species %p as a hit", p, hit, err, sv)
	}
	if p, hit, err := c.GetOrDerive(base, aggregate.StopSpecies, nil); err != nil || !hit || p != sv {
		t.Errorf("species from threshold = %p, hit=%v, err=%v; want species %p as a hit", p, hit, err, sv)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2 (base, species)", c.Len())
	}
	seen := map[string]bool{}
	for _, p := range c.Plans() {
		if seen[p.Fingerprint()] {
			t.Errorf("Plans lists %s twice", p.Fingerprint())
		}
		seen[p.Fingerprint()] = true
	}
	if len(seen) != 2 {
		t.Errorf("Plans lists %d fingerprints, want 2", len(seen))
	}
}

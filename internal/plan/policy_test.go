package plan_test

import (
	"errors"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/obs"
	"oassis/internal/plan"
)

func TestOrderingByName(t *testing.T) {
	for _, name := range append(plan.OrderingNames(), "") {
		got, err := plan.OrderingByName(name)
		if err != nil {
			t.Fatalf("OrderingByName(%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = plan.PolicyPaperOrder
		}
		if got != want {
			t.Errorf("OrderingByName(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestErrUnknownPolicyGolden pins the exact validation-failure messages:
// one sentinel (errors.Is) at every layer, an actionable registry listing
// in the text. The removed orderings (chain-prune, largest-first) are
// unknown names like any other.
func TestErrUnknownPolicyGolden(t *testing.T) {
	v, o, q := captureDomain(t, 4)
	pl, err := plan.Compile(v, o, q, plan.DomainFingerprint(v, o))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"nope", "chain-prune", "largest-first"} {
		_, err := plan.OrderingByName(name)
		if !errors.Is(err, plan.ErrUnknownPolicy) {
			t.Fatalf("OrderingByName(%q) error %v does not wrap ErrUnknownPolicy", name, err)
		}
		want := `plan: unknown ordering policy "` + name + `" (want one of max-prune, paper-order)`
		if err.Error() != want {
			t.Errorf("OrderingByName message:\n got %q\nwant %q", err.Error(), want)
		}
		// Variant propagates the same sentinel.
		if _, err := pl.Variant("", name); !errors.Is(err, plan.ErrUnknownPolicy) {
			t.Errorf("Variant(%q) error %v does not wrap ErrUnknownPolicy", name, err)
		}
	}
}

func TestMaxPruneSelector(t *testing.T) {
	// With no answers anywhere, the prior is indifferent (0.5): the
	// balanced expected prune 0.5·down + 0.5·up decides.
	sel := &plan.MaxPrune{}
	cold := []plan.Candidate{
		{Key: "a", Size: 1, Down: 1, Up: 1},
		{Key: "b", Size: 2, Down: 4, Up: 3},
	}
	if got := sel.Select(cold, 0.2); got != 1 {
		t.Errorf("cold Select = %d, want 1 (largest balanced prune)", got)
	}

	// Adaptivity: strong significant evidence on one candidate pushes the
	// running prior up, so an unanswered down-heavy candidate now outranks
	// an unanswered up-heavy one of equal total fringe.
	sel = &plan.MaxPrune{}
	warm := []plan.Candidate{
		{Key: "a", Size: 1, Down: 0, Up: 0, Answers: 3, Mean: 0.9},
		{Key: "b", Size: 2, Down: 6, Up: 0},
		{Key: "c", Size: 2, Down: 0, Up: 6},
	}
	if got := sel.Select(warm, 0.2); got != 1 {
		t.Errorf("warm Select = %d, want 1 (high prior favors the down-set)", got)
	}
	// Mirror: insignificant evidence favors the up-heavy candidate.
	sel = &plan.MaxPrune{}
	low := []plan.Candidate{
		{Key: "a", Size: 1, Down: 0, Up: 0, Answers: 3, Mean: 0.0},
		{Key: "b", Size: 2, Down: 6, Up: 0},
		{Key: "c", Size: 2, Down: 0, Up: 6},
	}
	if got := sel.Select(low, 0.2); got != 2 {
		t.Errorf("low Select = %d, want 2 (low prior favors the up-set)", got)
	}

	// The prior persists across rounds: after the warm table, a table with
	// no answered candidates still selects under the learned prior.
	sel = &plan.MaxPrune{}
	sel.Select(warm, 0.2)
	later := []plan.Candidate{
		{Key: "b", Size: 2, Down: 6, Up: 0},
		{Key: "c", Size: 2, Down: 0, Up: 6},
	}
	if got := sel.Select(later, 0.2); got != 0 {
		t.Errorf("later Select = %d, want 0 (prior carried across rounds)", got)
	}
}

// TestWithPolicyFingerprints: satellite check that ordering variants are
// first-class plans — distinct fingerprints, shared frozen tables, and
// no-op derivations returning the base pointer.
func TestWithPolicyFingerprints(t *testing.T) {
	v, o, q := captureDomain(t, 6)
	base, err := plan.Compile(v, o, q, plan.DomainFingerprint(v, o))
	if err != nil {
		t.Fatal(err)
	}
	mp, err := base.Variant("", plan.PolicyMaxPrune)
	if err != nil {
		t.Fatal(err)
	}
	if mp.PolicyName != plan.PolicyMaxPrune {
		t.Errorf("variant PolicyName = %q", mp.PolicyName)
	}
	if mp.Fingerprint() == base.Fingerprint() {
		t.Error("ordering variant shares the base fingerprint; caches and WALs would mix orderings")
	}
	if mp.Vocabulary() != base.Vocabulary() {
		t.Error("variant does not share the base vocabulary")
	}
	// Each ordering fingerprints distinctly from the other.
	seen := map[string]string{base.PolicyName: base.Fingerprint()}
	for _, name := range plan.OrderingNames() {
		p, err := base.Variant("", name)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[name]; ok && prev != p.Fingerprint() {
			t.Errorf("%s fingerprint unstable", name)
		}
		for other, fp := range seen {
			if other != name && fp == p.Fingerprint() {
				t.Errorf("%s and %s share a fingerprint", name, other)
			}
		}
		seen[name] = p.Fingerprint()
	}
	// No-op derivations return the base pointer itself.
	if same, err := base.Variant("", ""); err != nil || same != base {
		t.Errorf("Variant(\"\", \"\") = %v, %v; want base", same, err)
	}
	if same, err := base.Variant("", base.PolicyName); err != nil || same != base {
		t.Errorf("Variant(base) = %v, %v; want base", same, err)
	}
}

// TestCachePolicyVariants: two plans differing only in ordering never
// share a cache slot, and the dimensions compose — the ordering variant
// of a stop variant is its own entry.
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

	mp, hit, err := c.GetOrDerive(base, "", plan.PolicyMaxPrune, m)
	if err != nil || hit {
		t.Fatalf("first GetOrDerive: hit=%v err=%v", hit, err)
	}
	if mp == base || mp.Fingerprint() == base.Fingerprint() {
		t.Error("policy variant shares the base plan or fingerprint")
	}
	mp2, hit, err := c.GetOrDerive(base, "", plan.PolicyMaxPrune, m)
	if err != nil || !hit || mp2 != mp {
		t.Fatalf("second GetOrDerive: plan=%p hit=%v err=%v, want %p hit", mp2, hit, err, mp)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2 (base + one variant)", c.Len())
	}

	// The base's own name and the empty default are hits on base itself.
	if p, hit, err := c.GetOrDerive(base, "", "", m); err != nil || !hit || p != base {
		t.Errorf("GetOrDerive(\"\") = %v, %v, %v", p, hit, err)
	}
	if p, hit, err := c.GetOrDerive(base, "", base.PolicyName, m); err != nil || !hit || p != base {
		t.Errorf("GetOrDerive(default) = %v, %v, %v", p, hit, err)
	}

	// Composition: the ordering variant of a stop variant occupies its own
	// slot, distinct from the ordering variant of the default-stop plan.
	sv, _, err := c.GetOrDerive(base, aggregate.StopSpecies, "", m)
	if err != nil {
		t.Fatal(err)
	}
	both, hit, err := c.GetOrDerive(sv, "", plan.PolicyMaxPrune, m)
	if err != nil || hit {
		t.Fatalf("stop+policy GetOrDerive: hit=%v err=%v", hit, err)
	}
	if both == mp || both.Fingerprint() == mp.Fingerprint() {
		t.Error("stop+policy variant collided with the default-stop policy variant")
	}
	if both.StopName != aggregate.StopSpecies || both.PolicyName != plan.PolicyMaxPrune {
		t.Errorf("composed variant = (%s, %s)", both.StopName, both.PolicyName)
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4 (base, policy, stop, stop+policy)", c.Len())
	}
}

// TestCacheOneEntryPerPlan: the cache files every plan under one key,
// however the plan is reached. Deriving back to the base's names returns
// the base pointer as a hit, deriving the default stop from a composed
// variant returns the cached single-dimension variant, and Len and Plans
// list each fingerprint once.
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
	mp, _, err := c.GetOrDerive(base, "", plan.PolicyMaxPrune, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p, hit, err := c.GetOrDerive(mp, "", plan.PolicyPaperOrder, nil); err != nil || !hit || p != base {
		t.Errorf("paper-order from max-prune = %p, hit=%v, err=%v; want base %p as a hit", p, hit, err, base)
	}
	both, _, err := c.GetOrDerive(mp, aggregate.StopSpecies, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p, hit, err := c.GetOrDerive(both, aggregate.StopThreshold, "", nil); err != nil || !hit || p != mp {
		t.Errorf("threshold from (species, max-prune) = %p, hit=%v, err=%v; want max-prune %p as a hit", p, hit, err, mp)
	}
	if p, hit, err := c.GetOrDerive(both, aggregate.StopThreshold, plan.PolicyPaperOrder, nil); err != nil || !hit || p != base {
		t.Errorf("defaults from (species, max-prune) = %p, hit=%v, err=%v; want base %p as a hit", p, hit, err, base)
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3 (base, max-prune, species+max-prune)", c.Len())
	}
	seen := map[string]bool{}
	for _, p := range c.Plans() {
		if seen[p.Fingerprint()] {
			t.Errorf("Plans lists %s twice", p.Fingerprint())
		}
		seen[p.Fingerprint()] = true
	}
	if len(seen) != 3 {
		t.Errorf("Plans lists %d fingerprints, want 3", len(seen))
	}
}

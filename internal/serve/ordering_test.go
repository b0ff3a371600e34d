package serve

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/plan"
)

// referenceMSPs drives the query on a bare core.Session under the given
// ordering and returns its sorted valid-MSP rendering — the yardstick the
// served tenants must reproduce.
func referenceMSPs(t *testing.T, s *ontology.Sample, q *oassisql.Query, policy string) []string {
	t.Helper()
	dom, err := core.NewDomain(s.Voc, s.Onto)
	if err != nil {
		t.Fatal(err)
	}
	pl, _, err := dom.CompileVariant(q, "", policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	u1, u2 := crowd.SampleDBs(s)
	dbs := map[string]*crowd.PersonalDB{"p00": u1, "p01": u2}
	sp := pl.NewSpace()
	ref := core.NewSession(core.Config{
		Space:    sp,
		Theta:    pl.Support,
		Ordering: pl.PolicyName,
		Agg:      aggregate.NewFixedSample(2),
	}, []string{"p00", "p01"})
	for qs := ref.Next(); len(qs) > 0; qs = ref.Next() {
		for _, rq := range qs {
			_ = ref.Submit(rq.ID, answerFor(dbs[rq.Member], rq.Kind, rq.Facts, rq.Choices))
		}
	}
	res := ref.Close()
	out := make([]string, 0, len(res.ValidMSPs))
	for _, m := range res.ValidMSPs {
		out = append(out, sp.Instantiate(m).Format(s.Voc))
	}
	sort.Strings(out)
	return out
}

// TestTenantOrderings is satellite 3's round trip: two tenants of the
// same registry run the same query under different ordering policies,
// concurrently. Each tenant's session must carry its own policy-variant
// plan (distinct fingerprints — the WAL and cache separation basis), and
// each must mine exactly what a bare session under that ordering mines.
func TestTenantOrderings(t *testing.T) {
	s := ontology.NewSample()
	q := oassisql.MustParse(testQuery)
	policies := map[string]string{
		"tenant-paper": plan.PolicyPaperOrder,
		"tenant-max":   plan.PolicyMaxPrune,
	}
	want := map[string][]string{}
	for name, policy := range policies {
		want[name] = referenceMSPs(t, s, oassisql.MustParse(testQuery), policy)
	}

	reg := NewRegistry(Config{})
	defer reg.Close()
	type opened struct {
		tn   *Tenant
		sess *Session
	}
	tenants := map[string]opened{}
	for name, policy := range policies {
		tn, err := reg.AddTenant(TenantConfig{
			Name: name, Voc: s.Voc, Onto: s.Onto,
			Members: 2, Shards: 4, AnswersPerQuestion: 2, Policy: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		for range []int{0, 1} {
			if _, err := tn.Join("member"); err != nil {
				t.Fatal(err)
			}
		}
		sess, err := tn.Open(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := sess.Plan().PolicyName; got != policy {
			t.Fatalf("tenant %s session compiled policy %q, want %q", name, got, policy)
		}
		tenants[name] = opened{tn, sess}
	}
	fpA := tenants["tenant-paper"].sess.Plan().Fingerprint()
	fpB := tenants["tenant-max"].sess.Plan().Fingerprint()
	if fpA == fpB {
		t.Fatal("different ordering policies produced the same plan fingerprint")
	}

	// Drive both tenants' members concurrently in one pool.
	u1, u2 := crowd.SampleDBs(s)
	dbs := map[string]*crowd.PersonalDB{"p00": u1, "p01": u2}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(tenants))
	for _, o := range tenants {
		for member, db := range dbs {
			wg.Add(1)
			go func(tn *Tenant, member string, db *crowd.PersonalDB) {
				defer wg.Done()
				errs <- driveMember(tn, member, db, nil, nil)
			}(o.tn, member, db)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for name, o := range tenants {
		res, done := o.sess.Result()
		if !done {
			t.Fatalf("tenant %s session not done", name)
		}
		got := formatMSPs(o.sess, res)
		if strings.Join(got, ";") != strings.Join(want[name], ";") {
			t.Errorf("tenant %s MSPs = %v, want %v", name, got, want[name])
		}
	}
}

// TestTenantPolicyValidation: an unknown ordering policy — the removed
// chain-prune and largest-first included — is refused at tenant boot,
// naming the tenant, wrapping the plan sentinel.
func TestTenantPolicyValidation(t *testing.T) {
	s := ontology.NewSample()
	reg := NewRegistry(Config{})
	defer reg.Close()
	for _, policy := range []string{"nope", "chain-prune", "largest-first"} {
		_, err := reg.AddTenant(TenantConfig{
			Name: "bad", Voc: s.Voc, Onto: s.Onto, Members: 2, Policy: policy,
		})
		if err == nil {
			t.Fatalf("unknown tenant policy %q accepted", policy)
		}
		if !errors.Is(err, plan.ErrUnknownPolicy) {
			t.Errorf("boot error %v does not wrap plan.ErrUnknownPolicy", err)
		}
		if !strings.Contains(err.Error(), `tenant "bad"`) {
			t.Errorf("boot error %q does not name the tenant", err)
		}
	}
}

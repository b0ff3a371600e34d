package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oassis/internal/plan"
	"oassis/internal/serve"
)

// TestFleetPolicyKey: the -tenants fleet.json "policy" key reaches the
// serving tier — the booted tenant's sessions compile the ordering
// variant, fingerprint-distinct from the default — and an unknown policy
// (the removed chain-prune and largest-first included) is refused at boot
// with the plan sentinel.
func TestFleetPolicyKey(t *testing.T) {
	dir := t.TempDir()
	qf := filepath.Join(dir, "q.oql")
	if err := os.WriteFile(qf, []byte(serverQuery), 0o644); err != nil {
		t.Fatal(err)
	}

	var specs []tenantSpec
	if err := json.Unmarshal([]byte(`[
		{"name": "plain", "members": 2, "queries": [`+jsonQuote(qf)+`]},
		{"name": "tuned", "members": 2, "policy": "max-prune", "queries": [`+jsonQuote(qf)+`]}
	]`), &specs); err != nil {
		t.Fatal(err)
	}
	if specs[1].Policy != plan.PolicyMaxPrune {
		t.Fatalf("fleet policy key parsed as %q", specs[1].Policy)
	}

	reg := serve.NewRegistry(serve.Config{})
	defer reg.Close()
	for _, spec := range specs {
		if err := bootTenant(reg, spec); err != nil {
			t.Fatal(err)
		}
	}
	plain, err := reg.Tenant("plain")
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := reg.Tenant("tuned")
	if err != nil {
		t.Fatal(err)
	}
	ps, ts := plain.Sessions(), tuned.Sessions()
	if len(ps) != 1 || len(ts) != 1 {
		t.Fatalf("sessions: plain %d, tuned %d", len(ps), len(ts))
	}
	if got := ts[0].Plan().PolicyName; got != plan.PolicyMaxPrune {
		t.Errorf("tuned session policy = %q", got)
	}
	if got := ps[0].Plan().PolicyName; got != plan.PolicyPaperOrder {
		t.Errorf("plain session policy = %q", got)
	}
	if ps[0].Plan().Fingerprint() == ts[0].Plan().Fingerprint() {
		t.Error("policy-tuned tenant shares the plain tenant's plan fingerprint")
	}

	for _, policy := range []string{"nope", "chain-prune", "largest-first"} {
		err = bootTenant(reg, tenantSpec{Name: "bad", Members: 2, Policy: policy})
		if err == nil {
			t.Fatalf("unknown fleet policy %q accepted at boot", policy)
		}
		if !errors.Is(err, plan.ErrUnknownPolicy) {
			t.Errorf("boot error %v does not wrap plan.ErrUnknownPolicy", err)
		}
		if !strings.Contains(err.Error(), `tenant "bad"`) {
			t.Errorf("boot error %q does not name the tenant", err)
		}
	}
}

// jsonQuote JSON-quotes a path for embedding in the fleet literal.
func jsonQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oassis/internal/serve"
)

// TestFleetUnknownKeys: parseFleet refuses a fleet file with a key
// tenantSpec does not declare — the retired "policy" key or a misspelt
// one — and names the key, while a valid two-tenant file still parses
// and boots with one session per tenant.
func TestFleetUnknownKeys(t *testing.T) {
	for _, key := range []string{"policy", "membrs"} {
		_, err := parseFleet([]byte(`[{"name": "acme", "` + key + `": "max-prune"}]`))
		if err == nil {
			t.Fatalf("fleet key %q accepted", key)
		}
		if !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("fleet key %q: error %q does not name the key", key, err)
		}
	}
	if _, err := parseFleet([]byte(`[{"name": "acme"}] [{"name": "two"}]`)); err == nil {
		t.Error("trailing data after the tenant list accepted")
	}

	dir := t.TempDir()
	qf := filepath.Join(dir, "q.oql")
	if err := os.WriteFile(qf, []byte(serverQuery), 0o644); err != nil {
		t.Fatal(err)
	}
	specs, err := parseFleet([]byte(`[
		{"name": "plain", "members": 2, "queries": [` + jsonQuote(qf) + `]},
		{"name": "tuned", "members": 2, "k": 2, "queries": [` + jsonQuote(qf) + `]}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Config{})
	defer reg.Close()
	for _, spec := range specs {
		if err := bootTenant(reg, spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"plain", "tuned"} {
		ten, err := reg.Tenant(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(ten.Sessions()); n != 1 {
			t.Errorf("tenant %s: %d sessions, want 1", name, n)
		}
	}
}

// jsonQuote JSON-quotes a path for embedding in the fleet literal.
func jsonQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

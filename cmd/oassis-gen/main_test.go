package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oassis"
)

// travelQuery mines the generated travel workload the way its synthetic
// plan does: activity classes ($y, with multiplicity) done at places ($x),
// each below its tree's root.
const travelQuery = `
SELECT FACT-SETS
WHERE
  $y subClassOf* travel_y_root .
  $x subClassOf* travel_x_root
SATISFYING
  $y+ doAt $x
WITH SUPPORT = 0.2`

// loadGenerated reads the generated ontology and crowd back the way
// cmd/oassis does: the ontology through oassis.LoadOntology, and every
// `member NAME` block of the histories file as a simulated member.
func loadGenerated(t *testing.T, dir string) (*oassis.DB, []oassis.Member) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "travel.ttl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db, err := oassis.LoadOntology(f)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := os.Open(filepath.Join(dir, "travel-crowd.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	var members []oassis.Member
	var name string
	var txns []string
	flush := func() {
		if name == "" {
			return
		}
		m, err := oassis.SimulatedMember(db, name, txns...)
		if err != nil {
			t.Fatalf("member %s: %v", name, err)
		}
		members = append(members, m)
		name, txns = "", nil
	}
	sc := bufio.NewScanner(cf)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "member "); ok {
			flush()
			name = rest
		} else if line != "" {
			txns = append(txns, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	flush()
	return db, members
}

// TestGenerateTravelRoundTrip writes the travel workload, loads it back
// twice, and compiles and mines a query over it: both loads must resolve
// to the same domain and plan fingerprints (the domain dump and the
// ontology's Turtle serialization are deterministic), and the crowd must
// mine at least one significant pattern from the written histories.
func TestGenerateTravelRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := run("travel", 6, dir, 0); err != nil {
		t.Fatal(err)
	}
	q, err := oassis.ParseQuery(travelQuery)
	if err != nil {
		t.Fatal(err)
	}
	var domainFP, planFP string
	for load := 0; load < 2; load++ {
		db, members := loadGenerated(t, dir)
		if len(members) != 6 {
			t.Fatalf("load %d: %d members, want 6", load, len(members))
		}
		p, err := oassis.Compile(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if load == 0 {
			domainFP, planFP = p.DomainFingerprint(), p.Fingerprint()
			res, err := oassis.ExecPlan(db, p, members, oassis.WithAnswersPerQuestion(2), oassis.WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.MSPs) == 0 {
				t.Fatal("no significant pattern mined from the generated crowd")
			}
			continue
		}
		if got := p.DomainFingerprint(); got != domainFP {
			t.Errorf("domain fingerprint moved between loads: %s, then %s", domainFP, got)
		}
		if got := p.Fingerprint(); got != planFP {
			t.Errorf("plan fingerprint moved between loads: %s, then %s", planFP, got)
		}
	}
}

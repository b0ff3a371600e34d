package main

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/serve"
	"oassis/internal/store"
)

// answerOne long-polls for the member's next question, answers it from
// the personal DB, and returns the question text ("" when the run is done
// or only a wait elapsed).
func answerOne(t *testing.T, base, member string, s *ontology.Sample, db *crowd.PersonalDB) (text, typ string) {
	t.Helper()
	var q questionJSON
	getJSON(t, base+"/api/question?member="+member, &q)
	switch q.Type {
	case "done", "wait":
		return "", q.Type
	case "concrete":
		fs, err := parseQuestionText(s, q.Text)
		if err != nil {
			t.Fatal(err)
		}
		level := int(crowd.FiveLevel(db.Support(fs)) / 0.25)
		resp, _ := postJSON(t, base+"/api/answer", map[string]interface{}{
			"member": member, "session": q.Session, "id": q.ID, "level": level,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("answer rejected: %d", resp.StatusCode)
		}
		return q.Text, q.Type
	default:
		t.Fatalf("unexpected question type %q", q.Type)
		return "", ""
	}
}

// newStoreServer stands up a single-tenant server whose default tenant is
// durable under dir (in-memory when dir is empty) and runs serverQuery.
// The registry is returned so the test can kill the server (Close) and
// restart it against the same directory.
func newStoreServer(t *testing.T, dir string) (*serve.Registry, *serve.Tenant, *httptest.Server) {
	t.Helper()
	s := ontology.NewSample()
	reg := serve.NewRegistry(serve.Config{})
	t.Cleanup(func() { _ = reg.Close() })
	tn, err := reg.AddTenant(serve.TenantConfig{
		Name: defaultTenant, Voc: s.Voc, Onto: s.Onto,
		Members: 2, AnswersPerQuestion: 1, StoreDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	// EnsureSession resumes a recovered session of the same plan instead
	// of forking a duplicate.
	if _, _, err := tn.EnsureSession(oassisql.MustParse(serverQuery)); err != nil {
		t.Fatal(err)
	}
	srv := newServer(reg, nil, 100*time.Millisecond)
	ts := httptest.NewServer(srv.routes(false))
	t.Cleanup(ts.Close)
	return reg, tn, ts
}

// TestServerKillAndRestartResumes kills a durable server mid-query and
// restarts it against the same directory: the member keeps their slot and
// leaderboard score, no already-answered question is re-asked, and the
// session completes with the same MSPs as an uninterrupted run.
func TestServerKillAndRestartResumes(t *testing.T) {
	s := ontology.NewSample()
	u1, _ := crowd.SampleDBs(s)
	finish := func(ts *httptest.Server, banned map[string]bool) []string {
		var texts []string
		deadline := time.Now().Add(30 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatal("session did not finish")
			}
			text, typ := answerOne(t, ts.URL, "p00", s, u1)
			if typ == "done" {
				return texts
			}
			if text != "" {
				if banned[text] {
					t.Fatalf("question %q re-asked after restart", text)
				}
				texts = append(texts, text)
			}
		}
	}

	// Reference: uninterrupted storeless run with the same single member.
	_, _, ts0 := newStoreServer(t, "")
	postJSON(t, ts0.URL+"/api/join", map[string]string{"name": "ann"})
	refTexts := finish(ts0, nil)
	var ref struct {
		MSPs []string `json:"msps"`
	}
	getJSON(t, ts0.URL+"/api/results", &ref)
	if len(refTexts) < 4 {
		t.Fatalf("reference session asked only %d questions", len(refTexts))
	}

	// Phase 1: answer a prefix, then kill the server.
	dir := t.TempDir()
	reg1, _, ts1 := newStoreServer(t, dir)
	resp, body := postJSON(t, ts1.URL+"/api/join", map[string]string{"name": "ann"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %v", body)
	}
	stop := len(refTexts) / 2
	answered := make(map[string]bool)
	for len(answered) < stop {
		text, typ := answerOne(t, ts1.URL, "p00", s, u1)
		if typ == "done" {
			t.Fatal("session finished before the crash point")
		}
		if text != "" {
			answered[text] = true
		}
	}
	// Long-poll once more: when the next question arrives, the engine has
	// durably recorded every answer above. Then kill without ceremony —
	// with that question in flight.
	var killed questionJSON
	getJSON(t, ts1.URL+"/api/question?member=p00", &killed)
	if killed.Type != "concrete" {
		t.Fatalf("question at the crash point is %q, want concrete", killed.Type)
	}
	ts1.Close()
	if err := reg1.Close(); err != nil {
		t.Fatal(err)
	}

	// Inspect the raw session store: the prefix answers are durable.
	sessDirs, err := filepath.Glob(filepath.Join(dir, "shard-*", "s*"))
	if err != nil || len(sessDirs) != 1 {
		t.Fatalf("session store dirs = %v (err %v), want exactly 1", sessDirs, err)
	}
	stRaw, rec, err := store.Open(sessDirs[0], store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Answers) != stop {
		t.Fatalf("recovered %d answers, want %d", len(rec.Answers), stop)
	}
	if err := stRaw.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: restart against the same directory.
	reg2, tn2, ts2 := newStoreServer(t, dir)

	// The roster survived: ann still owns p00, no re-join needed, and the
	// leaderboard still credits her prefix answers.
	if !tn2.MemberKnown("p00") {
		t.Fatal("member lost across restart")
	}
	if n := len(tn2.Sessions()); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	var rows []struct {
		Name    string `json:"name"`
		Answers int    `json:"answers"`
	}
	getJSON(t, ts2.URL+"/api/stats", &rows)
	if len(rows) != 1 || rows[0].Name != "ann" || rows[0].Answers != stop {
		t.Fatalf("leaderboard after restart = %+v, want ann with %d", rows, stop)
	}

	// Finish the query; no question answered before the kill may reappear,
	// and the in-flight question is re-issued first rather than lost.
	texts2 := finish(ts2, answered)
	if len(texts2) == 0 || texts2[0] != killed.Text {
		t.Fatalf("in-flight question %q not re-issued first after restart (got %v)",
			killed.Text, texts2)
	}
	var res struct {
		Done bool     `json:"done"`
		MSPs []string `json:"msps"`
	}
	getJSON(t, ts2.URL+"/api/results", &res)
	if !res.Done {
		t.Fatal("results not ready")
	}
	if len(res.MSPs) != len(ref.MSPs) {
		t.Fatalf("MSPs after restart = %v, want %v", res.MSPs, ref.MSPs)
	}
	for i := range res.MSPs {
		if res.MSPs[i] != ref.MSPs[i] {
			t.Fatalf("MSPs after restart = %v, want %v", res.MSPs, ref.MSPs)
		}
	}
	ts2.Close()
	if err := reg2.Close(); err != nil {
		t.Fatal(err)
	}

	// A second restart of a finished session recovers everything and
	// reports done immediately.
	_, tn3, ts3 := newStoreServer(t, dir)
	if got := len(tn3.Sessions()); got != 1 {
		t.Fatalf("finished store recovered %d sessions, want 1", got)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("replayed session did not finish")
		}
		var q3 questionJSON
		getJSON(t, ts3.URL+"/api/question?member=p00", &q3)
		if q3.Type == "done" {
			break
		}
		if q3.Type != "wait" {
			t.Fatalf("finished session asked a question: %+v", q3)
		}
	}
}

// TestServerStoreBadJournal refuses to recover a tenant whose session
// store journaled an unparseable query — recovery recompiles every
// session from its own journal, so a corrupt journal must fail loudly
// instead of silently dropping the session.
func TestServerStoreBadJournal(t *testing.T) {
	s := ontology.NewSample()
	dir := t.TempDir()
	st, _, err := store.Open(filepath.Join(dir, "shard-0", "s0001"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bind("THIS IS NOT OASSIS-QL", "sha256:unparseable"); err != nil {
		t.Fatal(err)
	}
	st.Close()

	reg := serve.NewRegistry(serve.Config{})
	defer reg.Close()
	_, err = reg.AddTenant(serve.TenantConfig{
		Name: "a", Voc: s.Voc, Onto: s.Onto, StoreDir: dir,
	})
	if err == nil {
		t.Fatal("corrupt journaled query accepted")
	}
	if !strings.Contains(err.Error(), "journaled query") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestServerStorePlanDrift refuses to replay a store whose journaled plan
// fingerprint no longer matches what the query compiles to — the same
// query text over a drifted domain must not silently replay answers into
// a different assignment space.
func TestServerStorePlanDrift(t *testing.T) {
	s := ontology.NewSample()
	q := oassisql.MustParse(serverQuery)
	dir := t.TempDir()
	st, _, err := store.Open(filepath.Join(dir, "shard-0", "s0001"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bind(q.String(), "sha256:recorded-under-another-domain"); err != nil {
		t.Fatal(err)
	}
	st.Close()

	reg := serve.NewRegistry(serve.Config{})
	defer reg.Close()
	_, err = reg.AddTenant(serve.TenantConfig{
		Name: "a", Voc: s.Voc, Onto: s.Onto, StoreDir: dir,
	})
	if err == nil {
		t.Fatal("drifted plan fingerprint accepted against a bound store")
	}
	if !strings.Contains(err.Error(), "domain drift") {
		t.Fatalf("unexpected error: %v", err)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/serve"
)

const serverQuery = `
SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity
SATISFYING
  $y doAt $x
WITH SUPPORT = 0.4
`

// newRegistryServer stands up an HTTP server over an empty registry;
// callers add tenants through the returned registry.
func newRegistryServer(t testing.TB, cfg serve.Config, poll time.Duration) (*serve.Registry, *server, *httptest.Server) {
	t.Helper()
	reg := serve.NewRegistry(cfg)
	t.Cleanup(func() { _ = reg.Close() })
	srv := newServer(reg, cfg.Metrics, poll)
	ts := httptest.NewServer(srv.routes(false))
	t.Cleanup(ts.Close)
	return reg, srv, ts
}

// newTestServer builds the single-tenant shape the legacy tests drive: a
// default tenant with one session of serverQuery.
func newTestServer(t *testing.T, slots, k int) (*server, *httptest.Server) {
	t.Helper()
	reg, srv, ts := newRegistryServer(t, serve.Config{}, 100*time.Millisecond)
	s := ontology.NewSample()
	tn, err := reg.AddTenant(serve.TenantConfig{
		Name: defaultTenant, Voc: s.Voc, Onto: s.Onto,
		Members: slots, AnswersPerQuestion: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Open(oassisql.MustParse(serverQuery)); err != nil {
		t.Fatal(err)
	}
	return srv, ts
}

func postJSON(t testing.TB, url string, body interface{}) (*http.Response, map[string]interface{}) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func getJSON(t testing.TB, url string, v interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
	return resp
}

// drive answers questions for one member over HTTP from a personal DB
// until the run completes; the first error (or nil on success) is sent on
// done. It deliberately omits the session field, exercising the legacy
// answer path.
func drive(base, member string, s *ontology.Sample, db *crowd.PersonalDB, done chan<- error) {
	call := func(url string, body map[string]interface{}) error {
		b, _ := json.Marshal(body)
		resp, err := http.Post(url, "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
		}
		return nil
	}
	for {
		resp, err := http.Get(base + "/api/question?member=" + member)
		if err != nil {
			done <- err
			return
		}
		var q questionJSON
		err = json.NewDecoder(resp.Body).Decode(&q)
		resp.Body.Close()
		if err != nil {
			done <- err
			return
		}
		switch q.Type {
		case "done":
			done <- nil
			return
		case "wait":
			continue
		case "concrete":
			fs, err := parseQuestionText(s, q.Text)
			if err != nil {
				done <- err
				return
			}
			level := int(crowd.FiveLevel(db.Support(fs)) / 0.25)
			if err := call(base+"/api/answer", map[string]interface{}{
				"member": member, "id": q.ID, "level": level,
			}); err != nil {
				done <- err
				return
			}
		default:
			done <- fmt.Errorf("served question type %q, want concrete", q.Type)
			return
		}
	}
}

// parseQuestionText recovers the asked fact-set from the NL question via
// the known templates ("How often do you do Y at X and also …?").
func parseQuestionText(s *ontology.Sample, text string) (fact.Set, error) {
	body := strings.TrimSuffix(strings.TrimPrefix(text, "How often do you "), "?")
	var fs fact.Set
	for _, part := range strings.Split(body, " and also ") {
		part = strings.TrimSpace(part)
		var triple string
		switch {
		case strings.HasPrefix(part, "do "):
			rest := strings.TrimPrefix(part, "do ")
			i := strings.Index(rest, " at ")
			triple = rest[:i] + " doAt " + rest[i+4:]
		case strings.HasPrefix(part, "eat "):
			rest := strings.TrimPrefix(part, "eat ")
			i := strings.Index(rest, " at ")
			triple = rest[:i] + " eatAt " + rest[i+4:]
		default:
			return nil, fmt.Errorf("unrecognized question phrase %q", part)
		}
		f, err := fact.ParseFact(s.Voc, triple)
		if err != nil {
			return nil, fmt.Errorf("cannot parse %q: %v", triple, err)
		}
		fs = append(fs, f)
	}
	return fs.Canon(), nil
}

func TestServerFullSession(t *testing.T) {
	_, ts := newTestServer(t, 4, 2)
	s := ontology.NewSample()
	u1, u2 := crowd.SampleDBs(s)

	// Join two members.
	for i, name := range []string{"ann", "bob"} {
		resp, body := postJSON(t, ts.URL+"/api/join", map[string]string{"name": name})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("join %d: %v", i, body)
		}
	}
	done := make(chan error, 2)
	go drive(ts.URL, "p00", s, u1, done)
	go drive(ts.URL, "p01", s, u2, done)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("driver failed: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("session did not finish")
		}
	}

	// Results must contain the paper's MSPs.
	var res struct {
		Done bool     `json:"done"`
		MSPs []string `json:"msps"`
	}
	getJSON(t, ts.URL+"/api/results", &res)
	if !res.Done {
		t.Fatal("results not ready after done")
	}
	// The web UI answers on the five-level scale, which discretizes u1's
	// 1/3 supports down to 0.25 ("rarely"): biking lands at mean 0.375 < θ
	// and the maximal significant activity at Central Park becomes Sport.
	joined := strings.Join(res.MSPs, ";")
	for _, want := range []string{"Sport doAt Central Park", "Feed a Monkey doAt Bronx Zoo"} {
		if !strings.Contains(joined, want) {
			t.Errorf("results missing %q: %v", want, res.MSPs)
		}
	}

	// Leaderboard lists both members with answer counts.
	var rows []struct {
		Name    string `json:"name"`
		Answers int    `json:"answers"`
		Star    string `json:"star"`
	}
	getJSON(t, ts.URL+"/api/stats", &rows)
	if len(rows) != 2 {
		t.Fatalf("leaderboard rows = %d", len(rows))
	}
	if rows[0].Answers < rows[1].Answers {
		t.Error("leaderboard not sorted")
	}
}

func TestServerJoinValidation(t *testing.T) {
	_, ts := newTestServer(t, 1, 1)
	if resp, _ := postJSON(t, ts.URL+"/api/join", map[string]string{"name": "  "}); resp.StatusCode != http.StatusBadRequest {
		t.Error("blank name accepted")
	}
	if resp, _ := postJSON(t, ts.URL+"/api/join", map[string]string{"name": "a"}); resp.StatusCode != http.StatusOK {
		t.Error("first join rejected")
	}
	if resp, _ := postJSON(t, ts.URL+"/api/join", map[string]string{"name": "b"}); resp.StatusCode != http.StatusConflict {
		t.Error("overfull crowd accepted")
	}
}

func TestServerQuestionValidation(t *testing.T) {
	_, ts := newTestServer(t, 2, 2)
	var q questionJSON
	resp := getJSON(t, ts.URL+"/api/question?member=ghost", &q)
	if resp.StatusCode != http.StatusNotFound {
		t.Error("unknown member accepted")
	}
	postJSON(t, ts.URL+"/api/join", map[string]string{"name": "ann"})
	// Long-poll returns a concrete question for the first member.
	getJSON(t, ts.URL+"/api/question?member=p00", &q)
	if q.Type != "concrete" || q.ID == 0 || len(q.Scale) != 5 {
		t.Fatalf("first question = %+v", q)
	}
	if q.Session == "" {
		t.Fatalf("question carries no session: %+v", q)
	}
	// Re-fetch resends the same pending question.
	var q2 questionJSON
	getJSON(t, ts.URL+"/api/question?member=p00", &q2)
	if q2.ID != q.ID || q2.Session != q.Session {
		t.Errorf("pending question not resent: %+v vs %+v", q2, q)
	}
	// Answer with a stale id is rejected.
	if resp, _ := postJSON(t, ts.URL+"/api/answer", map[string]interface{}{
		"member": "p00", "id": q.ID + 999, "level": 2,
	}); resp.StatusCode != http.StatusConflict {
		t.Error("stale answer accepted")
	}
	// Session-addressed answer with a stale id is rejected too.
	if resp, _ := postJSON(t, ts.URL+"/api/answer", map[string]interface{}{
		"member": "p00", "session": q.Session, "id": q.ID + 999, "level": 2,
	}); resp.StatusCode != http.StatusConflict {
		t.Error("stale session-addressed answer accepted")
	}
	// Proper session-addressed answer accepted.
	if resp, _ := postJSON(t, ts.URL+"/api/answer", map[string]interface{}{
		"member": "p00", "session": q.Session, "id": q.ID, "level": 2,
	}); resp.StatusCode != http.StatusOK {
		t.Error("valid answer rejected")
	}
}

func TestServerIndexAndStats(t *testing.T) {
	_, ts := newTestServer(t, 1, 1)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "question game") {
		t.Error("index page missing")
	}
	if resp, err := http.Get(ts.URL + "/nosuch"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Error("unknown path served")
		}
		resp.Body.Close()
	}
	var rows []interface{}
	getJSON(t, ts.URL+"/api/stats", &rows)
	if len(rows) != 0 {
		t.Error("leaderboard not empty at start")
	}
	var res map[string]interface{}
	getJSON(t, ts.URL+"/api/results", &res)
	if res["done"] != false {
		t.Error("results claimed done at start")
	}
}

func TestStarThresholds(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{{0, ""}, {4, ""}, {5, "bronze"}, {15, "silver"}, {30, "gold"}, {100, "gold"}}
	for _, c := range cases {
		if got := star(c.n); got != c.want {
			t.Errorf("star(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

// TestServerPlansRoute: GET /plans exposes the domain fingerprint, the
// per-session plan fingerprints, and the cached plan IRs.
func TestServerPlansRoute(t *testing.T) {
	srv, ts := newTestServer(t, 2, 1)
	tn, err := srv.reg.Tenant(defaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	sess := tn.Sessions()[0]
	resp, err := http.Get(ts.URL + "/plans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Tenant   string            `json:"tenant"`
		Domain   string            `json:"domain"`
		Session  string            `json:"session_plan"`
		Sessions map[string]string `json:"sessions"`
		Plans    []struct {
			Query     string `json:"query"`
			Policy    string `json:"policy"`
			Substrate string `json:"substrate"`
		} `json:"plans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Tenant != defaultTenant {
		t.Errorf("tenant = %q", out.Tenant)
	}
	if out.Domain != tn.Domain().Fingerprint() {
		t.Errorf("domain = %q, want %q", out.Domain, tn.Domain().Fingerprint())
	}
	if out.Session != sess.Plan().Fingerprint() {
		t.Errorf("session_plan = %q, want %q", out.Session, sess.Plan().Fingerprint())
	}
	if out.Sessions[sess.ID()] != sess.Plan().Fingerprint() {
		t.Errorf("sessions map = %v", out.Sessions)
	}
	if len(out.Plans) != 1 {
		t.Fatalf("cached plans = %d, want 1", len(out.Plans))
	}
	if out.Plans[0].Query != sess.Query().String() {
		t.Errorf("plan query = %q", out.Plans[0].Query)
	}
	if out.Plans[0].Policy == "" || out.Plans[0].Substrate == "" {
		t.Errorf("plan IR missing policy/substrate: %+v", out.Plans[0])
	}
}

// TestServerMultiTenantRoutes drives two tenants through their scoped
// routes: each serves its own roster and questions, /api/tenants lists
// both, and POST .../api/query opens a session at runtime.
func TestServerMultiTenantRoutes(t *testing.T) {
	reg, _, ts := newRegistryServer(t, serve.Config{}, 100*time.Millisecond)
	s := ontology.NewSample()
	for _, name := range []string{"acme", "globex"} {
		if _, err := reg.AddTenant(serve.TenantConfig{
			Name: name, Voc: s.Voc, Onto: s.Onto, Members: 2, AnswersPerQuestion: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	var tl struct {
		Tenants []string `json:"tenants"`
	}
	getJSON(t, ts.URL+"/api/tenants", &tl)
	if len(tl.Tenants) != 2 || tl.Tenants[0] != "acme" || tl.Tenants[1] != "globex" {
		t.Fatalf("tenants = %v", tl.Tenants)
	}

	// The tenant pages serve the UI; joins are scoped per tenant.
	resp, err := http.Get(ts.URL + "/t/acme/")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(page), "question game") {
		t.Fatalf("tenant index: %d", resp.StatusCode)
	}
	resp, body := postJSON(t, ts.URL+"/t/acme/api/join", map[string]string{"name": "ann"})
	if resp.StatusCode != http.StatusOK || body["member"] != "p00" || body["tenant"] != "acme" {
		t.Fatalf("acme join: %d %v", resp.StatusCode, body)
	}
	// ann exists only in acme; globex rejects her poll.
	var q questionJSON
	if r := getJSON(t, ts.URL+"/t/globex/api/question?member=p00", &q); r.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant member accepted: %d", r.StatusCode)
	}

	// Open a session over the wire and drive it to completion.
	resp, body = postJSON(t, ts.URL+"/t/acme/api/query", map[string]string{"query": serverQuery})
	if resp.StatusCode != http.StatusOK || body["session"] == "" {
		t.Fatalf("query open: %d %v", resp.StatusCode, body)
	}
	u1, _ := crowd.SampleDBs(s)
	done := make(chan error, 1)
	go drive(ts.URL+"/t/acme", "p00", s, u1, done)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("driver failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("tenant session did not finish")
	}
	var res struct {
		Done bool     `json:"done"`
		MSPs []string `json:"msps"`
	}
	getJSON(t, ts.URL+"/t/acme/api/results", &res)
	if !res.Done || len(res.MSPs) == 0 {
		t.Fatalf("acme results = %+v", res)
	}
	// globex is untouched: no sessions, empty leaderboard.
	var gres map[string]interface{}
	getJSON(t, ts.URL+"/t/globex/api/results", &gres)
	if gres["done"] != false {
		t.Fatalf("globex results = %v", gres)
	}
	if resp, body := postJSON(t, ts.URL+"/t/acme/api/query", map[string]string{"query": "NOT A QUERY"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query accepted: %d %v", resp.StatusCode, body)
	}
}

// errBody decodes the JSON error envelope every failing route returns.
func errBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var out struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	return out.Error
}

// TestServerGoldenErrorBodies pins the wire form of the serving tier's
// typed errors: 404 for the unknown-thing family and 429 + Retry-After
// when admission control sheds, each with its exact JSON message.
func TestServerGoldenErrorBodies(t *testing.T) {
	reg, _, ts := newRegistryServer(t, serve.Config{MaxInFlight: 1}, 30*time.Second)
	s := ontology.NewSample()
	tn, err := reg.AddTenant(serve.TenantConfig{
		Name: defaultTenant, Voc: s.Voc, Onto: s.Onto, Members: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/t/nope/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant status = %d", resp.StatusCode)
	}
	if got, want := errBody(t, resp), `serve: unknown tenant "nope"`; got != want {
		t.Errorf("unknown tenant body = %q, want %q", got, want)
	}

	resp, err = http.Get(ts.URL + "/api/results?session=s9999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session status = %d", resp.StatusCode)
	}
	if got, want := errBody(t, resp), `serve: unknown session "s9999" in tenant "default"`; got != want {
		t.Errorf("unknown session body = %q, want %q", got, want)
	}

	resp, err = http.Get(ts.URL + "/api/question?member=ghost")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown member status = %d", resp.StatusCode)
	}
	if got, want := errBody(t, resp), `serve: unknown member "ghost" in tenant "default"`; got != want {
		t.Errorf("unknown member body = %q, want %q", got, want)
	}

	// Saturate the in-flight budget (one parked poll against the serve
	// layer — the tenant has no sessions, so polls park) and watch the
	// HTTP layer shed with 429 + Retry-After.
	if _, err := tn.Join("ann"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		_, _, _ = tn.Poll(ctx, "p00", 30*time.Second)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for reg.InFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("poll never occupied the in-flight budget")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err = http.Get(ts.URL + "/api/question?member=p00")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q", got, "1")
	}
	if got, want := errBody(t, resp), "serve: overloaded: global in-flight budget (1) exhausted"; got != want {
		t.Errorf("overload body = %q, want %q", got, want)
	}
	cancel()
	<-parked
}

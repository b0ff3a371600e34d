package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/serve"
)

// newObsServer builds a test server with a metrics registry attached.
func newObsServer(t *testing.T, debug bool) (*httptest.Server, *server, *obs.Registry) {
	t.Helper()
	s := ontology.NewSample()
	met := obs.NewRegistry()
	reg := serve.NewRegistry(serve.Config{Metrics: met})
	t.Cleanup(func() { _ = reg.Close() })
	tn, err := reg.AddTenant(serve.TenantConfig{
		Name: defaultTenant, Voc: s.Voc, Onto: s.Onto,
		Members: 2, AnswersPerQuestion: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Open(oassisql.MustParse(serverQuery)); err != nil {
		t.Fatal(err)
	}
	srv := newServer(reg, met, 100*time.Millisecond)
	ts := httptest.NewServer(srv.routes(debug))
	t.Cleanup(ts.Close)
	return ts, srv, met
}

// TestDebugEndpoints drives the observability routes through the mux:
// /metrics and /debug/vars are always mounted, the pprof endpoints only
// behind -debug.
func TestDebugEndpoints(t *testing.T) {
	cases := []struct {
		name     string
		debug    bool
		path     string
		status   int
		contains string
	}{
		{"metrics", false, "/metrics", http.StatusOK, "# TYPE oassis_http_requests_total counter"},
		{"metrics with debug", true, "/metrics", http.StatusOK, "oassis_session_questions_inflight"},
		{"serving metrics", false, "/metrics", http.StatusOK, `oassis_serve_sessions_live{shard="0",tenant="default"}`},
		{"expvar", false, "/debug/vars", http.StatusOK, `"oassis"`},
		{"pprof gated off", false, "/debug/pprof/", http.StatusNotFound, ""},
		{"pprof index on", true, "/debug/pprof/", http.StatusOK, "Types of profiles available"},
		{"pprof cmdline gated off", false, "/debug/pprof/cmdline", http.StatusNotFound, ""},
		{"pprof symbol on", true, "/debug/pprof/symbol", http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, _, _ := newObsServer(t, tc.debug)
			resp, err := http.Get(ts.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("GET %s: status %d, want %d\n%s", tc.path, resp.StatusCode, tc.status, body)
			}
			if tc.contains != "" && !strings.Contains(string(body), tc.contains) {
				t.Fatalf("GET %s: body missing %q:\n%s", tc.path, tc.contains, body)
			}
		})
	}
}

// TestExpvarSnapshot checks /debug/vars serves valid JSON whose oassis key
// mirrors the registry snapshot.
func TestExpvarSnapshot(t *testing.T) {
	ts, _, reg := newObsServer(t, false)
	if _, err := http.Get(ts.URL + "/api/stats"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	var vars map[string]float64
	if err := json.Unmarshal(doc["oassis"], &vars); err != nil {
		t.Fatalf("oassis expvar is not a flat map: %v", err)
	}
	if want := reg.Snapshot()[`oassis_http_requests_total{route="stats"}`]; want == 0 || vars[`oassis_http_requests_total{route="stats"}`] == 0 {
		t.Fatalf("stats request not visible via expvar: registry=%g vars=%+v", want, vars)
	}
}

// TestMetricsLiveSession scrapes /metrics during a live session: with a
// question handed out but unanswered the in-flight gauge is nonzero, and
// after the answer the latency histogram has an observation. The scrape
// must be valid Prometheus text (checked by re-parsing it).
func TestMetricsLiveSession(t *testing.T) {
	s := ontology.NewSample()
	u1, _ := crowd.SampleDBs(s)
	ts, _, reg := newObsServer(t, false)

	resp, body := postJSON(t, ts.URL+"/api/join", map[string]string{"name": "alice"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d %v", resp.StatusCode, body)
	}
	member := body["member"].(string)

	// Long-poll the first question but leave it unanswered: it is now in
	// flight from the session's point of view.
	var q questionJSON
	getJSON(t, ts.URL+"/api/question?member="+member, &q)
	if q.Type != "concrete" {
		t.Fatalf("first question type %q", q.Type)
	}

	samples := scrape(t, ts.URL)
	byKey := map[string]float64{}
	for _, sm := range samples {
		byKey[sm.Key()] = sm.Value
	}
	if byKey["oassis_session_questions_inflight"] == 0 {
		t.Fatalf("in-flight gauge is zero with a question pending:\n%+v", byKey)
	}
	if byKey[`oassis_http_requests_total{route="question"}`] == 0 {
		t.Fatalf("question route counter is zero: %+v", byKey)
	}
	if byKey[`oassis_longpoll_total{outcome="question"}`] == 0 {
		t.Fatalf("longpoll outcome counter is zero: %+v", byKey)
	}
	// The serving tier saw the same dispatch: per-tenant poll counter and
	// latency histogram, plus the scrapeable p99 gauge.
	if byKey[`oassis_serve_polls_total{outcome="question",tenant="default"}`] == 0 {
		t.Fatalf("serve poll counter is zero: %+v", byKey)
	}
	if byKey[`oassis_serve_dispatch_seconds_count{tenant="default"}`] == 0 {
		t.Fatalf("serve dispatch histogram empty: %+v", byKey)
	}
	if byKey[`oassis_serve_sessions_opened_total{tenant="default"}`] != 1 {
		t.Fatalf("serve opened counter: %+v", byKey)
	}

	// Answer it; the latency histogram must record the issue-to-answer gap.
	if text, typ := answerOne(t, ts.URL, member, s, u1); typ != "concrete" || text == "" {
		t.Fatalf("answerOne: type %q text %q", typ, text)
	}
	snap := reg.Snapshot()
	if snap["oassis_session_answer_latency_seconds_count"] == 0 {
		t.Fatalf("latency histogram empty after an answer: %+v", snap)
	}
	if snap[`oassis_http_requests_total{route="answer"}`] == 0 {
		t.Fatalf("answer route counter is zero: %+v", snap)
	}
}

// waitInFlight spins until the registry reports n polls in flight.
func waitInFlight(t *testing.T, reg *serve.Registry, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.InFlight() != n {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight never reached %d (at %d)", n, reg.InFlight())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerShutdownOutcomeCounters exercises the two ways a parked
// long-poll ends without a question at shutdown time: the client goes
// away (disconnect) or the server drains (reported as done on the wire,
// shutdown on the serving tier) — and asserts both counters tick.
func TestServerShutdownOutcomeCounters(t *testing.T) {
	s := ontology.NewSample()
	met := obs.NewRegistry()
	reg := serve.NewRegistry(serve.Config{Metrics: met})
	t.Cleanup(func() { _ = reg.Close() })
	tn, err := reg.AddTenant(serve.TenantConfig{
		Name: defaultTenant, Voc: s.Voc, Onto: s.Onto, Members: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No sessions: every poll parks until woken.
	srv := newServer(reg, met, 30*time.Second)
	ts := httptest.NewServer(srv.routes(false))
	t.Cleanup(ts.Close)
	if _, err := tn.Join("ann"); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Join("bob"); err != nil {
		t.Fatal(err)
	}

	// Disconnect: park a poll, then hang up the client.
	ctx, cancel := context.WithCancel(context.Background())
	disconnected := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/question?member=p01", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		disconnected <- err
	}()
	waitInFlight(t, reg, 1)
	cancel()
	if err := <-disconnected; err == nil {
		t.Fatal("hung-up poll returned a response")
	}
	waitInFlight(t, reg, 0)

	// Drain: park a poll, then shut the serving tier down. The parked
	// waiter must wake promptly with a "done" reply, not ride out the
	// 30-second window.
	type pollResult struct {
		q   questionJSON
		err error
	}
	woke := make(chan pollResult, 1)
	go func() {
		var r pollResult
		resp, err := http.Get(ts.URL + "/api/question?member=p00")
		if err == nil {
			r.err = json.NewDecoder(resp.Body).Decode(&r.q)
			resp.Body.Close()
		} else {
			r.err = err
		}
		woke <- r
	}()
	waitInFlight(t, reg, 1)
	srv.drain()
	select {
	case r := <-woke:
		if r.err != nil {
			t.Fatalf("drained poll failed: %v", r.err)
		}
		if r.q.Type != "done" {
			t.Fatalf("drained poll returned %q, want done", r.q.Type)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked poll did not wake on drain")
	}

	snap := met.Snapshot()
	for _, key := range []string{
		`oassis_longpoll_total{outcome="disconnect"}`,
		`oassis_longpoll_total{outcome="done"}`,
		`oassis_serve_polls_total{outcome="disconnect",tenant="default"}`,
		`oassis_serve_polls_total{outcome="shutdown",tenant="default"}`,
	} {
		if snap[key] < 1 {
			t.Errorf("%s = %g, want >= 1", key, snap[key])
		}
	}
}

// scrape fetches /metrics and re-parses it with the package's own strict
// parser, failing the test on any formatting error.
func scrape(t *testing.T, base string) []obs.Sample {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("scrape unparseable: %v", err)
	}
	return samples
}

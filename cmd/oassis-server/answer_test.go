package main

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/serve"
)

// newAnswerTwin stands up the default tenant with one session of
// serverQuery and its whole roster joined, polling briefly so a member
// without a question gets "wait" quickly.
func newAnswerTwin(t testing.TB, members, k int) (*serve.Tenant, string) {
	t.Helper()
	reg, _, ts := newRegistryServer(t, serve.Config{}, 10*time.Millisecond)
	s := ontology.NewSample()
	tn, err := reg.AddTenant(serve.TenantConfig{
		Name: defaultTenant, Voc: s.Voc, Onto: s.Onto,
		Members: members, AnswersPerQuestion: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < members; i++ {
		if _, err := tn.Join(fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tn.Open(oassisql.MustParse(serverQuery)); err != nil {
		t.Fatal(err)
	}
	return tn, ts.URL
}

// postAnswer submits one answer through POST /api/answer, or through
// POST /api/panel as a one-item panel, and returns the status. The
// single route also carries an old client's specialization fields, which
// the server must ignore.
func postAnswer(t *testing.T, base string, panel bool, member, session string, id, level int) int {
	t.Helper()
	if panel {
		resp, body := postJSON(t, base+"/api/panel", map[string]interface{}{
			"member": member, "session": session,
			"answers": []map[string]int{{"id": id, "level": level}},
		})
		if resp.StatusCode == http.StatusOK && body["applied"] != 1.0 {
			t.Fatalf("one-item panel applied %v items", body["applied"])
		}
		return resp.StatusCode
	}
	resp, _ := postJSON(t, base+"/api/answer", map[string]interface{}{
		"member": member, "session": session, "id": id, "level": level,
		"choice": 0, "none": true, "skip": true,
	})
	return resp.StatusCode
}

// TestServerAnswerRoutesEquivalent drives one session through
// POST /api/answer and a twin through one-item POST /api/panel with the
// same answers, one member at a time: both twins serve the same questions
// and end with the same results and leaderboard, and stale IDs (409),
// unknown sessions and unknown members (404) get the same status on
// either route.
func TestServerAnswerRoutesEquivalent(t *testing.T) {
	s := ontology.NewSample()
	u1, u2 := crowd.SampleDBs(s)
	dbs := []*crowd.PersonalDB{u1, u2}
	roster := []string{"p00", "p01"}
	type twin struct {
		base  string
		panel bool
		log   []string
	}
	twins := []*twin{{panel: false}, {panel: true}}
	for _, tw := range twins {
		_, tw.base = newAnswerTwin(t, 2, 2)
	}

	for _, tw := range twins {
		var q questionJSON
		getJSON(t, tw.base+"/api/question?member=p00", &q)
		if q.Type != "concrete" {
			t.Fatalf("first question = %+v", q)
		}
		for _, c := range []struct {
			name            string
			member, session string
			id, want        int
		}{
			{"stale id", "p00", q.Session, q.ID + 999, http.StatusConflict},
			{"stale sessionless id", "p00", "", q.ID + 999, http.StatusConflict},
			{"unknown session", "p00", "s9999", q.ID, http.StatusNotFound},
			{"unknown member", "ghost", q.Session, q.ID, http.StatusNotFound},
		} {
			if got := postAnswer(t, tw.base, tw.panel, c.member, c.session, c.id, 2); got != c.want {
				t.Errorf("panel=%v %s: status %d, want %d", tw.panel, c.name, got, c.want)
			}
		}
	}

	for _, tw := range twins {
		finished := false
		for step := 0; step < 2000 && !finished; step++ {
			i := step % len(roster)
			var q questionJSON
			getJSON(t, tw.base+"/api/question?member="+roster[i], &q)
			switch q.Type {
			case "done":
				finished = true
			case "wait":
			case "concrete":
				fs, err := parseQuestionText(s, q.Text)
				if err != nil {
					t.Fatal(err)
				}
				level := int(crowd.FiveLevel(dbs[i].Support(fs)) / 0.25)
				if got := postAnswer(t, tw.base, tw.panel, roster[i], q.Session, q.ID, level); got != http.StatusOK {
					t.Fatalf("panel=%v: answer to %d: status %d", tw.panel, q.ID, got)
				}
				tw.log = append(tw.log, fmt.Sprintf("%s %s %d %s %d", roster[i], q.Session, q.ID, q.Text, level))
			default:
				t.Fatalf("served question type %q, want concrete", q.Type)
			}
		}
		if !finished {
			t.Fatalf("panel=%v: session did not finish", tw.panel)
		}
	}
	if !reflect.DeepEqual(twins[0].log, twins[1].log) {
		t.Errorf("the twins served different questions:\n%v\n%v", twins[0].log, twins[1].log)
	}

	var results, boards [2]interface{}
	for i, tw := range twins {
		getJSON(t, tw.base+"/api/results", &results[i])
		getJSON(t, tw.base+"/api/stats", &boards[i])
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("results differ: %v vs %v", results[0], results[1])
	}
	if !reflect.DeepEqual(boards[0], boards[1]) {
		t.Errorf("leaderboards differ: %v vs %v", boards[0], boards[1])
	}
	if res := results[0].(map[string]interface{}); res["done"] != true || len(twins[0].log) == 0 {
		t.Fatalf("results = %v after %d answers", res, len(twins[0].log))
	}
}

// BenchmarkServerAnswer is the HTTP layer's per-answer cost over
// loopback: one member's GET /api/question then POST /api/answer, JSON
// encoding and the long-poll path included, client side too. A finished
// session is retired and replaced outside the timer.
func BenchmarkServerAnswer(b *testing.B) {
	tn, base := newAnswerTwin(b, 1, 1)
	q0 := oassisql.MustParse(serverQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var q questionJSON
		getJSON(b, base+"/api/question?member=p00", &q)
		if q.Type != "concrete" {
			b.StopTimer()
			for _, sess := range tn.Sessions() {
				if err := tn.Retire(sess.ID()); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := tn.Open(q0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			continue
		}
		resp, _ := postJSON(b, base+"/api/answer", map[string]interface{}{
			"member": "p00", "session": q.Session, "id": q.ID, "level": 2,
		})
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("answer to %d: status %d", q.ID, resp.StatusCode)
		}
	}
}

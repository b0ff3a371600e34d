package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/serve"
)

// newPanelServer stands up the default tenant with panel speculation on,
// one open session of serverQuery, and both sample members joined.
func newPanelServer(t *testing.T, k int) (*httptest.Server, *ontology.Sample) {
	t.Helper()
	reg, _, ts := newRegistryServer(t, serve.Config{}, 100*time.Millisecond)
	s := ontology.NewSample()
	tn, err := reg.AddTenant(serve.TenantConfig{
		Name: defaultTenant, Voc: s.Voc, Onto: s.Onto,
		Members: 2, AnswersPerQuestion: k, PanelSpeculation: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"ann", "bob"} {
		if _, err := tn.Join(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tn.Open(oassisql.MustParse(serverQuery)); err != nil {
		t.Fatal(err)
	}
	return ts, s
}

// TestServerPanelGoldenWire pins the panel route's JSON wire format: the
// envelope (type/session/member/items/scale), the per-item shape
// (id/type/text/speculative/prior/confirm), and the prior sub-object
// (frequency/confidence/source). The engine is deterministic, so the
// first panel of the sample domain is bit-stable; a diff here is a wire
// format change clients will see.
func TestServerPanelGoldenWire(t *testing.T) {
	ts, _ := newPanelServer(t, 2)
	resp, err := http.Get(ts.URL + "/api/panel?member=p00&max=4")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("panel status = %d: %s", resp.StatusCode, raw)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, bytes.TrimSpace(raw), "", "  "); err != nil {
		t.Fatalf("panel body is not JSON: %v\n%s", err, raw)
	}
	const golden = `{
  "type": "panel",
  "session": "s0001",
  "member": "p00",
  "items": [
    {
      "id": 1,
      "type": "concrete",
      "text": "How often do you do Activity at Attraction?",
      "prior": {
        "frequency": 0.5,
        "confidence": "low",
        "source": "ontology"
      }
    },
    {
      "id": 3,
      "type": "concrete",
      "text": "How often do you do Activity at Outdoor?",
      "speculative": true,
      "prior": {
        "frequency": 0.5,
        "confidence": "low",
        "source": "ontology"
      }
    },
    {
      "id": 5,
      "type": "concrete",
      "text": "How often do you do Sport at Attraction?",
      "speculative": true,
      "prior": {
        "frequency": 0.5,
        "confidence": "low",
        "source": "ontology"
      }
    },
    {
      "id": 7,
      "type": "concrete",
      "text": "How often do you do Food at Attraction?",
      "speculative": true,
      "prior": {
        "frequency": 0.5,
        "confidence": "low",
        "source": "ontology"
      }
    }
  ],
  "scale": [
    "never",
    "rarely",
    "sometimes",
    "often",
    "very often"
  ]
}`
	if got := buf.String(); got != golden {
		t.Errorf("panel wire format drifted:\n--- got\n%s\n--- want\n%s", got, golden)
	}
}

// drivePanels answers whole panels for one member over HTTP until the
// run completes, reporting the first error (nil on success) on done.
func drivePanels(base, member string, s *ontology.Sample, db *crowd.PersonalDB, done chan<- error) {
	for {
		resp, err := http.Get(base + "/api/panel?member=" + member + "&max=8")
		if err != nil {
			done <- err
			return
		}
		var p panelJSON
		err = json.NewDecoder(resp.Body).Decode(&p)
		resp.Body.Close()
		if err != nil {
			done <- err
			return
		}
		switch p.Type {
		case "done":
			done <- nil
			return
		case "wait":
			continue
		case "panel":
		default:
			done <- fmt.Errorf("unexpected panel type %q", p.Type)
			return
		}
		answers := make([]map[string]interface{}, 0, len(p.Items))
		for _, it := range p.Items {
			if it.Type != "concrete" {
				done <- fmt.Errorf("served panel item type %q, want concrete", it.Type)
				return
			}
			fs, err := parseQuestionText(s, it.Text)
			if err != nil {
				done <- err
				return
			}
			level := int(crowd.FiveLevel(db.Support(fs)) / 0.25)
			answers = append(answers, map[string]interface{}{"id": it.ID, "level": level})
		}
		body, _ := json.Marshal(map[string]interface{}{
			"member": member, "session": p.Session, "answers": answers,
		})
		post, err := http.Post(base+"/api/panel", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- err
			return
		}
		post.Body.Close()
		if post.StatusCode != http.StatusOK {
			done <- fmt.Errorf("POST /api/panel: status %d", post.StatusCode)
			return
		}
	}
}

// TestServerPanelRoundTrip drives a whole session through the panel
// routes — batched GETs, batched POSTs — and checks the mined result
// matches the single-question route's on the same domain and query.
func TestServerPanelRoundTrip(t *testing.T) {
	ts, s := newPanelServer(t, 2)
	u1, u2 := crowd.SampleDBs(s)
	done := make(chan error, 2)
	go drivePanels(ts.URL, "p00", s, u1, done)
	go drivePanels(ts.URL, "p01", s, u2, done)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("panel driver failed: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("panel-driven session did not finish")
		}
	}
	var res struct {
		Done bool     `json:"done"`
		MSPs []string `json:"msps"`
	}
	getJSON(t, ts.URL+"/api/results", &res)
	if !res.Done || len(res.MSPs) == 0 {
		t.Fatalf("panel-driven results = %+v", res)
	}
}

// TestServerAnswerPanelItemSingly answers the second item of a served
// panel through the single-question route, with its session: any question
// the member holds takes an answer there, not only their first.
func TestServerAnswerPanelItemSingly(t *testing.T) {
	reg, _, ts := newRegistryServer(t, serve.Config{}, 100*time.Millisecond)
	s := ontology.NewSample()
	tn, err := reg.AddTenant(serve.TenantConfig{
		Name: defaultTenant, Voc: s.Voc, Onto: s.Onto,
		Members: 2, AnswersPerQuestion: 2, PanelSpeculation: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"ann", "bob"} {
		if _, err := tn.Join(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tn.Open(oassisql.MustParse(serverQuery)); err != nil {
		t.Fatal(err)
	}
	var p panelJSON
	getJSON(t, ts.URL+"/api/panel?member=p00&max=4", &p)
	if p.Type != "panel" || len(p.Items) < 2 {
		t.Fatalf("panel = %+v, want at least two items", p)
	}
	resp, body := postJSON(t, ts.URL+"/api/answer", map[string]interface{}{
		"member": "p00", "session": p.Session, "id": p.Items[1].ID, "level": 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer to panel item 2: status %d %v", resp.StatusCode, body)
	}
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/obs"
	"oassis/internal/serve"
)

// server is the HTTP layer of the crowdsourcing platform of §6.2, now
// multi-tenant: a serve.Registry hosts many named tenants (domain +
// roster + store dir), each running many concurrent query sessions, and
// this layer maps routes onto it. Tenant-scoped routes live under
// /t/{tenant}/...; the legacy single-tenant routes (/api/..., /plans)
// alias the "default" tenant so existing clients keep working. Visitors
// join a tenant's question game, answer questions on the paper's
// five-level scale, collect stars, and appear on the statistics page;
// query owners open sessions with POST .../api/query and poll for the
// mined answers.
type server struct {
	reg  *serve.Registry
	poll time.Duration
	obs  *serverObs // nil without a registry

	mu   sync.Mutex
	tpls map[string]*crowd.Templates // per-tenant NL templates
}

// defaultTenant is the tenant the legacy single-tenant routes serve.
const defaultTenant = "default"

// newServer builds the HTTP layer over a serving registry. metrics (may
// be nil) instruments the HTTP layer; the registry carries its own
// serving-tier instruments on the same obs registry.
func newServer(reg *serve.Registry, metrics *obs.Registry, poll time.Duration) *server {
	s := &server{
		reg:  reg,
		poll: poll,
		tpls: make(map[string]*crowd.Templates),
	}
	if metrics != nil {
		s.obs = newServerObs(metrics)
	}
	return s
}

// drain wakes every parked long-poller with a "done" reply; call before
// shutting the HTTP listener down so waiters don't ride out their polls.
func (s *server) drain() { s.reg.Drain() }

// shutdown stops every session engine and flushes and closes every
// store, after the HTTP listener has stopped.
func (s *server) shutdown() error { return s.reg.Close() }

// templates returns the tenant's NL question templates, built once.
func (s *server) templates(t *serve.Tenant) *crowd.Templates {
	s.mu.Lock()
	defer s.mu.Unlock()
	tpl, ok := s.tpls[t.Name()]
	if !ok {
		tpl = crowd.NewTemplates(t.Voc())
		s.tpls[t.Name()] = tpl
	}
	return tpl
}

// routes builds the server mux: tenant-scoped routes under /t/{tenant},
// legacy aliases on the default tenant, and the observability endpoints
// (pprof only with debug).
func (s *server) routes(debug bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", s.obs.instrument("index", s.handleIndex))
	mux.HandleFunc("GET /t/{tenant}", s.obs.instrument("index", s.handleIndex))
	mux.HandleFunc("GET /t/{tenant}/", s.obs.instrument("index", s.handleIndex))
	mux.HandleFunc("GET /api/tenants", s.obs.instrument("tenants", s.handleTenants))
	for _, p := range []string{"", "/t/{tenant}"} {
		mux.HandleFunc("POST "+p+"/api/join", s.obs.instrument("join", s.handleJoin))
		mux.HandleFunc("GET "+p+"/api/question", s.obs.instrument("question", s.handleQuestion))
		mux.HandleFunc("POST "+p+"/api/answer", s.obs.instrument("answer", s.handleAnswer))
		mux.HandleFunc("GET "+p+"/api/panel", s.obs.instrument("panel", s.handlePanel))
		mux.HandleFunc("POST "+p+"/api/panel", s.obs.instrument("panel_answer", s.handlePanelAnswer))
		mux.HandleFunc("POST "+p+"/api/query", s.obs.instrument("query", s.handleQuery))
		mux.HandleFunc("GET "+p+"/api/results", s.obs.instrument("results", s.handleResults))
		mux.HandleFunc("GET "+p+"/api/stats", s.obs.instrument("stats", s.handleStats))
		mux.HandleFunc("GET "+p+"/plans", s.obs.instrument("plans", s.handlePlans))
	}
	s.mountDebug(mux, debug)
	return mux
}

// tenant resolves the request's tenant: the {tenant} path value, or the
// default tenant on the legacy routes.
func (s *server) tenant(r *http.Request) (*serve.Tenant, error) {
	name := r.PathValue("tenant")
	if name == "" {
		name = defaultTenant
	}
	return s.reg.Tenant(name)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// serveError maps the serving tier's typed errors onto HTTP statuses:
// overload is 429 with a Retry-After hint, the unknown-thing family is
// 404, a stale answer is 409, and a closed registry is 503.
func (s *server) serveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.reg.RetryAfter().Seconds()))))
		httpError(w, http.StatusTooManyRequests, "%s", err)
	case errors.Is(err, serve.ErrUnknownTenant),
		errors.Is(err, serve.ErrUnknownSession),
		errors.Is(err, serve.ErrUnknownMember):
		httpError(w, http.StatusNotFound, "%s", err)
	case errors.Is(err, serve.ErrNoPending):
		httpError(w, http.StatusConflict, "%s", err)
	case errors.Is(err, serve.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "%s", err)
	default:
		httpError(w, http.StatusInternalServerError, "%s", err)
	}
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.PathValue("tenant") == "" && r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	if _, err := s.tenant(r); err != nil {
		s.serveError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

func (s *server) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"tenants": s.reg.Tenants()})
}

func (s *server) handleJoin(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r)
	if err != nil {
		s.serveError(w, err)
		return
	}
	var req struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || strings.TrimSpace(req.Name) == "" {
		httpError(w, http.StatusBadRequest, "a display name is required")
		return
	}
	id, err := t.Join(strings.TrimSpace(req.Name))
	if err != nil {
		if errors.Is(err, serve.ErrClosed) {
			s.serveError(w, err)
			return
		}
		httpError(w, http.StatusConflict, "%s", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"member": id, "tenant": t.Name()})
}

// questionJSON is the wire form of a question. Session addresses the
// hosting session within the tenant; clients echo it back in the answer.
type questionJSON struct {
	Type    string   `json:"type"` // concrete | wait | done
	Session string   `json:"session,omitempty"`
	ID      int      `json:"id,omitempty"`
	Text    string   `json:"text,omitempty"`
	Scale   []string `json:"scale,omitempty"`
}

func (s *server) handleQuestion(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r)
	if err != nil {
		s.serveError(w, err)
		return
	}
	member := r.URL.Query().Get("member")
	start := time.Now()
	q, out, err := t.Poll(r.Context(), member, s.poll)
	s.writePolled(w, r, start, out, err, func() interface{} { return s.renderQuestion(t, q) })
}

// writePolled writes a long poll's outcome: render's body when it handed
// out work, else {"type":"done"} or {"type":"wait"}. A poll whose client
// went away writes nothing.
func (s *server) writePolled(w http.ResponseWriter, r *http.Request, start time.Time, out serve.Outcome, err error, render func() interface{}) {
	if err != nil {
		if r.Context().Err() != nil {
			// The client went away; there is nobody to write to.
			s.obs.longpolled("disconnect", start)
			return
		}
		s.serveError(w, err)
		return
	}
	switch out {
	case serve.OutcomeQuestion:
		s.obs.longpolled("question", start)
		writeJSON(w, http.StatusOK, render())
	case serve.OutcomeDone, serve.OutcomeShutdown:
		// Shutdown deliberately reads as "done" on the wire: parked
		// waiters wake immediately and the client stops polling instead
		// of riding out the timeout against a dying server.
		s.obs.longpolled("done", start)
		writeJSON(w, http.StatusOK, questionJSON{Type: "done"})
	default:
		s.obs.longpolled("timeout", start)
		writeJSON(w, http.StatusOK, questionJSON{Type: "wait"})
	}
}

// answerScale is the five-level scale's labels, sent with every question.
func answerScale() []string {
	scale := make([]string, len(crowd.AnswerScale))
	for i, a := range crowd.AnswerScale {
		scale[i] = a.Label
	}
	return scale
}

// renderQuestion builds the wire form of a serving-tier question.
func (s *server) renderQuestion(t *serve.Tenant, q serve.Question) questionJSON {
	return questionJSON{
		Type:    "concrete",
		Session: q.Session,
		ID:      q.ID,
		Text:    s.templates(t).Concrete(q.Facts),
		Scale:   answerScale(),
	}
}

// priorJSON is the wire form of a prior-primed guess: the best-guess
// frequency and the confidence grade that decides how the client renders
// the item (high → one-tap confirmation, lower → open question with the
// guess pre-selected).
type priorJSON struct {
	Frequency  float64 `json:"frequency"`
	Confidence string  `json:"confidence"`
	Source     string  `json:"source,omitempty"`
}

// panelItemJSON is one question inside a wire panel.
type panelItemJSON struct {
	ID          int        `json:"id"`
	Type        string     `json:"type"` // concrete
	Text        string     `json:"text"`
	Speculative bool       `json:"speculative,omitempty"`
	Prior       *priorJSON `json:"prior,omitempty"`
	Confirm     bool       `json:"confirm,omitempty"`
}

// panelJSON is the wire form of a member's question panel: one screen,
// one round trip. The answer scale applies to every item.
type panelJSON struct {
	Type    string          `json:"type"` // panel | wait | done
	Session string          `json:"session,omitempty"`
	Member  string          `json:"member,omitempty"`
	Items   []panelItemJSON `json:"items,omitempty"`
	Scale   []string        `json:"scale,omitempty"`
}

// renderPanel builds the wire form of a served panel.
func (s *server) renderPanel(t *serve.Tenant, p serve.Panel) panelJSON {
	out := panelJSON{Type: "panel", Session: p.Session, Member: p.Member, Scale: answerScale()}
	for _, it := range p.Items {
		item := panelItemJSON{
			ID:          it.ID,
			Type:        "concrete",
			Text:        s.templates(t).Concrete(it.Facts),
			Speculative: it.Speculative,
		}
		if it.Prior.Confidence != crowd.ConfidenceNone {
			item.Prior = &priorJSON{
				Frequency:  it.Prior.Support,
				Confidence: it.Prior.Confidence.String(),
				Source:     it.Prior.Source,
			}
			item.Confirm = it.Confirm
		}
		out.Items = append(out.Items, item)
	}
	return out
}

// handlePanel is the batched long-poll route: one GET hands the member a
// panel of up to max open questions from one session, each primed with
// its prior, instead of one question per round trip.
func (s *server) handlePanel(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r)
	if err != nil {
		s.serveError(w, err)
		return
	}
	member := r.URL.Query().Get("member")
	max := 0
	if v := r.URL.Query().Get("max"); v != "" {
		if max, err = strconv.Atoi(v); err != nil || max < 0 {
			httpError(w, http.StatusBadRequest, "max must be a non-negative integer")
			return
		}
	}
	start := time.Now()
	p, out, err := t.PollPanel(r.Context(), member, max, s.poll)
	s.writePolled(w, r, start, out, err, func() interface{} { return s.renderPanel(t, p) })
}

// answerJSON is one wire answer: a question ID and its level on the
// five-level scale (0..4). A missing or out-of-range level reads as 0.
type answerJSON struct {
	ID    int  `json:"id"`
	Level *int `json:"level"`
}

// submit answers a member's items as one panel — the one answer path of
// both answer routes — and reports how many were applied. On a refusal it
// has written the serving tier's error and returns false.
func (s *server) submit(w http.ResponseWriter, t *serve.Tenant, member, session string, items []answerJSON) (int, bool) {
	answers := make([]serve.PanelAnswer, len(items))
	for i, it := range items {
		level := 0
		if it.Level != nil && *it.Level >= 0 && *it.Level <= 4 {
			level = *it.Level
		}
		answers[i] = serve.PanelAnswer{ID: it.ID, Answer: core.AnswerSupport(float64(level) * 0.25)}
	}
	n, err := t.AnswerPanel(session, member, answers)
	if err != nil {
		s.serveError(w, err)
		return 0, false
	}
	return n, true
}

// handlePanelAnswer submits a whole panel's answers in one POST. Items
// the session already consumed are skipped, mirroring SubmitPanel.
func (s *server) handlePanelAnswer(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r)
	if err != nil {
		s.serveError(w, err)
		return
	}
	var req struct {
		Member  string       `json:"member"`
		Session string       `json:"session"`
		Answers []answerJSON `json:"answers"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Answers) == 0 {
		httpError(w, http.StatusBadRequest, "a non-empty answers list is required")
		return
	}
	if n, ok := s.submit(w, t, req.Member, req.Session, req.Answers); ok {
		writeJSON(w, http.StatusOK, map[string]interface{}{"ok": true, "applied": n})
	}
}

// handleAnswer submits one answer: a one-item panel.
func (s *server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r)
	if err != nil {
		s.serveError(w, err)
		return
	}
	var req struct {
		Member  string `json:"member"`
		Session string `json:"session"`
		answerJSON
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad answer payload")
		return
	}
	if _, ok := s.submit(w, t, req.Member, req.Session, []answerJSON{req.answerJSON}); ok {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}
}

// handleQuery opens a new session for a query posted to the tenant —
// how new query workloads are admitted without redeploying.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r)
	if err != nil {
		s.serveError(w, err)
		return
	}
	var req struct {
		Query string `json:"query"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || strings.TrimSpace(req.Query) == "" {
		httpError(w, http.StatusBadRequest, "a query is required")
		return
	}
	q, err := oassisql.Parse(req.Query)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%s", err)
		return
	}
	sess, err := t.Open(q)
	if err != nil {
		s.serveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"session": sess.ID(),
		"plan":    sess.Plan().Fingerprint(),
		"shard":   sess.Shard(),
	})
}

// sessionResult renders one session's result block.
func (s *server) sessionResult(t *serve.Tenant, sess *serve.Session) map[string]interface{} {
	res, done := sess.Result()
	out := map[string]interface{}{
		"session": sess.ID(),
		"done":    done,
	}
	if !done {
		return out
	}
	var msps []string
	for _, m := range res.ValidMSPs {
		msps = append(msps, sess.Space().Instantiate(m).Format(t.Voc()))
	}
	out["msps"] = msps
	out["questions"] = res.Stats.TotalQuestions
	out["unique"] = res.Stats.UniqueQuestions
	return out
}

func (s *server) handleResults(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r)
	if err != nil {
		s.serveError(w, err)
		return
	}
	if id := r.URL.Query().Get("session"); id != "" {
		sess, err := t.Session(id)
		if err != nil {
			s.serveError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.sessionResult(t, sess))
		return
	}
	sessions := t.Sessions()
	switch len(sessions) {
	case 0:
		writeJSON(w, http.StatusOK, map[string]interface{}{"done": false})
	case 1:
		// Single-session tenants keep the legacy shape.
		writeJSON(w, http.StatusOK, s.sessionResult(t, sessions[0]))
	default:
		all := true
		blocks := make([]map[string]interface{}, 0, len(sessions))
		for _, sess := range sessions {
			b := s.sessionResult(t, sess)
			if b["done"] == false {
				all = false
			}
			blocks = append(blocks, b)
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{"done": all, "sessions": blocks})
	}
}

// star awards the §6.2 virtual rewards.
func star(answers int) string {
	switch {
	case answers >= 30:
		return "gold"
	case answers >= 15:
		return "silver"
	case answers >= 5:
		return "bronze"
	default:
		return ""
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r)
	if err != nil {
		s.serveError(w, err)
		return
	}
	type row struct {
		Name    string `json:"name"`
		Answers int    `json:"answers"`
		Star    string `json:"star,omitempty"`
	}
	rows := make([]row, 0, 20)
	for _, b := range t.Leaderboard() {
		rows = append(rows, row{Name: b.Name, Answers: b.Answers, Star: star(b.Answers)})
	}
	if len(rows) > 20 { // the paper's statistics page commends the top 20
		rows = rows[:20]
	}
	writeJSON(w, http.StatusOK, rows)
}

// handlePlans is the planner introspection route: the tenant's domain
// fingerprint, every plan in its per-domain cache (serialized as the
// reviewable IR), and the plan each live session executes.
func (s *server) handlePlans(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r)
	if err != nil {
		s.serveError(w, err)
		return
	}
	sessions := t.Sessions()
	sessPlans := make(map[string]string, len(sessions))
	for _, sess := range sessions {
		sessPlans[sess.ID()] = sess.Plan().Fingerprint()
	}
	out := struct {
		Tenant   string            `json:"tenant"`
		Domain   string            `json:"domain"`
		Session  string            `json:"session_plan,omitempty"`
		Sessions map[string]string `json:"sessions"`
		Plans    []json.RawMessage `json:"plans"`
	}{
		Tenant:   t.Name(),
		Domain:   t.Domain().Fingerprint(),
		Sessions: sessPlans,
	}
	// Single-session tenants keep the legacy session_plan field.
	if len(sessions) == 1 {
		out.Session = sessions[0].Plan().Fingerprint()
	}
	cached := t.Domain().Plans().Plans()
	out.Plans = make([]json.RawMessage, 0, len(cached))
	for _, p := range cached {
		js, err := p.MarshalJSON()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%s", err)
			return
		}
		out.Plans = append(out.Plans, js)
	}
	writeJSON(w, http.StatusOK, out)
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"oassis/internal/aggregate"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/oassisql"
	"oassis/internal/obs"
	"oassis/internal/ontology"
)

const testQuery = `
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

// testQueryB is the same shape at a different threshold: a distinct plan
// fingerprint, so two-tenant tests exercise distinct plans.
const testQueryB = `
SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity
SATISFYING
  $y doAt $x
WITH SUPPORT = 0.5
`

// answerFor is the deterministic answering strategy shared by the serve
// drivers and the single-session reference path: support read from the
// member's personal DB, discretized to the five-level scale like the UI.
func answerFor(db *crowd.PersonalDB, kind core.QuestionKind, facts fact.Set, choices []fact.Set) core.Answer {
	if kind != core.KindSpecialization {
		return core.AnswerSupport(crowd.FiveLevel(db.Support(facts)))
	}
	for i, c := range choices {
		if s := db.Support(c); s >= 0.4 {
			return core.AnswerChoice(i, crowd.FiveLevel(s))
		}
	}
	return core.AnswerNoneOfThese()
}

// driveMember polls and answers for one member until the tenant reports
// done or shutdown. Answered concrete fact keys are recorded into seen
// (nil to skip recording).
func driveMember(t *Tenant, member string, db *crowd.PersonalDB, seen map[string]bool, mu *sync.Mutex) error {
	ctx := context.Background()
	for {
		q, out, err := t.Poll(ctx, member, 2*time.Second)
		if err != nil {
			return err
		}
		switch out {
		case OutcomeDone, OutcomeShutdown:
			return nil
		case OutcomeTimeout:
			continue
		}
		if seen != nil && q.Kind == core.KindConcrete {
			mu.Lock()
			seen[member+"|"+q.Facts.Key()] = true
			mu.Unlock()
		}
		if err := t.Answer(q.Session, q.Member, q.ID, answerFor(db, q.Kind, q.Facts, q.Choices)); err != nil {
			return err
		}
	}
}

// formatMSPs renders a result's valid MSPs sorted, for bit-identical
// comparison across serving paths.
func formatMSPs(s *Session, res *core.Result) []string {
	voc := s.t.voc
	out := make([]string, 0, len(res.ValidMSPs))
	for _, m := range res.ValidMSPs {
		out = append(out, s.Space().Instantiate(m).Format(voc))
	}
	sort.Strings(out)
	return out
}

// TestServeEquivalence proves the tentpole's correctness claim: a session
// hosted by the serving tier (sharded, long-polled, multi-member) mines a
// result bit-identical to the same query driven directly on core.Session.
func TestServeEquivalence(t *testing.T) {
	s := ontology.NewSample()
	u1, u2 := crowd.SampleDBs(s)
	dbs := map[string]*crowd.PersonalDB{"p00": u1, "p01": u2}
	q := oassisql.MustParse(testQuery)

	// Reference: the single-session path.
	dom, err := core.NewDomain(s.Voc, s.Onto)
	if err != nil {
		t.Fatal(err)
	}
	pl, _, err := dom.CompileVariant(q, "", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := pl.NewSpace()
	ref := core.NewSession(core.Config{
		Space: sp,
		Theta: pl.Support,
		Agg:   aggregate.NewFixedSample(2),
	}, []string{"p00", "p01"})
	for qs := ref.Next(); len(qs) > 0; qs = ref.Next() {
		for _, rq := range qs {
			_ = ref.Submit(rq.ID, answerFor(dbs[rq.Member], rq.Kind, rq.Facts, rq.Choices))
		}
	}
	refRes := ref.Close()
	var refMSPs []string
	for _, m := range refRes.ValidMSPs {
		refMSPs = append(refMSPs, sp.Instantiate(m).Format(s.Voc))
	}
	sort.Strings(refMSPs)

	// Served: same query through Registry/Tenant/shard/Poll/Answer with
	// concurrent member drivers.
	reg := NewRegistry(Config{})
	defer reg.Close()
	tn, err := reg.AddTenant(TenantConfig{
		Name: "equiv", Voc: s.Voc, Onto: s.Onto,
		Members: 2, Shards: 4, AnswersPerQuestion: 2,
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
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for member, db := range dbs {
		wg.Add(1)
		go func(member string, db *crowd.PersonalDB) {
			defer wg.Done()
			errs <- driveMember(tn, member, db, nil, nil)
		}(member, db)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	res, done := sess.Result()
	if !done {
		t.Fatal("served session not done after drivers finished")
	}
	got := formatMSPs(sess, res)
	if strings.Join(got, ";") != strings.Join(refMSPs, ";") {
		t.Errorf("served MSPs = %v, want %v", got, refMSPs)
	}
	if res.Stats.TotalQuestions == 0 {
		t.Error("served session recorded no questions")
	}
}

// TestServePlanSharing: sessions of the same query share the compiled
// plan (pointer-identical, via the per-domain cache) and land on the
// same shard; a different threshold compiles a different plan.
func TestServePlanSharing(t *testing.T) {
	s := ontology.NewSample()
	reg := NewRegistry(Config{})
	defer reg.Close()
	tn, err := reg.AddTenant(TenantConfig{Name: "a", Voc: s.Voc, Onto: s.Onto, Members: 2, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := tn.Open(oassisql.MustParse(testQuery))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := tn.Open(oassisql.MustParse(testQuery))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Plan() != s2.Plan() {
		t.Error("same query compiled to distinct plan instances")
	}
	if s1.Shard() != s2.Shard() {
		t.Errorf("same plan routed to shards %d and %d", s1.Shard(), s2.Shard())
	}
	s3, err := tn.Open(oassisql.MustParse(testQueryB))
	if err != nil {
		t.Fatal(err)
	}
	if s3.Plan().Fingerprint() == s1.Plan().Fingerprint() {
		t.Error("different thresholds produced the same fingerprint")
	}
	// EnsureSession reuses instead of forking.
	s4, existed, err := tn.EnsureSession(oassisql.MustParse(testQuery))
	if err != nil || !existed {
		t.Fatalf("EnsureSession existed=%v err=%v", existed, err)
	}
	if s4 != s1 && s4 != s2 {
		t.Error("EnsureSession opened a fresh session despite a live match")
	}
}

// TestServeDrainWakesWaiters is the shutdown satellite at the serve
// layer: a parked long-poller wakes with OutcomeShutdown the moment the
// registry drains, instead of riding out its timeout.
func TestServeDrainWakesWaiters(t *testing.T) {
	s := ontology.NewSample()
	reg := NewRegistry(Config{})
	defer reg.Close()
	tn, err := reg.AddTenant(TenantConfig{Name: "a", Voc: s.Voc, Onto: s.Onto, Members: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Join("ann"); err != nil {
		t.Fatal(err)
	}
	type pollRes struct {
		out Outcome
		err error
	}
	got := make(chan pollRes, 1)
	go func() {
		// No sessions exist, so this parks for the full 30s unless
		// Drain wakes it.
		_, out, err := tn.Poll(context.Background(), "p00", 30*time.Second)
		got <- pollRes{out, err}
	}()
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	reg.Drain()
	select {
	case r := <-got:
		if r.err != nil || r.out != OutcomeShutdown {
			t.Fatalf("poll after drain: out=%v err=%v", r.out, r.err)
		}
		if waited := time.Since(start); waited > 2*time.Second {
			t.Fatalf("waiter rode out %v instead of waking on drain", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked waiter never woke on drain")
	}
	// Polls after drain return shutdown immediately.
	_, out, err := tn.Poll(context.Background(), "p00", time.Minute)
	if err != nil || out != OutcomeShutdown {
		t.Fatalf("post-drain poll: out=%v err=%v", out, err)
	}
}

// TestServeAdmissionControl covers both shed paths — the global
// in-flight budget and the per-shard waiter bound — and their typed
// error plus metrics.
func TestServeAdmissionControl(t *testing.T) {
	s := ontology.NewSample()
	met := obs.NewRegistry()
	reg := NewRegistry(Config{MaxInFlight: 1, MaxWaitersPerShard: 8, Metrics: met})
	defer reg.Close()
	tn, err := reg.AddTenant(TenantConfig{Name: "a", Voc: s.Voc, Onto: s.Onto, Members: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"ann", "bob"} {
		if _, err := tn.Join(n); err != nil {
			t.Fatal(err)
		}
	}
	release := make(chan struct{})
	go func() {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { <-release; cancel() }()
		_, _, _ = tn.Poll(ctx, "p00", 30*time.Second)
	}()
	// Wait until the first poll occupies the only budget slot.
	deadline := time.Now().Add(2 * time.Second)
	for reg.InFlight() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first poll never acquired the budget")
		}
		time.Sleep(time.Millisecond)
	}
	_, _, err = tn.Poll(context.Background(), "p01", time.Second)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated poll error = %v, want ErrOverloaded", err)
	}
	const wantGlobal = "serve: overloaded: global in-flight budget (1) exhausted"
	if err.Error() != wantGlobal {
		t.Errorf("global shed message = %q, want %q", err.Error(), wantGlobal)
	}
	close(release)

	// Per-shard waiter bound: with budget restored but one waiter slot,
	// a second parked member sheds with the shard-scoped message.
	met2 := obs.NewRegistry()
	reg2 := NewRegistry(Config{MaxWaitersPerShard: 1, Metrics: met2})
	defer reg2.Close()
	tn2, err := reg2.AddTenant(TenantConfig{Name: "b", Voc: s.Voc, Onto: s.Onto, Members: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"ann", "bob"} {
		if _, err := tn2.Join(n); err != nil {
			t.Fatal(err)
		}
	}
	parked := make(chan struct{})
	go func() {
		close(parked)
		_, _, _ = tn2.Poll(context.Background(), "p00", 3*time.Second)
	}()
	<-parked
	time.Sleep(100 * time.Millisecond) // let the first poll park
	_, _, err = tn2.Poll(context.Background(), "p01", time.Second)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("bounded-waiter poll error = %v, want ErrOverloaded", err)
	}
	const wantShard = "serve: overloaded: shard 0 waiter queue (1) full"
	if err.Error() != wantShard {
		t.Errorf("shard shed message = %q, want %q", err.Error(), wantShard)
	}
	var buf strings.Builder
	if err := met2.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `oassis_serve_sheds_total{reason="shard",shard="0",tenant="b"} 1`) {
		t.Errorf("shed not counted:\n%s", buf.String())
	}
}

// TestServeGoldenErrors pins the typed-error messages the HTTP layer
// serializes into 404/429/409 bodies.
func TestServeGoldenErrors(t *testing.T) {
	s := ontology.NewSample()
	reg := NewRegistry(Config{})
	defer reg.Close()
	tn, err := reg.AddTenant(TenantConfig{Name: "a", Voc: s.Voc, Onto: s.Onto, Members: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Join("ann"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		err  error
		is   error
		want string
	}{
		{"unknown tenant", func() error { _, err := reg.Tenant("nope"); return err }(),
			ErrUnknownTenant, `serve: unknown tenant "nope"`},
		{"unknown session", func() error { _, err := tn.Session("s9999"); return err }(),
			ErrUnknownSession, `serve: unknown session "s9999" in tenant "a"`},
		{"unknown member", func() error { return tn.Answer("", "ghost", 1, core.AnswerDecline()) }(),
			ErrUnknownMember, `serve: unknown member "ghost" in tenant "a"`},
		{"no pending", func() error { return tn.Answer("", "p00", 42, core.AnswerDecline()) }(),
			ErrNoPending, `serve: no pending question 42 for member "p00" in tenant "a"`},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.is) {
			t.Errorf("%s: not wrapped in its sentinel: %v", c.name, c.err)
		}
		if c.err.Error() != c.want {
			t.Errorf("%s message = %q, want %q", c.name, c.err.Error(), c.want)
		}
	}
}

// TestServeTenantIsolation is the per-tenant store satellite: two
// durable tenants stop mid-query and restart concurrently; each recovers
// exactly its own sessions and no answered question is re-asked — in its
// own tenant or across the boundary.
func TestServeTenantIsolation(t *testing.T) {
	s := ontology.NewSample()
	u1, _ := crowd.SampleDBs(s)
	dirA, dirB := t.TempDir(), t.TempDir()
	queries := map[string]string{"a": testQuery, "b": testQueryB}
	dirs := map[string]string{"a": dirA, "b": dirB}

	// Phase 1: answer a handful of questions per tenant, then stop.
	answered := map[string]map[string]bool{"a": {}, "b": {}}
	reg := NewRegistry(Config{})
	for name, qtext := range queries {
		tn, err := reg.AddTenant(TenantConfig{
			Name: name, Voc: s.Voc, Onto: s.Onto,
			Members: 1, Shards: 2, StoreDir: dirs[name],
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Join("ann"); err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Open(oassisql.MustParse(qtext)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			q, out, err := tn.Poll(context.Background(), "p00", time.Second)
			if err != nil || out != OutcomeQuestion {
				t.Fatalf("tenant %s seed poll %d: out=%v err=%v", name, i, out, err)
			}
			if q.Kind == core.KindConcrete {
				answered[name]["p00|"+q.Facts.Key()] = true
			}
			if err := tn.Answer(q.Session, q.Member, q.ID, answerFor(u1, q.Kind, q.Facts, q.Choices)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: restart both tenants concurrently on a fresh registry.
	reg2 := NewRegistry(Config{})
	defer reg2.Close()
	var wg sync.WaitGroup
	tenants := make(map[string]*Tenant, 2)
	var mu sync.Mutex
	errs := make(chan error, 2)
	for name := range queries {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			tn, err := reg2.AddTenant(TenantConfig{
				Name: name, Voc: s.Voc, Onto: s.Onto,
				Members: 1, Shards: 2, StoreDir: dirs[name],
			})
			if err != nil {
				errs <- fmt.Errorf("tenant %s: %w", name, err)
				return
			}
			mu.Lock()
			tenants[name] = tn
			mu.Unlock()
			errs <- nil
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for name, qtext := range queries {
		tn := tenants[name]
		sessions := tn.Sessions()
		if len(sessions) != 1 {
			t.Fatalf("tenant %s recovered %d sessions, want 1", name, len(sessions))
		}
		// Isolation: the recovered session is this tenant's query, not
		// the neighbor's.
		if got, want := sessions[0].Query().String(), oassisql.MustParse(qtext).String(); got != want {
			t.Fatalf("tenant %s recovered query %q, want %q", name, got, want)
		}
		if !tn.MemberKnown("p00") {
			t.Fatalf("tenant %s roster not recovered", name)
		}
		if rows := tn.Leaderboard(); len(rows) == 0 || rows[0].Answers == 0 {
			t.Fatalf("tenant %s leaderboard not recovered: %v", name, rows)
		}
	}
	// Phase 3: drive both to completion; no answered question repeats.
	reasked := map[string]map[string]bool{"a": {}, "b": {}}
	var driveWG sync.WaitGroup
	driveErrs := make(chan error, 2)
	for name := range queries {
		driveWG.Add(1)
		go func(name string) {
			defer driveWG.Done()
			var seenMu sync.Mutex
			driveErrs <- driveMember(tenants[name], "p00", u1, reasked[name], &seenMu)
		}(name)
	}
	driveWG.Wait()
	close(driveErrs)
	for err := range driveErrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for name := range queries {
		for key := range reasked[name] {
			if answered[name][key] {
				t.Errorf("tenant %s re-asked answered question %s", name, key)
			}
			other := "a"
			if name == "a" {
				other = "b"
			}
			_ = other // cross-tenant: a question answered in one tenant
			// must not satisfy (or suppress) the other's session — the
			// other tenant asks its own full set, checked implicitly by
			// both runs completing on disjoint stores.
		}
		res, done := tenants[name].Sessions()[0].Result()
		if !done || res == nil {
			t.Errorf("tenant %s did not finish after restart", name)
		}
	}
}

// TestServeRegistryRace hammers one registry from 32 goroutines doing
// join/poll/answer/open/retire concurrently; run under -race via the
// race matrix.
func TestServeRegistryRace(t *testing.T) {
	s := ontology.NewSample()
	u1, u2 := crowd.SampleDBs(s)
	reg := NewRegistry(Config{MaxInFlight: 64})
	defer reg.Close()
	tn, err := reg.AddTenant(TenantConfig{Name: "race", Voc: s.Voc, Onto: s.Onto, Members: 32, Shards: 4, AnswersPerQuestion: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Open(oassisql.MustParse(testQuery)); err != nil {
		t.Fatal(err)
	}
	stop := time.Now().Add(500 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			member, err := tn.Join(fmt.Sprintf("g%d", g))
			if err != nil {
				t.Error(err)
				return
			}
			db := u1
			if g%2 == 1 {
				db = u2
			}
			for i := 0; time.Now().Before(stop); i++ {
				switch {
				case g == 0 && i%5 == 4:
					// One goroutine churns sessions: open a second
					// session and retire it while others poll.
					if sess, err := tn.Open(oassisql.MustParse(testQueryB)); err == nil {
						_ = tn.Retire(sess.ID())
					}
				default:
					q, out, err := tn.Poll(context.Background(), member, 20*time.Millisecond)
					if err != nil || out != OutcomeQuestion {
						continue
					}
					_ = tn.Answer(q.Session, q.Member, q.ID, answerFor(db, q.Kind, q.Facts, q.Choices))
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServeMetricsExposition: the serving instruments land on /metrics
// with per-tenant/per-shard labels and parse back strictly.
func TestServeMetricsExposition(t *testing.T) {
	s := ontology.NewSample()
	u1, _ := crowd.SampleDBs(s)
	met := obs.NewRegistry()
	reg := NewRegistry(Config{Metrics: met})
	defer reg.Close()
	tn, err := reg.AddTenant(TenantConfig{Name: "m", Voc: s.Voc, Onto: s.Onto, Members: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Join("ann"); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Open(oassisql.MustParse(testQuery)); err != nil {
		t.Fatal(err)
	}
	q, out, err := tn.Poll(context.Background(), "p00", time.Second)
	if err != nil || out != OutcomeQuestion {
		t.Fatalf("poll: out=%v err=%v", out, err)
	}
	if err := tn.Answer(q.Session, q.Member, q.ID, answerFor(u1, q.Kind, q.Facts, q.Choices)); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := met.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples, err := obs.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	mustContain := []string{
		`oassis_serve_polls_total{outcome="question",tenant="m"} 1`,
		`oassis_serve_dispatch_p99_microseconds{tenant="m"}`,
		`oassis_serve_sessions_opened_total{tenant="m"} 1`,
		`oassis_serve_sessions_live{`,
		`oassis_serve_waiters{`,
		`oassis_serve_dispatch_seconds_count{tenant="m"} 1`,
	}
	for _, want := range mustContain {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

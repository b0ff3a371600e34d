package serve

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
)

// newOpenTenant hosts a one-shard tenant with every roster slot joined and
// the given number of sessions of testQuery open.
func newOpenTenant(tb testing.TB, tc TenantConfig, sessions int) (*Tenant, []*Session) {
	tb.Helper()
	s := ontology.NewSample()
	reg := NewRegistry(Config{})
	tb.Cleanup(func() { reg.Close() })
	tc.Voc, tc.Onto, tc.Shards = s.Voc, s.Onto, 1
	tn, err := reg.AddTenant(tc)
	if err != nil {
		tb.Fatal(err)
	}
	for range tn.Roster() {
		if _, err := tn.Join("member"); err != nil {
			tb.Fatal(err)
		}
	}
	var out []*Session
	for i := 0; i < sessions; i++ {
		sess, err := tn.Open(oassisql.MustParse(testQuery))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, sess)
	}
	return tn, out
}

// openIDs returns the IDs the session's engine has open for member.
func openIDs(sess *Session, member string) []int {
	sess.sh.mu.Lock()
	defer sess.sh.mu.Unlock()
	var ids []int
	for _, q := range sess.inner.AppendOpen(nil, member) {
		ids = append(ids, int(q.ID))
	}
	return ids
}

// TestServeNoRetiredHandout drives a two-member tenant with successor
// speculation, one answer per question: p01 holds a panel while p00
// answers single questions, which moves the rounds on and retires p01's
// speculative items. Every ID handed out must be open in the engine at
// hand-out time; an item retired while held must still be accepted once,
// and credited.
func TestServeNoRetiredHandout(t *testing.T) {
	tn, sessions := newOpenTenant(t, TenantConfig{Name: "retire", Members: 2, PanelSpeculation: 4}, 1)
	sess := sessions[0]
	u1, u2 := crowd.SampleDBs(ontology.NewSample())
	ctx := context.Background()
	credits := func(member string) int {
		for _, r := range tn.Leaderboard() {
			if r.Member == member {
				return r.Answers
			}
		}
		return 0
	}
	lateAccepted := 0
	for step := 0; step < 200 && !sess.Done(); step++ {
		p, out, err := tn.PollPanel(ctx, "p01", 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range p.Items {
			if !slices.Contains(openIDs(sess, "p01"), it.ID) {
				t.Fatalf("step %d: panel item %d handed out but not open", step, it.ID)
			}
		}
		for i := 0; i < 2; i++ {
			q, qout, err := tn.Poll(ctx, "p00", 0)
			if err != nil {
				t.Fatal(err)
			}
			if qout != OutcomeQuestion {
				break
			}
			if !slices.Contains(openIDs(sess, "p00"), q.ID) {
				t.Fatalf("step %d: question %d handed out but not open", step, q.ID)
			}
			if err := tn.Answer(q.Session, "p00", q.ID, answerFor(u1, q.Kind, q.Facts, q.Choices)); err != nil {
				t.Fatal(err)
			}
		}
		if out != OutcomeQuestion || sess.Done() {
			continue
		}
		open := openIDs(sess, "p01")
		answers := make([]PanelAnswer, 0, len(p.Items))
		for _, it := range p.Items {
			if !slices.Contains(open, it.ID) {
				lateAccepted++
			}
			answers = append(answers, PanelAnswer{it.ID, answerFor(u2, it.Kind, it.Facts, it.Choices)})
		}
		before := credits("p01")
		n, err := tn.AnswerPanel(p.Session, "p01", answers)
		if err != nil || n != len(answers) {
			t.Fatalf("step %d: panel of %d applied %d: %v", step, len(answers), n, err)
		}
		if got := credits("p01"); got != before+n {
			t.Fatalf("step %d: p01 credited %d, want %d", step, got, before+n)
		}
		if _, err := tn.AnswerPanel(p.Session, "p01", answers); !errors.Is(err, ErrNoPending) {
			t.Fatalf("step %d: panel answered twice: %v", step, err)
		}
	}
	if !sess.Done() {
		t.Fatal("session did not finish")
	}
	if lateAccepted == 0 {
		t.Error("no held item was retired before its answer; the late path went untested")
	}
}

// TestServeSessionlessAmbiguous opens two sessions whose first questions
// share an ID: a sessionless answer to it is refused, asking for the
// session ID, and leaves both sessions as they were; once one session has
// consumed the ID, the sessionless answer goes to the other.
func TestServeSessionlessAmbiguous(t *testing.T) {
	tn, sessions := newOpenTenant(t, TenantConfig{Name: "ambiguous", Members: 1}, 2)
	a, b := sessions[0], sessions[1]
	ida, idb := openIDs(a, "p00"), openIDs(b, "p00")
	if len(ida) == 0 || !slices.Equal(ida, idb) {
		t.Fatalf("open IDs %v and %v; want the same non-empty lists", ida, idb)
	}
	id := ida[0]
	err := tn.Answer("", "p00", id, core.AnswerSupport(1))
	if !errors.Is(err, ErrNoPending) || !strings.Contains(err.Error(), "send the session ID") {
		t.Fatalf("ambiguous sessionless answer: %v", err)
	}
	if _, err := tn.AnswerPanel("", "p00", []PanelAnswer{{id, core.AnswerSupport(1)}}); !errors.Is(err, ErrNoPending) {
		t.Fatalf("ambiguous sessionless panel: %v", err)
	}
	if !slices.Equal(openIDs(a, "p00"), ida) || !slices.Equal(openIDs(b, "p00"), idb) {
		t.Fatal("a refused answer changed a session")
	}
	if rows := tn.Leaderboard(); len(rows) != 0 {
		t.Fatalf("a refused answer was credited: %v", rows)
	}
	if err := tn.Answer(a.ID(), "p00", id, core.AnswerSupport(1)); err != nil {
		t.Fatal(err)
	}
	if err := tn.Answer("", "p00", id, core.AnswerSupport(1)); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(openIDs(b, "p00"), id) {
		t.Fatalf("session %s still holds %d after its sessionless answer", b.ID(), id)
	}
}

// TestAllocsShardTake gates the poll path's queue walk: a warm take cuts
// the member's open questions into the shard's scratch buffer without
// allocating.
func TestAllocsShardTake(t *testing.T) {
	tn, _ := newOpenTenant(t, TenantConfig{Name: "allocs", Members: 2}, 4)
	sh := tn.shards[0]
	var q Question
	take := func() {
		if !sh.take("p00", func(sess *Session, open []core.Question) { q = sess.wireQuestion(open[0]) }) {
			t.Fatal("nothing to take")
		}
	}
	take()
	if allocs := testing.AllocsPerRun(100, take); allocs != 0 {
		t.Errorf("warm shard.take allocates %.1f times", allocs)
	}
	if q.ID == 0 {
		t.Error("take handed out question 0")
	}
}

// TestAllocsServeRefill gates the answer path's refill: a warm refill
// that publishes nothing reads the engine's open list into the shard's
// scratch buffer, shared with take, without allocating.
func TestAllocsServeRefill(t *testing.T) {
	_, sessions := newOpenTenant(t, TenantConfig{Name: "refill", Members: 2}, 1)
	sess := sessions[0]
	sh := sess.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	seen := sess.seen
	if seen == 0 || sess.finished {
		t.Fatal("the opened session published nothing")
	}
	allocs := testing.AllocsPerRun(100, sess.refillLocked)
	if allocs != 0 {
		t.Errorf("warm refillLocked allocates %.1f times", allocs)
	}
	if sess.seen != seen {
		t.Errorf("refill published questions %d..%d; the gate needs a refill with nothing new", seen+1, sess.seen)
	}
}

// TestAllocsSessionDone gates Done as a plain read: on a live session it
// neither refills (a refill runs core.Session.AppendNext, which copies the
// open list) nor allocates.
func TestAllocsSessionDone(t *testing.T) {
	_, sessions := newOpenTenant(t, TenantConfig{Name: "done", Members: 2}, 1)
	sess := sessions[0]
	allocs := testing.AllocsPerRun(100, func() {
		if sess.Done() {
			t.Fatal("a fresh session reads as finished")
		}
	})
	if allocs != 0 {
		t.Errorf("Done on a live session allocates %.1f times", allocs)
	}
}

// BenchmarkTenantPollAnswer is one tenant with many live sessions in a
// Poll→Answer loop over its roster; a finished session is retired and
// replaced, so the live count stays fixed.
func BenchmarkTenantPollAnswer(b *testing.B) {
	const sessions = 256
	tn, _ := newOpenTenant(b, TenantConfig{Name: "bench", Members: 8}, sessions)
	q0 := oassisql.MustParse(testQuery)
	roster := tn.Roster()
	u1, _ := crowd.SampleDBs(ontology.NewSample())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		member := roster[i%len(roster)]
		q, out, err := tn.Poll(ctx, member, 0)
		if err != nil {
			b.Fatal(err)
		}
		if out != OutcomeQuestion {
			continue
		}
		if err := tn.Answer(q.Session, member, q.ID, answerFor(u1, q.Kind, q.Facts, q.Choices)); err != nil {
			b.Fatal(err)
		}
		if sess, err := tn.Session(q.Session); err == nil && sess.Done() {
			if err := tn.Retire(q.Session); err != nil {
				b.Fatal(err)
			}
			if _, err := tn.Open(q0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTenantOpen opens sessions of one query on a tenant whose plan
// is already cached: the plan-cache key, the session's Space and its
// engine run to the first question. Sessions are retired in batches off
// the clock, so the live count stays bounded.
func BenchmarkTenantOpen(b *testing.B) {
	tn, _ := newOpenTenant(b, TenantConfig{Name: "bench", Members: 8}, 1)
	q := oassisql.MustParse(testQuery)
	const batch = 256
	ids := make([]string, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := tn.Open(q)
		if err != nil {
			b.Fatal(err)
		}
		if ids = append(ids, sess.ID()); len(ids) == batch {
			b.StopTimer()
			for _, id := range ids {
				if err := tn.Retire(id); err != nil {
					b.Fatal(err)
				}
			}
			ids = ids[:0]
			b.StartTimer()
		}
	}
}

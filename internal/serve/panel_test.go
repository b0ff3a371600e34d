package serve

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"oassis/internal/aggregate"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
)

// drivePanelMember polls panels and answers every item in them until the
// tenant reports done or shutdown. It records the largest panel it saw.
func drivePanelMember(t *Tenant, member string, db *crowd.PersonalDB, maxSeen *int, mu *sync.Mutex) error {
	ctx := context.Background()
	for {
		p, out, err := t.PollPanel(ctx, member, 8, 2*time.Second)
		if err != nil {
			return err
		}
		switch out {
		case OutcomeDone, OutcomeShutdown:
			return nil
		case OutcomeTimeout:
			continue
		}
		mu.Lock()
		if len(p.Items) > *maxSeen {
			*maxSeen = len(p.Items)
		}
		mu.Unlock()
		answers := make([]PanelAnswer, 0, len(p.Items))
		for _, it := range p.Items {
			answers = append(answers, PanelAnswer{
				ID:     it.ID,
				Answer: answerFor(db, it.Kind, it.Facts, it.Choices),
			})
		}
		if _, err := t.AnswerPanel(p.Session, member, answers); err != nil {
			return err
		}
	}
}

// TestServePanelEquivalence: a session driven entirely through the panel
// route — batched polls, batched answers, successor speculation on —
// mines a result bit-identical to the sequential single-session path,
// and the panels actually batch (more than one item per round trip).
func TestServePanelEquivalence(t *testing.T) {
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
		Space:    sp,
		Theta:    pl.Support,
		Ordering: pl.PolicyName,
		Agg:      aggregate.NewFixedSample(2),
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

	reg := NewRegistry(Config{})
	defer reg.Close()
	tn, err := reg.AddTenant(TenantConfig{
		Name: "panels", Voc: s.Voc, Onto: s.Onto,
		Members: 2, Shards: 4, AnswersPerQuestion: 2, PanelSpeculation: 8,
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
	var mu sync.Mutex
	maxSeen := 0
	errs := make(chan error, 2)
	for member, db := range dbs {
		wg.Add(1)
		go func(member string, db *crowd.PersonalDB) {
			defer wg.Done()
			errs <- drivePanelMember(tn, member, db, &maxSeen, &mu)
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
		t.Fatal("panel-driven session not done after drivers finished")
	}
	got := formatMSPs(sess, res)
	if strings.Join(got, ";") != strings.Join(refMSPs, ";") {
		t.Errorf("panel-driven MSPs = %v, want %v", got, refMSPs)
	}
	if maxSeen < 2 {
		t.Errorf("largest panel carried %d item(s); batching never happened", maxSeen)
	}
}

// TestServePanelItemsCarryPriors drives a session to the end through the
// panel route, one member poll at a time, and checks every panel handed
// out: its item IDs are the member's core.Session.AppendOpen list cut to
// the poll's max, every concrete item is primed with a prior, and its
// Confirm flag agrees with the prior's confidence.
func TestServePanelItemsCarryPriors(t *testing.T) {
	const max = 3
	s := ontology.NewSample()
	u1, u2 := crowd.SampleDBs(s)
	dbs := map[string]*crowd.PersonalDB{"p00": u1, "p01": u2}
	reg := NewRegistry(Config{})
	defer reg.Close()
	tn, err := reg.AddTenant(TenantConfig{
		Name: "priors", Voc: s.Voc, Onto: s.Onto,
		Members: 2, PanelSpeculation: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for range []int{0, 1} {
		if _, err := tn.Join("member"); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := tn.Open(oassisql.MustParse(testQuery))
	if err != nil {
		t.Fatal(err)
	}
	polls, cut := 0, false
	for step := 0; !sess.Done(); step++ {
		if step == 1000 {
			t.Fatal("session not done after 1000 polls")
		}
		member := []string{"p00", "p01"}[step%2]
		p, out, err := tn.PollPanel(context.Background(), member, max, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if out != OutcomeQuestion {
			continue
		}
		sess.sh.mu.Lock()
		open := sess.inner.AppendOpen(nil, member)
		sess.sh.mu.Unlock()
		want := open[:min(len(open), max)]
		cut = cut || len(open) > max
		if len(p.Items) != len(want) {
			t.Fatalf("poll %d: %s's panel has %d items, want %d", polls, member, len(p.Items), len(want))
		}
		if polls == 0 && p.Items[0].Speculative {
			t.Error("first panel does not lead with the engine's own question")
		}
		polls++
		answers := make([]PanelAnswer, len(p.Items))
		for i, it := range p.Items {
			if it.ID != int(want[i].ID) {
				t.Fatalf("poll %d: %s's item %d is question %d, want %d", polls, member, i, it.ID, want[i].ID)
			}
			if it.Kind == core.KindConcrete && it.Prior.Confidence == crowd.ConfidenceNone {
				t.Errorf("poll %d: item %d has no prior", polls, i)
			}
			if it.Confirm != it.Prior.Confirmable() {
				t.Errorf("poll %d: item %d Confirm=%v disagrees with confidence %v", polls, i, it.Confirm, it.Prior.Confidence)
			}
			answers[i] = PanelAnswer{ID: it.ID, Answer: answerFor(dbs[member], it.Kind, it.Facts, it.Choices)}
		}
		if _, err := tn.AnswerPanel(p.Session, member, answers); err != nil {
			t.Fatal(err)
		}
	}
	if !cut {
		t.Errorf("no member ever had more than %d open questions; the cut was never exercised", max)
	}
}

// TestServePanelWakeup is the lost-wakeup regression for the panel
// route: a member parked in PollPanel before any session exists must
// wake as soon as a session opens and its refill publishes questions —
// not ride out its timeout. The park/notify path snapshots the tenant's
// notify channel before scanning; this test fails (by timeout) if panel
// availability is published without a broadcast or the snapshot is taken
// after the scan.
func TestServePanelWakeup(t *testing.T) {
	s := ontology.NewSample()
	reg := NewRegistry(Config{})
	defer reg.Close()
	tn, err := reg.AddTenant(TenantConfig{
		Name: "wake", Voc: s.Voc, Onto: s.Onto, Members: 1, PanelSpeculation: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Join("ann"); err != nil {
		t.Fatal(err)
	}
	type pollRes struct {
		p   Panel
		out Outcome
		err error
	}
	got := make(chan pollRes, 1)
	go func() {
		p, out, err := tn.PollPanel(context.Background(), "p00", 8, 30*time.Second)
		got <- pollRes{p, out, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the poller park
	start := time.Now()
	if _, err := tn.Open(oassisql.MustParse(testQuery)); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil || r.out != OutcomeQuestion {
			t.Fatalf("panel poll after open: out=%v err=%v", r.out, r.err)
		}
		if len(r.p.Items) == 0 {
			t.Fatal("woken poller got an empty panel")
		}
		if waited := time.Since(start); waited > 2*time.Second {
			t.Fatalf("parked panel poller woke after %v; the open's broadcast was lost", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked panel poller never observed panel availability")
	}
}

// TestServePanelAdmission: the global budget counts panel items, not
// panels — a panel poll whose item capacity exceeds the budget sheds
// immediately, while an equivalent single-question poll would fit.
func TestServePanelAdmission(t *testing.T) {
	s := ontology.NewSample()
	reg := NewRegistry(Config{MaxInFlight: 4})
	defer reg.Close()
	tn, err := reg.AddTenant(TenantConfig{Name: "a", Voc: s.Voc, Onto: s.Onto, Members: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Join("ann"); err != nil {
		t.Fatal(err)
	}
	_, _, err = tn.PollPanel(context.Background(), "p00", 8, time.Second)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("8-item panel against a 4-item budget: err=%v, want ErrOverloaded", err)
	}
	if reg.InFlight() != 0 {
		t.Fatalf("shed panel poll leaked budget: in-flight=%d", reg.InFlight())
	}
}

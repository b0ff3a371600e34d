package serve

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/store"
)

// TestServeWALHoldsRecoveryRecords drives a durable three-member session
// (two answers per question) to the end and decodes its WAL: it holds
// only the records recovery reads — the session and plan bindings and
// one record per answer — and under the default fsync policy every
// appended record costs exactly one fsync.
func TestServeWALHoldsRecoveryRecords(t *testing.T) {
	s := ontology.NewSample()
	u1, u2 := crowd.SampleDBs(s)
	dbs := map[string]*crowd.PersonalDB{"p00": u1, "p01": u2, "p02": u1}
	met := obs.NewRegistry()
	reg := NewRegistry(Config{Metrics: met})
	defer reg.Close()
	dir := t.TempDir()
	tn, err := reg.AddTenant(TenantConfig{
		Name: "w", Voc: s.Voc, Onto: s.Onto,
		Members: 3, AnswersPerQuestion: 2, Shards: 1, StoreDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	members := tn.Roster()
	for range members {
		if _, err := tn.Join("member"); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := tn.Open(oassisql.MustParse(testQuery))
	if err != nil {
		t.Fatal(err)
	}
	// One member at a time, in roster order, so the run is deterministic.
	deadline := time.Now().Add(30 * time.Second)
	for done := false; !done; {
		if time.Now().After(deadline) {
			t.Fatal("session did not finish")
		}
		for _, m := range members {
			q, out, err := tn.Poll(context.Background(), m, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if out == OutcomeDone {
				done = true
				break
			}
			if out != OutcomeQuestion {
				continue
			}
			if err := tn.Answer(q.Session, q.Member, q.ID, answerFor(dbs[m], q.Kind, q.Facts, q.Choices)); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, finished := sess.Result()
	if !finished {
		t.Fatal("session not finished")
	}

	b, err := os.ReadFile(filepath.Join(dir, "shard-0", sess.ID(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	byType := make(map[store.RecordType]int)
	total := 0
	for off := len("OASWAL1\n"); off < len(b); {
		r, n, err := store.DecodeRecord(b[off:])
		if err != nil {
			t.Fatalf("WAL does not decode at offset %d: %v", off, err)
		}
		byType[r.Type]++
		total++
		off += n
	}
	if byType[store.RecSession] != 1 || byType[store.RecPlan] != 1 {
		t.Errorf("WAL binds %d sessions and %d plans, want 1 and 1", byType[store.RecSession], byType[store.RecPlan])
	}
	if byType[store.RecAnswer] != res.Stats.TotalQuestions {
		t.Errorf("WAL holds %d answers, the run counted %d", byType[store.RecAnswer], res.Stats.TotalQuestions)
	}
	if n := byType[store.RecAnswer] + 2; total != n {
		t.Errorf("WAL holds %d records (%v), want only its %d answer and binding records", total, byType, n)
	}
	if total != 40 {
		t.Errorf("WAL holds %d records, want 40 for this session", total)
	}

	// Every record appended by the tenant (the session's and the joins in
	// the meta store) was fsynced once, and nothing else was.
	snap := met.Snapshot()
	appended := 0.0
	for _, typ := range []string{"answer", "session", "join", "plan"} {
		appended += snap[`oassis_store_records_appended_total{type="`+typ+`"}`]
	}
	if want := float64(total + len(members)); appended != want {
		t.Errorf("%v records appended, want %v", appended, want)
	}
	if fsyncs := snap["oassis_store_fsyncs_total"]; fsyncs != appended {
		t.Errorf("%v fsyncs for %v appended records", fsyncs, appended)
	}
}

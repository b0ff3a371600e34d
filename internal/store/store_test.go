package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oassis/internal/core"
	"oassis/internal/obs"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Store, *Recovered) {
	t.Helper()
	st, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, rec
}

// appendAnswers appends n distinct answers with deterministic content and
// returns their question keys in order.
func appendAnswers(t *testing.T, st *Store, n int) []string {
	t.Helper()
	var qs []string
	for i := 0; i < n; i++ {
		q := fmt.Sprintf("question-%02d with some padding", i)
		kind := core.QuestionKind(i % 4)
		if err := st.AppendAnswer(q, fmt.Sprintf("m%d", i%3), float64(i%5)*0.25, kind, i%2 == 0); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	return qs
}

func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st, rec := mustOpen(t, dir, Options{})
	if len(rec.Answers) != 0 || rec.Session != "" {
		t.Fatalf("fresh store not empty: %+v", rec)
	}
	if err := st.Bind("query-A", "sha256:aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendJoin("p00", "ann"); err != nil {
		t.Fatal(err)
	}
	qs := appendAnswers(t, st, 7)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Appends after close fail without mutating state.
	if err := st.AppendAnswer("late", "m", 0, core.KindConcrete, true); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: %v", err)
	}

	st2, rec2 := mustOpen(t, dir, Options{})
	defer st2.Close()
	if rec2.Session != "query-A" || rec2.Plan != "sha256:aaaa" {
		t.Errorf("session, plan = %q, %q", rec2.Session, rec2.Plan)
	}
	if len(rec2.Joins) != 1 || rec2.Joins[0].Member != "p00" || rec2.Joins[0].Note != "ann" {
		t.Errorf("joins = %+v", rec2.Joins)
	}
	if len(rec2.Answers) != len(qs) {
		t.Fatalf("recovered %d answers, want %d", len(rec2.Answers), len(qs))
	}
	for i, a := range rec2.Answers {
		if a.Question != qs[i] {
			t.Errorf("answer %d = %q, want %q", i, a.Question, qs[i])
		}
	}
	if rec2.TruncatedBytes != 0 {
		t.Errorf("clean log reported %d truncated bytes", rec2.TruncatedBytes)
	}
	c := rec2.PrimeCache()
	if c.Len() != len(qs) {
		t.Errorf("prime cache has %d answers", c.Len())
	}
	if s, ok := c.Lookup(qs[1], "m1"); !ok || s != 0.25 {
		t.Errorf("prime lookup = %v, %v", s, ok)
	}
}

func TestStoreDedup(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := st.AppendAnswer("q", "m", 0.5, core.KindConcrete, true); err != nil {
			t.Fatal(err)
		}
		if err := st.AppendJoin("p00", "ann"); err != nil {
			t.Fatal(err)
		}
	}
	// Same question, different member, is a distinct answer.
	if err := st.AppendAnswer("q", "m2", 0.25, core.KindConcrete, true); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, rec := mustOpen(t, dir, Options{})
	defer st2.Close()
	if len(rec.Answers) != 2 || len(rec.Joins) != 1 {
		t.Errorf("recovered %d answers, %d joins; want 2, 1", len(rec.Answers), len(rec.Joins))
	}
	// Replaying a recovered answer into the reopened store stays a no-op.
	if err := st2.AppendAnswer("q", "m", 0.5, core.KindConcrete, true); err != nil {
		t.Fatal(err)
	}
	if st2.Answers() != 2 {
		t.Errorf("answers after replay = %d", st2.Answers())
	}
}

// TestBindSessionMismatch: a store bound to one query refuses another,
// before and after reopen, whatever plan it names.
func TestBindSessionMismatch(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{})
	if err := st.Bind("query-A", "sha256:aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := st.Bind("query-A", "sha256:aaaa"); err != nil {
		t.Errorf("rebind same: %v", err)
	}
	for _, pl := range []string{"sha256:aaaa", "sha256:bbbb"} {
		if err := st.Bind("query-B", pl); err == nil || !strings.Contains(err.Error(), "different query") {
			t.Errorf("rebind to a different query (plan %s): %v", pl, err)
		}
	}
	st.Close()
	st2, rec := mustOpen(t, dir, Options{})
	defer st2.Close()
	if rec.Session != "query-A" {
		t.Errorf("session = %q", rec.Session)
	}
	if err := st2.Bind("query-B", "sha256:aaaa"); err == nil {
		t.Error("reopened store accepted a different query")
	}
}

// TestRecoveryTruncationMatrix is the crash matrix of the issue: the WAL
// is cut at every byte boundary and recovery must yield exactly the
// answers whose records fit before the cut, truncating the tail.
func TestRecoveryTruncationMatrix(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{})
	qs := appendAnswers(t, st, 8)
	st.Close()
	full, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries: offset just past each record.
	var bounds []int
	off := len(walMagic)
	for off < len(full) {
		_, n, err := DecodeRecord(full[off:])
		if err != nil || n == 0 {
			t.Fatalf("reference log does not replay at %d: %v", off, err)
		}
		off += n
		bounds = append(bounds, off)
	}
	if len(bounds) != len(qs) {
		t.Fatalf("%d records in log, want %d", len(bounds), len(qs))
	}
	for cut := 0; cut <= len(full); cut++ {
		want := 0
		for _, b := range bounds {
			if b <= cut {
				want++
			}
		}
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, walName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st2, rec := mustOpen(t, d, Options{})
		if len(rec.Answers) != want {
			t.Fatalf("cut %d: recovered %d answers, want %d", cut, len(rec.Answers), want)
		}
		for i, a := range rec.Answers {
			if a.Question != qs[i] {
				t.Fatalf("cut %d: answer %d = %q, want prefix %q", cut, i, a.Question, qs[i])
			}
		}
		// The torn tail must be physically truncated so the next append
		// lands on a record boundary.
		if err := st2.AppendAnswer("post-crash", "m", 1, core.KindConcrete, true); err != nil {
			t.Fatal(err)
		}
		st2.Close()
		_, rec3 := mustOpen(t, d, Options{})
		if len(rec3.Answers) != want+1 || rec3.Answers[want].Question != "post-crash" {
			t.Fatalf("cut %d: append after recovery not replayable (%d answers)", cut, len(rec3.Answers))
		}
	}
}

// TestRecoveryBitFlipFinalRecord flips every byte of the final record and
// checks recovery always falls back to the intact prefix.
func TestRecoveryBitFlipFinalRecord(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{})
	qs := appendAnswers(t, st, 5)
	st.Close()
	full, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	// Find the final record's start offset.
	off, last := len(walMagic), 0
	for off < len(full) {
		last = off
		_, n, _ := DecodeRecord(full[off:])
		off += n
	}
	for i := last; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0xFF
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, walName), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, rec := mustOpen(t, d, Options{})
		st2.Close()
		if len(rec.Answers) != len(qs)-1 {
			t.Fatalf("flip at %d: recovered %d answers, want %d", i, len(rec.Answers), len(qs)-1)
		}
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{CompactEvery: 10})
	st.Bind("query-A", "sha256:aaaa")
	st.AppendJoin("p00", "ann")
	qs := appendAnswers(t, st, 25)
	st.Close()
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot after %d appends: %v", 28, err)
	}
	wal, _ := os.ReadFile(filepath.Join(dir, walName))
	if len(wal) >= 28*20 {
		t.Errorf("WAL not reset by compaction: %d bytes", len(wal))
	}
	st2, rec := mustOpen(t, dir, Options{})
	defer st2.Close()
	if rec.Session != "query-A" || rec.Plan != "sha256:aaaa" || len(rec.Joins) != 1 {
		t.Errorf("compacted state lost session/plan/joins: %q, %q, %d", rec.Session, rec.Plan, len(rec.Joins))
	}
	if len(rec.Answers) != len(qs) {
		t.Fatalf("recovered %d answers after compaction, want %d", len(rec.Answers), len(qs))
	}
	for i, a := range rec.Answers {
		if a.Question != qs[i] {
			t.Errorf("answer %d = %q, want %q (order lost)", i, a.Question, qs[i])
		}
	}
}

func TestExplicitCompactAndSyncPolicies(t *testing.T) {
	for _, opts := range []Options{{SyncEvery: 3}, {SyncEvery: -1}, {CompactEvery: -1}} {
		dir := t.TempDir()
		st, _ := mustOpen(t, dir, opts)
		appendAnswers(t, st, 12)
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		appendAnswers(t, st, 12) // dedup: all no-ops
		st.Close()
		_, rec := mustOpen(t, dir, opts)
		if len(rec.Answers) != 12 {
			t.Errorf("opts %+v: recovered %d answers, want 12", opts, len(rec.Answers))
		}
	}
}

func TestCorruptSnapshotIsAnError(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{})
	appendAnswers(t, st, 5)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	path := filepath.Join(dir, snapName)
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 0xFF
	os.WriteFile(path, b, 0o644)
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Error("corrupt snapshot opened without error")
	}
}

// TestBindPlan: the plan fingerprint is journaled once, survives reopen
// (and compaction) as Recovered.Plan, and rebinding the same query to a
// different fingerprint — domain drift — is refused. A store recorded
// before plans were bound (a session record only) takes its plan on the
// first Bind.
func TestBindPlan(t *testing.T) {
	dir := t.TempDir()
	legacy := append(append([]byte(nil), walMagic...), EncodeRecord(Record{Type: RecSession, Note: "query-A"})...)
	if err := os.WriteFile(filepath.Join(dir, walName), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	st, rec0 := mustOpen(t, dir, Options{})
	if rec0.Session != "query-A" || rec0.Plan != "" {
		t.Fatalf("legacy store recovered session %q, plan %q", rec0.Session, rec0.Plan)
	}
	if err := st.Bind("query-A", "sha256:aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := st.Bind("query-A", "sha256:aaaa"); err != nil {
		t.Errorf("rebind same plan: %v", err)
	}
	if err := st.Bind("query-A", "sha256:bbbb"); err == nil || !strings.Contains(err.Error(), "domain drift") {
		t.Errorf("rebind to a different plan fingerprint: %v", err)
	}
	if err := st.AppendAnswer("q", "m", 0.5, core.KindConcrete, true); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, rec := mustOpen(t, dir, Options{})
	if rec.Plan != "sha256:aaaa" {
		t.Errorf("recovered plan = %q, want sha256:aaaa", rec.Plan)
	}
	// Compaction must carry the plan binding into the snapshot.
	if err := st2.Compact(); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	_, rec2 := mustOpen(t, dir, Options{})
	if rec2.Plan != "sha256:aaaa" {
		t.Errorf("plan lost at compaction: %q", rec2.Plan)
	}
	if rec2.Session != "query-A" {
		t.Errorf("session lost at compaction: %q", rec2.Session)
	}
}

// TestRecoverRetiredRecords replays a log written before the store
// stopped journaling classifications and hand-outs: the RecClassified and
// RecIssued records between its answers are skipped, every answer is
// recovered in order, and compaction leaves none of them behind.
func TestRecoverRetiredRecords(t *testing.T) {
	dir := t.TempDir()
	log := append([]byte(nil), walMagic...)
	for _, r := range []Record{{Type: RecSession, Note: "query-A"}, {Type: RecPlan, Note: "sha256:aaaa"}} {
		log = append(log, EncodeRecord(r)...)
	}
	var qs []string
	for i := 0; i < 6; i++ {
		q := fmt.Sprintf("question-%02d", i)
		qs = append(qs, q)
		log = append(log, EncodeRecord(Record{Type: RecIssued, Question: q, Member: "m"})...)
		log = append(log, EncodeRecord(Record{Type: RecAnswer, Question: q, Member: "m",
			Support: 0.5, Kind: core.KindConcrete, Counted: true})...)
		log = append(log, EncodeRecord(Record{Type: RecClassified, Node: q, Significant: i%2 == 0})...)
	}
	// A question handed out but never answered: nothing to recover.
	log = append(log, EncodeRecord(Record{Type: RecIssued, Question: "in-flight", Member: "m"})...)
	if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
		t.Fatal(err)
	}

	check := func(when string, rec *Recovered) {
		t.Helper()
		if rec.Session != "query-A" || rec.Plan != "sha256:aaaa" {
			t.Errorf("%s: session, plan = %q, %q", when, rec.Session, rec.Plan)
		}
		if len(rec.Answers) != len(qs) {
			t.Fatalf("%s: recovered %d answers, want %d", when, len(rec.Answers), len(qs))
		}
		for i, a := range rec.Answers {
			if a.Type != RecAnswer || a.Question != qs[i] {
				t.Errorf("%s: answer %d = %+v, want %q", when, i, a, qs[i])
			}
		}
	}
	st, rec := mustOpen(t, dir, Options{})
	if rec.TruncatedBytes != 0 {
		t.Errorf("retired records truncated as corrupt: %d bytes", rec.TruncatedBytes)
	}
	check("replay", rec)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	snap, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := replayFile(snap, snapMagic, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2+len(qs) {
		t.Errorf("snapshot holds %d records, want %d", len(recs), 2+len(qs))
	}
	for _, r := range recs {
		if r.Type == RecClassified || r.Type == RecIssued {
			t.Errorf("compaction kept a retired record: %+v", r)
		}
	}
	_, rec2 := mustOpen(t, dir, Options{})
	check("after compaction", rec2)
}

// TestMetricsCountEveryWrittenType: every record the store writes, plan
// bindings included, is counted by type, and the byte counter matches
// the WAL file past its magic.
func TestMetricsCountEveryWrittenType(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{Metrics: NewMetrics(reg), CompactEvery: -1})
	if err := st.Bind("query-A", "sha256:aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendJoin("p00", "ann"); err != nil {
		t.Fatal(err)
	}
	appendAnswers(t, st, 4)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got, want := snap["oassis_store_wal_bytes_total"], float64(len(wal)-len(walMagic)); got != want {
		t.Errorf("wal_bytes_total = %v, want %v", got, want)
	}
	for typ, want := range map[string]float64{"answer": 4, "session": 1, "join": 1, "plan": 1} {
		if got := snap[`oassis_store_records_appended_total{type="`+typ+`"}`]; got != want {
			t.Errorf("records_appended_total{type=%q} = %v, want %v", typ, got, want)
		}
	}
	for k := range snap {
		if strings.Contains(k, "classified") || strings.Contains(k, "issued") || strings.Contains(k, "inflight") {
			t.Errorf("series for a record type the store no longer writes: %s", k)
		}
	}
}

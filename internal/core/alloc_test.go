package core

import (
	"testing"

	"oassis/internal/assign"
	"oassis/internal/synth"
)

// TestAllocsPick gates the engine's pick as allocation-free once warm:
// the paper order's comparator scan reads interned nodes and sealed keys,
// so nothing on the per-question pick is heap-bound.
func TestAllocsPick(t *testing.T) {
	_, _, sp := buildSpace(t, figure3Restricted)
	e := newEngine(Config{Space: sp, Theta: 0.4}, nil)
	e.seed()
	e.drainExpansions()
	// Warm: the first pick seals every candidate's memoized key.
	if _, ok := e.pickUnclassified(false); !ok {
		t.Fatal("seeded engine has no unclassified candidates")
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.pickUnclassified(false)
	})
	if allocs != 0 {
		t.Errorf("pick allocates %.1f times per call, want 0", allocs)
	}
}

// TestAllocsSessionNext gates Next at one allocation — the returned
// slice — however many questions are open: a warm Next over the 16-member
// travel session that issues nothing new copies the ordered open list and
// does nothing else on the heap.
func TestAllocsSessionNext(t *testing.T) {
	sess, byID := newCrowdTravel(t).session()
	for i := 0; i < 400; i++ {
		qs := sess.Next()
		if qs == nil {
			t.Fatalf("run finished after %d answers", i)
		}
		q := qs[0]
		if err := sess.Submit(q.ID, AnswerFrom(byID[q.Member], q)); err != nil {
			t.Fatalf("submit %d: %v", q.ID, err)
		}
	}
	// Warm: this call retires stale speculation and issues the new.
	open := len(sess.Next())
	if open < 100 {
		t.Fatalf("only %d open questions after 400 answers; the gate needs a crowd-sized open list", open)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sess.Next()
	})
	if allocs != 1 {
		t.Errorf("Next allocates %.1f times per call at %d open questions, want 1", allocs, open)
	}
}

// TestAllocsOnClassified gates the timeline bookkeeping as allocation-free
// on every explicit classification: an untimed engine keeps no row state,
// and a timed one tests the ValidBase singletons it built once at open,
// for a significant and an insignificant node alike.
func TestAllocsOnClassified(t *testing.T) {
	sp, err := synth.GenerateSpace(synth.DAGConfig{Width: 12, Depth: 3, XWidth: 6, XDepth: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rows := sp.Sp.ValidBase
	if len(rows) < 20 {
		t.Fatalf("space has %d ValidBase rows; the gate needs at least 20", len(rows))
	}
	for _, timeline := range []bool{false, true} {
		e := newEngine(Config{Space: sp.Sp, Theta: 0.5, TrackTimeline: timeline}, nil)
		e.seed()
		e.drainExpansions()
		for _, c := range []struct {
			node        assign.Assignment
			significant bool
		}{
			{sp.Sp.Singleton(rows[len(rows)/2]...), true}, // settles itself and its generalizations
			{e.ns.node(e.poolIDs[0]), false},              // a minimal node: settles every row above it
		} {
			allocs := testing.AllocsPerRun(100, func() {
				clear(e.classifiedRows) // re-test every row on each call
				e.onClassified(c.node, c.significant)
			})
			if allocs != 0 {
				t.Errorf("timeline=%v significant=%v: onClassified allocates %.1f times per call over %d rows, want 0",
					timeline, c.significant, allocs, len(rows))
			}
		}
		if timeline && e.classifiedN == 0 {
			t.Error("timed engine counted no classified rows")
		}
	}
}

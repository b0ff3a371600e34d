package core

import (
	"testing"
	"unsafe"

	"oassis/internal/crowd"
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

// TestAllocsSessionNext gates a warm Next at zero allocations however many
// questions are open: over the 16-member travel session, a Next that
// issues nothing new brings the session's kept view up to date from the
// slab's compact entries and does nothing else on the heap. AppendNext
// into a buffer already sized for the open list allocates nothing either.
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
	if allocs != 0 {
		t.Errorf("Next allocates %.1f times per call at %d open questions, want 0", allocs, open)
	}
	buf := make([]Question, 0, open)
	allocs = testing.AllocsPerRun(100, func() {
		buf = sess.AppendNext(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendNext into a sized buffer allocates %.1f times per call at %d open questions, want 0", allocs, open)
	}
	if len(buf) != open {
		t.Errorf("AppendNext returned %d questions, Next %d", len(buf), open)
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
			node        uint32
			significant bool
		}{
			{sp.Sp.ID(sp.Sp.Singleton(rows[len(rows)/2]...)), true}, // settles itself and its generalizations
			{e.poolIDs[0], false}, // a minimal node: settles every row above it
		} {
			allocs := testing.AllocsPerRun(100, func() {
				if timeline {
					clear(e.rare.classifiedRows) // re-test every row on each call
				}
				e.onClassified(c.node, c.significant)
			})
			if allocs != 0 {
				t.Errorf("timeline=%v significant=%v: onClassified allocates %.1f times per call over %d rows, want 0",
					timeline, c.significant, allocs, len(rows))
			}
		}
		if timeline && e.rare.classifiedN == 0 {
			t.Error("timed engine counted no classified rows")
		}
	}
}

// TestAllocsSessionLoopCrowd gates the 16-member travel loop — Next, then
// Submit the blocked question's answer, to the end of the run — at
// allocsPerAnswerCrowd heap allocations per answer, session set-up
// excluded. The count barely moves between runs: 4,838–4,841
// allocations over 1,912 answers (2.53 per answer), against 12.3 when
// questions were keyed by string and each open question was a heap
// instance. What remains is
// lattice growth (successor generation, instantiation, the classifier's
// postings), the answer lists and map growth.
func TestAllocsSessionLoopCrowd(t *testing.T) {
	const allocsPerAnswerCrowd = 2.6
	ct := newCrowdTravel(t)
	const runs = 3
	type drive struct {
		sess *Session
		byID map[string]crowd.Member
	}
	drives := make([]drive, runs+1) // AllocsPerRun warms up with one extra run
	for i := range drives {
		drives[i].sess, drives[i].byID = ct.session()
	}
	answers, next := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		d := drives[next]
		next++
		answers = 0
		for qs := d.sess.Next(); qs != nil; qs = d.sess.Next() {
			q := qs[0]
			d.sess.Submit(q.ID, AnswerFrom(d.byID[q.Member], q))
			answers++
		}
	})
	perAnswer := allocs / float64(answers)
	t.Logf("%.0f allocations over %d answers: %.3f per answer", allocs, answers, perAnswer)
	if perAnswer > allocsPerAnswerCrowd {
		t.Errorf("the travel loop allocates %.3f times per answer, want at most %v", perAnswer, allocsPerAnswerCrowd)
	}
}

// TestSizeSessionStructs pins, on 64-bit platforms, the structs every
// session pays for whatever its options: the Session itself (192 bytes,
// an allocation class of its own), the engine (848 bytes, inside the
// 896-byte allocation class), its classifier (168 bytes, its own
// allocation) and an open-slab entry (40 bytes, one per open question).
// A field added to any of them, such as a whole Question in want, a slice
// only an optional feature uses, Next's view state back in Session
// (serving hosts never call Next) or signature state in the classifier
// (serving sessions never index), fails here before it shows up as
// per-session heap in the serving tier; move such state behind a pointer
// (rareState, nextView, the classifier's termIndex) instead, or update
// the pin with the footprint gate in internal/serve.
func TestSizeSessionStructs(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Session{}); got > 192 {
		t.Errorf("Session is %d bytes, pinned at 192", got)
	}
	if got := unsafe.Sizeof(engine{}); got != 848 {
		t.Errorf("engine is %d bytes, pinned at 848", got)
	}
	if got := unsafe.Sizeof(classifier{}); got != 168 {
		t.Errorf("classifier is %d bytes, pinned at 168", got)
	}
	if got := unsafe.Sizeof(openQ{}); got != 40 {
		t.Errorf("an open-slab entry is %d bytes, pinned at 40", got)
	}
}

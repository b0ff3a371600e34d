package serve

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"oassis/internal/oassisql"
	"oassis/internal/ontology"
)

// footprintKBPerSession is the most live heap one open session may hold:
// its Space, engine and session state parked on its first Next. It
// measures 3.37 KB on linux/amd64 with go1.24, so a regression of about
// 0.6 KB per session (a Question copied back into every open-slab entry,
// say) fails the gate.
const footprintKBPerSession = 4.0

// TestSessionFootprint opens footprintSessions sessions of the four
// serve-many query variants (supports 0.3 to 0.6) on one eight-member
// tenant and gates the live heap they hold, after a GC, at
// footprintKBPerSession per session.
func TestSessionFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates every allocation")
	}
	const footprintSessions = 2000
	s := ontology.NewSample()
	reg := NewRegistry(Config{})
	defer reg.Close()
	tn, err := reg.AddTenant(TenantConfig{Name: "footprint", Voc: s.Voc, Onto: s.Onto, Members: 8, Shards: 4, AnswersPerQuestion: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tn.Roster() {
		if _, err := tn.Join(fmt.Sprintf("driver-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var qs []*oassisql.Query
	for _, support := range []float64{0.3, 0.4, 0.5, 0.6} {
		text := strings.Replace(testQuery, "SUPPORT = 0.4", fmt.Sprintf("SUPPORT = %.1f", support), 1)
		qs = append(qs, oassisql.MustParse(text))
	}
	// One session per variant first, so the plans are cached and shared
	// before the baseline is read.
	for _, q := range qs {
		if _, err := tn.Open(q); err != nil {
			t.Fatal(err)
		}
	}
	before := liveHeap()
	for i := 0; i < footprintSessions; i++ {
		if _, err := tn.Open(qs[i%len(qs)]); err != nil {
			t.Fatal(err)
		}
	}
	perSession := (float64(liveHeap()) - float64(before)) / 1e3 / footprintSessions
	runtime.KeepAlive(tn)
	t.Logf("%.2f KB of live heap per open session over %d sessions", perSession, footprintSessions)
	if perSession > footprintKBPerSession {
		t.Errorf("an open session holds %.2f KB of live heap, want at most %v KB", perSession, footprintKBPerSession)
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

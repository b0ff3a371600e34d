package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"oassis/internal/core"
)

// Options configures a store.
type Options struct {
	// SyncEvery is the fsync policy: 0 or 1 fsyncs the WAL after every
	// appended record (full durability, the default); n > 1 fsyncs every
	// n records (bounded loss of the last < n answers on power failure);
	// -1 never fsyncs on append (Flush, Compact and Close still do).
	SyncEvery int

	// CompactEvery triggers snapshot compaction once the WAL holds this
	// many records (default 4096; -1 disables automatic compaction —
	// Compact can still be called explicitly).
	CompactEvery int

	// Metrics, when non-nil, receives store instrumentation (records and
	// bytes appended, fsyncs, compactions, recovery counts). Purely
	// observational: it never changes what the store persists or recovers.
	Metrics *Metrics
}

const defaultCompactEvery = 4096

// ErrClosed is returned by appends to a closed store.
var ErrClosed = errors.New("store: closed")

// Store is a durable answer store rooted at a directory. It implements
// core.Sink, so a *Store can be set directly as core.Config.Store. All
// methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu         sync.Mutex
	wal        *os.File
	walRecords int // records in the WAL since the last compaction
	sinceSync  int // records appended since the last fsync
	closed     bool

	// Durable state, mirrored in memory so appends dedupe and snapshots
	// compact without re-reading the log.
	session string
	plan    string
	joined  map[string]bool
	joins   []Record
	seen    map[string]map[string]bool // question -> member -> answered
	answers []Record                   // unique answers, first-write order
}

// Recovered is the state replayed from a store directory at Open.
type Recovered struct {
	// Answers are the unique crowd answers, in first-write order.
	Answers []Record
	// Joins are the member slot claims, in join order.
	Joins []Record
	// Session is the query text the store is bound to ("" if unbound).
	Session string
	// Plan is the plan fingerprint the store is bound to ("" if unbound);
	// Bind refuses a run whose plan differs (domain drift).
	Plan string
	// TruncatedBytes counts WAL tail bytes dropped because the final
	// record was torn or corrupt.
	TruncatedBytes int64
}

// PrimeCache loads the recovered answers into a core.Cache suitable for
// core.Config.Prime: a restarted engine replays them instead of re-asking
// the crowd.
func (r *Recovered) PrimeCache() *core.Cache { return primeCache(r.Answers) }

// PrimeCache loads every answer the store holds now, recovered or appended
// since Open, into a fresh core.Cache for core.Config.Prime: a run that
// starts on an open store replays them instead of re-asking the crowd. The
// cache is the caller's own; later appends do not reach it.
func (s *Store) PrimeCache() *core.Cache {
	s.mu.Lock()
	defer s.mu.Unlock()
	return primeCache(s.answers)
}

func primeCache(answers []Record) *core.Cache {
	c := core.NewCache()
	for _, a := range answers {
		c.Record(a.Question, a.Member, a.Support)
	}
	return c
}

// Open opens (creating if needed) the store directory, recovers its state
// — snapshot first, then the WAL, truncating a torn tail — and leaves the
// WAL open for appending. The returned Recovered reflects everything
// durable; appending an answer already recovered is a silent no-op, which
// makes resumed runs (whose engine replays primed answers through the
// same record path) idempotent.
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	snapRecs, err := readSnapshot(dir)
	if err != nil {
		return nil, nil, err
	}
	f, walRecs, dropped, err := openWAL(dir)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{
		dir:        dir,
		opts:       opts,
		wal:        f,
		walRecords: len(walRecs),
		joined:     make(map[string]bool),
		seen:       make(map[string]map[string]bool),
	}
	rec := &Recovered{TruncatedBytes: dropped}
	for _, lists := range [][]Record{snapRecs, walRecs} {
		for _, r := range lists {
			s.absorb(r, rec)
		}
	}
	rec.Session = s.session
	rec.Plan = s.plan
	opts.Metrics.recovered(rec)
	return s, rec, nil
}

// absorb folds one replayed record into the in-memory state and the
// Recovered view, deduplicating answers and joins. The retired
// RecClassified and RecIssued records, which older logs may hold, carry
// nothing recovery needs and are skipped.
func (s *Store) absorb(r Record, out *Recovered) {
	switch r.Type {
	case RecAnswer:
		if s.markSeen(r.Question, r.Member) {
			s.answers = append(s.answers, r)
			out.Answers = append(out.Answers, r)
		}
	case RecSession:
		s.session = r.Note
	case RecPlan:
		s.plan = r.Note
	case RecJoin:
		if !s.joined[r.Member] {
			s.joined[r.Member] = true
			s.joins = append(s.joins, r)
			out.Joins = append(out.Joins, r)
		}
	}
}

// markSeen records (question, member) and reports whether it was new.
func (s *Store) markSeen(question, member string) bool {
	byMember := s.seen[question]
	if byMember == nil {
		byMember = make(map[string]bool)
		s.seen[question] = byMember
	}
	if byMember[member] {
		return false
	}
	byMember[member] = true
	return true
}

// append writes one framed record to the WAL and applies the fsync policy.
// The caller holds s.mu and has already updated the in-memory mirrors.
func (s *Store) append(r Record) error {
	if s.closed {
		return ErrClosed
	}
	buf := EncodeRecord(r)
	if _, err := s.wal.Write(buf); err != nil {
		return err
	}
	s.opts.Metrics.recordAppended(r.Type, len(buf))
	s.walRecords++
	s.sinceSync++
	every := s.opts.SyncEvery
	if every == 0 {
		every = 1
	}
	if every > 0 && s.sinceSync >= every {
		if err := s.wal.Sync(); err != nil {
			return err
		}
		s.opts.Metrics.fsynced()
		s.sinceSync = 0
	}
	return s.maybeCompact()
}

// AppendAnswer durably records one crowd answer; re-appending a (question,
// member) pair already stored is a no-op. It implements core.Sink.
func (s *Store) AppendAnswer(question, member string, support float64, kind core.QuestionKind, counted bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if !s.markSeen(question, member) {
		return nil
	}
	r := Record{Type: RecAnswer, Question: question, Member: member,
		Support: support, Kind: kind, Counted: counted}
	s.answers = append(s.answers, r)
	return s.append(r)
}

// AppendJoin records a member claiming a slot; duplicate member IDs are
// no-ops.
func (s *Store) AppendJoin(member, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.joined[member] {
		return nil
	}
	s.joined[member] = true
	r := Record{Type: RecJoin, Member: member, Note: name}
	s.joins = append(s.joins, r)
	return s.append(r)
}

// Bind binds the store to one query's canonical text and the fingerprint
// of the plan it compiles to, journaling whichever is still unbound. A
// store directory holds exactly one query's answers, keyed by term ids,
// so binding to another query, or to the same query compiled over a
// drifted domain (a different plan fingerprint), is refused: replaying
// those answers would corrupt the new run's results.
func (s *Store) Bind(query, plan string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.session != "" && s.session != query {
		return errors.New("store is bound to a different query; use a fresh store directory")
	}
	if s.plan != "" && s.plan != plan {
		return fmt.Errorf("store was recorded under plan %s but the query now compiles to %s (domain drift); use a fresh store directory",
			s.plan, plan)
	}
	if s.session == "" {
		s.session = query
		if err := s.append(Record{Type: RecSession, Note: query}); err != nil {
			return err
		}
	}
	if s.plan == "" {
		s.plan = plan
		return s.append(Record{Type: RecPlan, Note: plan})
	}
	return nil
}

// maybeCompact compacts when the WAL has outgrown the policy. Caller
// holds s.mu.
func (s *Store) maybeCompact() error {
	every := s.opts.CompactEvery
	if every == 0 {
		every = defaultCompactEvery
	}
	if every < 0 || s.walRecords < every {
		return nil
	}
	return s.compactLocked()
}

// Compact writes a snapshot of the deduplicated durable state and resets
// the WAL. Crash-safe: the snapshot is installed atomically before the
// WAL is truncated, and recovery deduplicates, so a crash between the two
// steps merely replays the old WAL into the same state.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	// Flush the WAL first so the snapshot never leads the log.
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.opts.Metrics.fsynced()
	s.sinceSync = 0
	recs := make([]Record, 0, 2+len(s.joins)+len(s.answers))
	if s.session != "" {
		recs = append(recs, Record{Type: RecSession, Note: s.session})
	}
	if s.plan != "" {
		recs = append(recs, Record{Type: RecPlan, Note: s.plan})
	}
	recs = append(recs, s.joins...)
	recs = append(recs, s.answers...)
	if err := writeSnapshot(s.dir, recs); err != nil {
		return err
	}
	if err := s.resetWAL(); err != nil {
		return err
	}
	s.walRecords = 0
	s.opts.Metrics.compacted()
	return nil
}

// resetWAL truncates the WAL to a fresh header after a snapshot has been
// installed. Caller holds s.mu.
func (s *Store) resetWAL() error {
	if err := s.wal.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(s.dir, walName), os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(walMagic); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	s.opts.Metrics.fsynced()
	s.wal = f
	return nil
}

// Flush fsyncs the WAL regardless of the fsync policy.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.sinceSync = 0
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.opts.Metrics.fsynced()
	return nil
}

// Close flushes and closes the WAL. Further appends return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	syncErr := s.wal.Sync()
	if syncErr == nil {
		s.opts.Metrics.fsynced()
	}
	closeErr := s.wal.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Scan lists the names of the immediate subdirectories of root that are
// store directories (they hold a WAL file), sorted. It is how a serving
// tier re-discovers the per-session stores under a tenant's shard
// directory at boot; a missing root is an empty result, not an error —
// a tenant that has never persisted anything recovers nothing.
func Scan(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, e.Name(), walName)); err == nil {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Answers returns how many unique answers are durable.
func (s *Store) Answers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.answers)
}

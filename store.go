package oassis

import "oassis/internal/store"

// Store is a durable answer store rooted at a directory: every crowd
// answer a run collects is appended to a checksummed write-ahead log (and
// periodically compacted into a snapshot) before the run proceeds, and
// reopening the same directory recovers them. Pass it to Exec with
// WithStore to make runs crash-recoverable and resumable: a restarted run
// replays the recovered answers instead of re-asking the crowd, so no
// member ever sees a question they already answered.
type Store struct {
	inner     *store.Store
	recovered int // answers recovered at OpenStore
}

// OpenStore opens (creating if needed) a store directory and recovers its
// state. Recovery replays the snapshot and the log, verifying each
// record's checksum and truncating a torn final record left by a crash.
func OpenStore(dir string) (*Store, error) {
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	return &Store{inner: st, recovered: len(rec.Answers)}, nil
}

// RecoveredAnswers reports how many crowd answers were recovered when the
// store was opened; a resumed run reuses them without re-asking.
func (s *Store) RecoveredAnswers() int { return s.recovered }

// Close flushes and closes the store.
func (s *Store) Close() error { return s.inner.Close() }

// WithStore attaches a durable answer store to the run: every answer the
// store holds when the run starts, recovered at OpenStore or stored by an
// earlier run, is replayed instead of re-asked (they still count in the
// statistics, as in the paper's §6.3 replay methodology), and every new
// answer is persisted before the run proceeds. A store holds one
// query's answers: the first run binds it to the query and the plan it
// compiles to, and a run of another query, or of the same query over a
// drifted domain, is refused with an error.
func WithStore(st *Store) Option { return func(o *options) { o.store = st } }

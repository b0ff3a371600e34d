package serve

import (
	"sync"
	"sync/atomic"

	"oassis/internal/core"
)

// shard owns a disjoint subset of a tenant's sessions — the ones whose
// plan fingerprints route to it — and serializes them behind one mutex
// (core.Session is not safe for concurrent use). It also carries the
// per-shard admission bookkeeping: the ready queues that make Poll
// O(shards) instead of O(sessions), and the bounded parked-waiter count
// charged for the members whose roster partition homes here.
type shard struct {
	idx int
	t   *Tenant
	obs *shardObs

	waiters atomic.Int64

	mu       sync.Mutex
	sessions map[string]*Session
	// ready queues, per member, the sessions holding an open question
	// for them. Entries are validated lazily on take: an entry whose
	// session no longer has an open question for the member (answered,
	// finished, retired) is dropped in passing.
	ready map[string][]*Session
	open  []core.Question // take's and refill's scratch buffer
}

// take walks the member's ready queue on this shard to the first session
// with open questions for them and hands those (blocked question first,
// then ID order) to cut, under the shard lock; open is the shard's
// scratch buffer, valid only during the call. The questions stay open (a
// re-poll resends them); answering them is what clears the queue entry.
func (sh *shard) take(member string, cut func(sess *Session, open []core.Question)) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q := sh.ready[member]
	for ; len(q) > 0; q = q[1:] {
		if sh.open = q[0].inner.AppendOpen(sh.open[:0], member); len(sh.open) > 0 {
			sh.ready[member] = q
			cut(q[0], sh.open)
			return true
		}
	}
	delete(sh.ready, member)
	return false
}

// park registers a long-poll waiter against the shard's bounded queue;
// false means the bound is hit and the caller must shed.
func (sh *shard) park() bool {
	if sh.waiters.Add(1) > int64(sh.t.reg.cfg.MaxWaitersPerShard) {
		sh.waiters.Add(-1)
		return false
	}
	sh.obs.waiters.Inc()
	return true
}

func (sh *shard) unpark() {
	sh.waiters.Add(-1)
	sh.obs.waiters.Dec()
}

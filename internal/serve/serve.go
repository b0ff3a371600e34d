// Package serve is the multi-tenant serving tier: the layer between an
// HTTP frontend and core.Session that lets one process host many named
// tenants (domain + member roster + store directory), each running many
// concurrent mining sessions.
//
// The hierarchy is Registry → Tenant → shard → Session. Sessions are
// sharded by plan fingerprint (plan.ShardIndex over the content address),
// so every session of the same compiled plan lands on the same shard and
// shares the cached plan and the read-only core.Domain; each shard
// serializes its sessions behind one mutex, and shards run independently.
// A tenant's member roster is partitioned across its shards — the
// partition is the bookkeeping home of a member (waiter-queue bounds) —
// but any member may serve questions from any session in their tenant.
//
// Durability is per session: with TenantConfig.StoreDir set, every
// session owns a WAL store under <dir>/shard-<i>/<session-id>/, and
// opening the tenant again re-attaches every recorded session — primed
// with its recovered answers, bound to its journaled query and plan
// fingerprint — so a killed server resumes every live session without
// re-asking a single answered question.
//
// The long-poll path has admission control: a global in-flight budget
// across the whole registry and a bounded parked-waiter queue per shard.
// When either is exhausted, Poll fails fast with ErrOverloaded (the HTTP
// layer maps it to 429 + Retry-After) instead of queueing unboundedly.
// Everything is instrumented through internal/obs with per-tenant and
// per-shard labels: sessions live, waiters queued, sheds, and the
// question-dispatch latency histogram with its p99 gauge.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oassis/internal/core"
	"oassis/internal/obs"
	"oassis/internal/plan"
	"oassis/internal/store"
)

// Typed serving-tier errors. The HTTP layer matches them with errors.Is
// and maps them to status codes: ErrOverloaded → 429 (with Retry-After),
// ErrUnknownTenant / ErrUnknownSession / ErrUnknownMember → 404.
var (
	// ErrOverloaded reports that the serving tier shed the request: the
	// global long-poll budget or the member's per-shard waiter queue is
	// full. The request was not queued; retry after a short backoff.
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrUnknownTenant reports a tenant name the registry does not host.
	ErrUnknownTenant = errors.New("serve: unknown tenant")
	// ErrUnknownSession reports a session ID the tenant does not host.
	ErrUnknownSession = errors.New("serve: unknown session")
	// ErrUnknownMember reports a member that has not joined the tenant.
	ErrUnknownMember = errors.New("serve: unknown member")
	// ErrNoPending reports an answer to a question the member does not
	// hold: already answered, never issued, or — without a session ID —
	// held by several sessions.
	ErrNoPending = errors.New("serve: no pending question")
	// ErrClosed is returned by mutating calls on a closed registry.
	ErrClosed = errors.New("serve: registry closed")
)

// Config parameterizes a Registry.
type Config struct {
	// MaxInFlight is the global admission budget, counted in question
	// items: a Poll charges one, a PollPanel charges its item capacity.
	// 0 means the default (1024); further polls are shed with
	// ErrOverloaded.
	MaxInFlight int

	// MaxWaitersPerShard bounds the parked long-poll waiters charged to
	// each shard (a member's waits are charged to their home shard in
	// the roster partition). 0 means the default (256).
	MaxWaitersPerShard int

	// RetryAfter is the backoff hint reported alongside ErrOverloaded
	// (the HTTP layer's Retry-After header). 0 means 1 second.
	RetryAfter time.Duration

	// Metrics, when non-nil, receives the serving-tier instruments and
	// is shared with every session engine and session store. Purely
	// observational; a nil registry records into a private throwaway one
	// so the hot path never branches on instrumentation.
	Metrics *obs.Registry
}

const (
	defaultMaxInFlight = 1024
	defaultMaxWaiters  = 256
	defaultRetryAfter  = time.Second
)

// Registry hosts many named tenants behind one admission-control budget.
// All methods are safe for concurrent use.
type Registry struct {
	cfg      Config
	obs      *obs.Registry
	coreMet  *core.Metrics
	storeMet *store.Metrics
	planMet  *plan.CacheMetrics

	inflight atomic.Int64
	draining chan struct{}
	drainOne sync.Once

	mu      sync.Mutex
	tenants map[string]*Tenant
	closed  bool
}

// NewRegistry returns an empty registry. Add tenants with AddTenant,
// then serve traffic through Tenant handles; Drain wakes every parked
// long-poller at shutdown and Close flushes and closes every store.
func NewRegistry(cfg Config) *Registry {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	if cfg.MaxWaitersPerShard <= 0 {
		cfg.MaxWaitersPerShard = defaultMaxWaiters
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = defaultRetryAfter
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Registry{
		cfg:      cfg,
		obs:      reg,
		coreMet:  core.NewMetrics(reg),
		storeMet: store.NewMetrics(reg),
		planMet:  plan.NewCacheMetrics(reg),
		draining: make(chan struct{}),
		tenants:  make(map[string]*Tenant),
	}
}

// RetryAfter returns the backoff hint to report with ErrOverloaded.
func (r *Registry) RetryAfter() time.Duration { return r.cfg.RetryAfter }

// AddTenant creates (or, with a store directory, recovers) a tenant. A
// recovered tenant re-attaches every session recorded under its store
// directory: each one is recompiled from its journaled query text,
// checked against its journaled plan fingerprint (domain drift is
// refused, not replayed wrong), and primed with its recovered answers.
func (r *Registry) AddTenant(tc TenantConfig) (*Tenant, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := r.tenants[tc.Name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("serve: tenant %q already exists", tc.Name)
	}
	r.mu.Unlock()

	t, err := newTenant(r, tc)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		t.close()
		return nil, ErrClosed
	}
	if _, dup := r.tenants[tc.Name]; dup {
		t.close()
		return nil, fmt.Errorf("serve: tenant %q already exists", tc.Name)
	}
	r.tenants[tc.Name] = t
	return t, nil
}

// Tenant returns the named tenant, or ErrUnknownTenant.
func (r *Registry) Tenant(name string) (*Tenant, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownTenant, name)
	}
	return t, nil
}

// Tenants lists the hosted tenant names, sorted.
func (r *Registry) Tenants() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// InFlight returns the number of Poll calls currently in flight.
func (r *Registry) InFlight() int { return int(r.inflight.Load()) }

// Drain begins shutdown: every parked long-poll waiter wakes immediately
// with OutcomeShutdown (instead of riding out its timeout), and every
// later Poll returns OutcomeShutdown without parking. Stores stay open —
// in-flight answers still persist — until Close.
func (r *Registry) Drain() {
	r.drainOne.Do(func() { close(r.draining) })
}

// Draining reports whether Drain has been called.
func (r *Registry) Draining() bool {
	select {
	case <-r.draining:
		return true
	default:
		return false
	}
}

// Close drains the registry, stops every session engine, and flushes and
// closes every session store and tenant meta store. The first error is
// returned; closing twice is a no-op.
func (r *Registry) Close() error {
	r.Drain()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.mu.Unlock()
	var first error
	for _, t := range tenants {
		if err := t.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// acquire claims n items of the global in-flight budget; false means the
// registry is saturated and the caller must shed. The unit is a panel
// item, not a request: a single-question poll charges 1, a k-item panel
// poll charges k, so batched clients compete for the same budget as the
// equivalent single-question traffic instead of around it.
func (r *Registry) acquire(n int) bool {
	if r.inflight.Add(int64(n)) > int64(r.cfg.MaxInFlight) {
		r.inflight.Add(-int64(n))
		return false
	}
	return true
}

func (r *Registry) release(n int) { r.inflight.Add(-int64(n)) }

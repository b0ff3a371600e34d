package serve

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"oassis/internal/aggregate"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/panel"
	"oassis/internal/plan"
	"oassis/internal/store"
	"oassis/internal/vocab"
)

// TenantConfig describes one hosted tenant: a frozen domain, a member
// roster, and (optionally) a store directory for durability.
type TenantConfig struct {
	// Name is the tenant's registry key and its label on every metric.
	Name string

	// Voc and Onto are the tenant's frozen domain.
	Voc  *vocab.Vocabulary
	Onto *ontology.Ontology

	// Members is the number of roster slots ("p00", "p01", …) members
	// claim by joining. 0 means 8.
	Members int

	// Shards is the number of session shards. Sessions route to shards
	// by plan fingerprint; the roster partitions across shards round-
	// robin for waiter bookkeeping. 0 means 4.
	Shards int

	// StoreDir, when non-empty, makes the tenant durable: joins journal
	// to <dir>/meta/ and each session owns <dir>/shard-<i>/<session>/.
	// Opening a tenant over an existing directory recovers everything.
	StoreDir string

	// AnswersPerQuestion is the fixed-sample aggregation width per
	// question (the server's -k). 0 means 1.
	AnswersPerQuestion int

	// PanelSpeculation widens each session's speculation to up to this
	// many round-node successors per member
	// (core.Config.PanelSpeculation), so panel polls have items to
	// batch. 0 keeps the engine's default mirror-only speculation;
	// mined results are identical either way.
	PanelSpeculation int
}

// Tenant is one hosted domain with its roster, shards and sessions. All
// methods are safe for concurrent use.
type Tenant struct {
	name      string
	reg       *Registry
	domain    *core.Domain
	voc       *vocab.Vocabulary
	onto      *ontology.Ontology
	k         int
	panelSpec int
	storeDir  string
	shards    []*shard
	slots     []string       // roster member IDs, fixed at construction
	memberIdx map[string]int // member ID -> roster index
	obs       *tenantObs

	mu      sync.Mutex
	nextIdx int               // next unclaimed roster slot
	names   map[string]string // member ID -> display name (joined members)
	answers map[string]int    // live leaderboard (credited answers)
	meta    *store.Store      // join journal; nil without StoreDir
	notify  chan struct{}     // closed and replaced on any state change
	sessSeq int               // session ID allocator
	index   map[string]*Session
	live    int // sessions not yet finished
	opened  int // sessions ever attached (including recovered)
	closed  bool
}

// Outcome classifies what a Poll returned.
type Outcome int

const (
	// OutcomeQuestion means Question carries a question to answer.
	OutcomeQuestion Outcome = iota
	// OutcomeTimeout means the poll window elapsed with nothing to do.
	OutcomeTimeout
	// OutcomeDone means every session in the tenant has finished.
	OutcomeDone
	// OutcomeShutdown means the registry is draining; stop polling.
	OutcomeShutdown
)

// String names the outcome the way the metrics label it.
func (o Outcome) String() string {
	switch o {
	case OutcomeQuestion:
		return "question"
	case OutcomeTimeout:
		return "timeout"
	case OutcomeDone:
		return "done"
	default:
		return "shutdown"
	}
}

// Question is the serving-tier form of an open question: the engine
// question plus the addressing a multi-session client needs to answer it.
type Question struct {
	Tenant  string
	Session string
	// ID is the engine's question ID: unique within the session, not
	// across sessions, and never 0. Clients echo it back in Answer.
	ID          int
	Member      string
	Kind        core.QuestionKind
	Facts       fact.Set
	Choices     []fact.Set
	Terms       []vocab.Term
	Speculative bool
}

// PanelItem is one question inside a served panel: the wire question,
// its prior guess, and whether the client should render it as a one-tap
// confirmation (high-confidence prior) instead of an open question.
type PanelItem struct {
	Question
	Prior   crowd.Prior
	Confirm bool
}

// Panel is a member's batch of open questions from one session — what
// PollPanel hands out and AnswerPanel consumes. The engine's own blocked
// question leads; the rest are speculative, answered ahead of need.
type Panel struct {
	Tenant  string
	Session string
	Member  string
	Items   []PanelItem
}

func newTenant(r *Registry, tc TenantConfig) (*Tenant, error) {
	if tc.Name == "" {
		return nil, fmt.Errorf("serve: tenant name must not be empty")
	}
	if tc.Members <= 0 {
		tc.Members = 8
	}
	if tc.Shards <= 0 {
		tc.Shards = 4
	}
	if tc.AnswersPerQuestion <= 0 {
		tc.AnswersPerQuestion = 1
	}
	dom, err := core.NewDomain(tc.Voc, tc.Onto)
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %q: %w", tc.Name, err)
	}
	t := &Tenant{
		name:      tc.Name,
		reg:       r,
		domain:    dom,
		voc:       tc.Voc,
		onto:      tc.Onto,
		k:         tc.AnswersPerQuestion,
		panelSpec: tc.PanelSpeculation,
		storeDir:  tc.StoreDir,
		memberIdx: make(map[string]int, tc.Members),
		obs:       newTenantObs(r.obs, tc.Name),
		names:     make(map[string]string),
		answers:   make(map[string]int),
		notify:    make(chan struct{}),
		index:     make(map[string]*Session),
	}
	for i := 0; i < tc.Members; i++ {
		id := fmt.Sprintf("p%02d", i)
		t.slots = append(t.slots, id)
		t.memberIdx[id] = i
	}
	for i := 0; i < tc.Shards; i++ {
		t.shards = append(t.shards, &shard{
			idx:      i,
			t:        t,
			sessions: make(map[string]*Session),
			ready:    make(map[string][]*Session),
			obs:      newShardObs(r.obs, tc.Name, i),
		})
	}
	if tc.StoreDir != "" {
		if err := t.recover(); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

// recover re-attaches everything recorded under the tenant's store
// directory: the join journal restores the roster, and every session
// directory found under shard-*/ is reopened, recompiled from its
// journaled query text, fingerprint-checked, and primed with its
// recovered answers.
func (t *Tenant) recover() error {
	meta, metaRec, err := store.Open(filepath.Join(t.storeDir, "meta"),
		store.Options{Metrics: t.reg.storeMet})
	if err != nil {
		return fmt.Errorf("serve: tenant %q meta store: %w", t.name, err)
	}
	t.meta = meta
	for _, j := range metaRec.Joins {
		if t.nextIdx < len(t.slots) && t.slots[t.nextIdx] == j.Member {
			t.names[j.Member] = j.Note
			t.nextIdx++
		}
	}
	// Scan shard-* rather than just the current shard count, so sessions
	// recorded under a previous (larger) shard layout are not stranded;
	// each session re-routes by fingerprint regardless of which shard
	// directory holds its WAL.
	shardDirs, err := filepath.Glob(filepath.Join(t.storeDir, "shard-*"))
	if err != nil {
		return err
	}
	sort.Strings(shardDirs)
	for _, sd := range shardDirs {
		ids, err := store.Scan(sd)
		if err != nil {
			return fmt.Errorf("serve: tenant %q: scanning %s: %w", t.name, sd, err)
		}
		for _, id := range ids {
			st, rec, err := store.Open(filepath.Join(sd, id),
				store.Options{Metrics: t.reg.storeMet})
			if err != nil {
				return fmt.Errorf("serve: tenant %q session %s: %w", t.name, id, err)
			}
			if rec.Session == "" {
				// A directory that never journaled its query carries no
				// replayable state; leave it for its owner.
				_ = st.Close()
				continue
			}
			q, err := oassisql.Parse(rec.Session)
			if err != nil {
				_ = st.Close()
				return fmt.Errorf("serve: tenant %q session %s: journaled query: %w", t.name, id, err)
			}
			pl, err := t.compile(q)
			if err == nil {
				_, err = t.attach(id, q, pl, st, rec)
			}
			if err != nil {
				_ = st.Close()
				return fmt.Errorf("serve: tenant %q session %s: %w", t.name, id, err)
			}
			t.bumpSeq(id)
		}
	}
	return nil
}

// bumpSeq advances the session-ID allocator past a recovered ID so new
// sessions never collide with recovered directories.
func (t *Tenant) bumpSeq(id string) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "s"))
	if err != nil {
		return
	}
	t.mu.Lock()
	if n > t.sessSeq {
		t.sessSeq = n
	}
	t.mu.Unlock()
}

// compile resolves q through the tenant's plan cache. Every compile site
// in the tenant goes through here — shard routing (Open), session
// matching (EnsureSession) and attachment — so all of them agree on the
// plan's fingerprint, and recovery re-routes consistently.
func (t *Tenant) compile(q *oassisql.Query) (*plan.Plan, error) {
	pl, _, err := t.domain.CompileVariant(q, "", "", t.reg.planMet)
	return pl, err
}

// Name returns the tenant's registry key.
func (t *Tenant) Name() string { return t.name }

// Domain returns the tenant's shared read-only domain.
func (t *Tenant) Domain() *core.Domain { return t.domain }

// Voc returns the tenant's frozen vocabulary (for rendering questions).
func (t *Tenant) Voc() *vocab.Vocabulary { return t.voc }

// Roster returns the tenant's member slots in roster order.
func (t *Tenant) Roster() []string { return append([]string(nil), t.slots...) }

// Join claims the next roster slot for a display name and returns the
// member ID. Joining a full roster fails.
func (t *Tenant) Join(name string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return "", ErrClosed
	}
	if t.nextIdx >= len(t.slots) {
		return "", fmt.Errorf("serve: tenant %q crowd is full (%d members)", t.name, len(t.slots))
	}
	id := t.slots[t.nextIdx]
	t.nextIdx++
	t.names[id] = name
	if t.meta != nil {
		if err := t.meta.AppendJoin(id, name); err != nil {
			logf("serve: tenant %s join journal: %v", t.name, err)
		}
	}
	return id, nil
}

// MemberKnown reports whether the member has joined this tenant.
func (t *Tenant) MemberKnown(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.names[id]
	return ok
}

// Open compiles the query through the tenant's per-domain plan cache and
// attaches a new session for it on the shard its fingerprint routes to.
// With a store directory, the session is durable from its first question.
func (t *Tenant) Open(q *oassisql.Query) (*Session, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	t.sessSeq++
	id := fmt.Sprintf("s%04d", t.sessSeq)
	t.mu.Unlock()

	pl, err := t.compile(q)
	if err != nil {
		return nil, err
	}
	var st *store.Store
	var rec *store.Recovered
	if t.storeDir != "" {
		// The directory lands under the routing shard purely for
		// operator legibility; recovery re-routes by fingerprint.
		shardIdx := plan.ShardIndex(pl.Fingerprint(), len(t.shards))
		dir := filepath.Join(t.storeDir, fmt.Sprintf("shard-%d", shardIdx), id)
		st, rec, err = store.Open(dir, store.Options{Metrics: t.reg.storeMet})
		if err != nil {
			return nil, err
		}
	}
	sess, err := t.attach(id, q, pl, st, rec)
	if err != nil && st != nil {
		_ = st.Close()
	}
	return sess, err
}

// EnsureSession returns an existing live session whose plan fingerprint
// matches the query, or opens a new one. The bool reports whether the
// session already existed — how a restarted boot query resumes instead
// of forking a duplicate session.
func (t *Tenant) EnsureSession(q *oassisql.Query) (*Session, bool, error) {
	pl, err := t.compile(q)
	if err != nil {
		return nil, false, err
	}
	fp := pl.Fingerprint()
	t.mu.Lock()
	ids := make([]string, 0, len(t.index))
	for id := range t.index {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if s := t.index[id]; s.plan.Fingerprint() == fp {
			t.mu.Unlock()
			return s, true, nil
		}
	}
	t.mu.Unlock()
	s, err := t.Open(q)
	return s, false, err
}

// attach builds the hosted session around q's compiled plan pl and
// registers it with its routing shard. st/rec may be nil (in-memory
// tenant).
func (t *Tenant) attach(id string, q *oassisql.Query, pl *plan.Plan, st *store.Store, rec *store.Recovered) (*Session, error) {
	sp := pl.NewSpace()
	sh := t.shards[plan.ShardIndex(pl.Fingerprint(), len(t.shards))]
	sess := &Session{
		id:    id,
		t:     t,
		sh:    sh,
		query: q,
		plan:  pl,
		sp:    sp,
	}
	cfg := core.Config{
		Space:            sp,
		Theta:            pl.Support,
		Agg:              aggregate.NewFixedSample(t.k),
		Metrics:          t.reg.coreMet,
		PanelSpeculation: t.panelSpec,
	}
	if st != nil {
		// Same binding discipline as a single-session server: a store
		// holds one query's answers, and the answers only replay into
		// the plan they were recorded under.
		// The plan's query text is q's canonical text, rendered once.
		if rec.Session != "" && rec.Session != pl.QueryText {
			return nil, fmt.Errorf("store is bound to a different query; use a fresh store directory")
		}
		if err := st.BindSession(pl.QueryText); err != nil {
			return nil, err
		}
		if rec.Plan != "" && rec.Plan != pl.Fingerprint() {
			return nil, fmt.Errorf("store was recorded under plan %s but the query now compiles to %s (domain drift); use a fresh store directory",
				rec.Plan, pl.Fingerprint())
		}
		if err := st.BindPlan(pl.Fingerprint()); err != nil {
			return nil, err
		}
		t.mu.Lock()
		for _, a := range rec.Answers {
			if a.Counted {
				t.answers[a.Member]++
			}
		}
		t.mu.Unlock()
		sess.st = st
		cfg.Store = st
		if len(rec.Answers) > 0 {
			cfg.Prime = rec.PrimeCache()
		}
	}
	sess.inner = core.NewSession(cfg, t.slots)

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		sess.inner.Close()
		return nil, ErrClosed
	}
	t.index[id] = sess
	t.opened++
	t.live++
	t.mu.Unlock()
	t.obs.opened.Inc()

	sh.mu.Lock()
	sh.sessions[id] = sess
	sh.obs.live.Inc()
	sess.refillLocked()
	sh.mu.Unlock()
	t.broadcast()
	return sess, nil
}

// Session returns the identified session, or ErrUnknownSession.
func (t *Tenant) Session(id string) (*Session, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.index[id]
	if !ok {
		return nil, fmt.Errorf("%w %q in tenant %q", ErrUnknownSession, id, t.name)
	}
	return s, nil
}

// Sessions lists the tenant's sessions sorted by ID.
func (t *Tenant) Sessions() []*Session {
	t.mu.Lock()
	out := make([]*Session, 0, len(t.index))
	for _, s := range t.index {
		out = append(out, s)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Retire detaches a session from serving: its open questions are
// withdrawn, its engine stops, and its store (if any) is flushed and
// closed. The store directory stays on disk, so a later tenant boot
// re-attaches the session where it left off.
func (t *Tenant) Retire(id string) error {
	t.mu.Lock()
	sess, ok := t.index[id]
	if ok {
		delete(t.index, id)
	}
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w %q in tenant %q", ErrUnknownSession, id, t.name)
	}
	sh := sess.sh
	sh.mu.Lock()
	delete(sh.sessions, id)
	wasFinished := sess.finished
	sess.finished = true
	sess.inner.Close()
	sh.mu.Unlock()
	if !wasFinished {
		sh.obs.live.Dec()
		t.sessionFinished()
	}
	t.obs.retired.Inc()
	if sess.st != nil {
		return sess.st.Close()
	}
	return nil
}

// Poll waits for a question this member can answer, from any session in
// the tenant: their longest-waiting session's first open question. It
// scans shards starting at the member's home shard, then parks on the
// tenant's notify channel; admission control may shed the call with
// ErrOverloaded before it parks. ctx cancellation (the client
// disconnecting) returns the context error.
func (t *Tenant) Poll(ctx context.Context, member string, timeout time.Duration) (Question, Outcome, error) {
	var q Question
	out, err := t.wait(ctx, member, 1, timeout, func(sh *shard) bool {
		return sh.take(member, func(sess *Session, open []core.Question) {
			q = sess.wireQuestion(open[0])
		})
	})
	return q, out, err
}

// PollPanel waits for a panel of questions this member can answer — up
// to max items cut from one session's open questions, the engine's own
// blocked question first, every item primed with its prior. It parks and
// wakes exactly like Poll, but admission control charges the panel's item
// capacity rather than one slot per request: a k-item panel competes for
// the same global budget as k single-question polls. max <= 0 means
// panel.DefaultSize.
func (t *Tenant) PollPanel(ctx context.Context, member string, max int, timeout time.Duration) (Panel, Outcome, error) {
	if max <= 0 {
		max = panel.DefaultSize
	}
	max = min(max, maxPanel)
	var p Panel
	out, err := t.wait(ctx, member, max, timeout, func(sh *shard) bool {
		return sh.take(member, func(sess *Session, open []core.Question) {
			p = sess.wirePanel(member, open, max)
		})
	})
	if out == OutcomeQuestion {
		t.obs.panelled(len(p.Items))
	}
	return p, out, err
}

// wait is the long-poll loop behind Poll and PollPanel. It charges slots
// against the global budget, then tries take on every shard, starting at
// the member's home shard, until one hands something out
// (OutcomeQuestion), every session has finished, the timeout elapses, the
// registry drains or ctx ends — parking on the tenant's notify channel in
// between.
func (t *Tenant) wait(ctx context.Context, member string, slots int, timeout time.Duration, take func(*shard) bool) (Outcome, error) {
	idx, joined := t.joinedIndex(member)
	if !joined {
		return OutcomeTimeout, fmt.Errorf("%w %q in tenant %q", ErrUnknownMember, member, t.name)
	}
	home := t.shards[idx%len(t.shards)]
	if !t.reg.acquire(slots) {
		home.obs.shedGlobal.Inc()
		t.obs.poll("shed")
		return OutcomeTimeout, fmt.Errorf("%w: global in-flight budget (%d) exhausted", ErrOverloaded, t.reg.cfg.MaxInFlight)
	}
	defer t.reg.release(slots)
	start := time.Now()
	// The deadline timer is armed only when the poll first parks, so a
	// poll that finds a question on its first scan never allocates one.
	var deadline *time.Timer
	for {
		if t.reg.Draining() {
			t.obs.poll("shutdown")
			return OutcomeShutdown, nil
		}
		// Snapshot notify before scanning: a refill between the scan and
		// the park then wakes us instead of being lost.
		notify := t.notifyChan()
		for i := range t.shards {
			if take(t.shards[(home.idx+i)%len(t.shards)]) {
				t.obs.dispatched(start)
				return OutcomeQuestion, nil
			}
		}
		if t.allDone() {
			t.obs.poll("done")
			return OutcomeDone, nil
		}
		if deadline == nil {
			left := timeout - time.Since(start)
			if left <= 0 {
				t.obs.poll("timeout")
				return OutcomeTimeout, nil
			}
			deadline = time.NewTimer(left)
			defer deadline.Stop()
		}
		if !home.park() {
			home.obs.shedShard.Inc()
			t.obs.poll("shed")
			return OutcomeTimeout, fmt.Errorf("%w: shard %d waiter queue (%d) full", ErrOverloaded, home.idx, t.reg.cfg.MaxWaitersPerShard)
		}
		select {
		case <-notify:
			home.unpark()
		case <-deadline.C:
			home.unpark()
			t.obs.poll("timeout")
			return OutcomeTimeout, nil
		case <-ctx.Done():
			home.unpark()
			t.obs.poll("disconnect")
			return OutcomeTimeout, ctx.Err()
		case <-t.reg.draining:
			home.unpark()
			t.obs.poll("shutdown")
			return OutcomeShutdown, nil
		}
	}
}

// holder returns the session a member's answer to question id goes to:
// the named session when sessionID is set, else the one session in the
// tenant that would take it. Question IDs are per session, so a
// sessionless ID that several sessions hold is refused, not guessed.
func (t *Tenant) holder(sessionID, member string, id int) (*Session, error) {
	if !t.MemberKnown(member) {
		return nil, fmt.Errorf("%w %q in tenant %q", ErrUnknownMember, member, t.name)
	}
	if sessionID != "" {
		return t.Session(sessionID)
	}
	var found *Session
	n := 0
	for _, sh := range t.shards {
		sh.mu.Lock()
		for _, sess := range sh.sessions {
			if sess.takesLocked(member, id) {
				found = sess
				n++
			}
		}
		sh.mu.Unlock()
	}
	switch n {
	case 0:
		return nil, fmt.Errorf("%w %d for member %q in tenant %q", ErrNoPending, id, member, t.name)
	case 1:
		return found, nil
	default:
		return nil, fmt.Errorf("%w %d for member %q in tenant %q: %d sessions hold that ID; send the session ID",
			ErrNoPending, id, member, t.name, n)
	}
}

// Answer submits a member's answer to question id: a one-item
// AnswerPanel. With a session ID it goes straight to that session; with
// an empty ID (legacy single-session clients) it goes to the one session
// holding (member, id).
func (t *Tenant) Answer(sessionID, member string, id int, ans core.Answer) error {
	_, err := t.AnswerPanel(sessionID, member, []PanelAnswer{{ID: id, Answer: ans}})
	return err
}

// AnswerPanel submits a member's answers to a panel. With a session ID
// the batch goes straight to that session; with an empty ID it goes to
// the one session holding the first item. Returns how many items were
// applied (already-consumed items are skipped).
func (t *Tenant) AnswerPanel(sessionID, member string, answers []PanelAnswer) (int, error) {
	if len(answers) == 0 {
		return 0, fmt.Errorf("%w: empty panel for member %q in tenant %q", ErrNoPending, member, t.name)
	}
	sess, err := t.holder(sessionID, member, answers[0].ID)
	if err != nil {
		return 0, err
	}
	return sess.SubmitPanel(member, answers)
}

// Leaderboard returns the credited-answer counts per joined member,
// sorted by answers (descending), then name.
func (t *Tenant) Leaderboard() []BoardRow {
	t.mu.Lock()
	rows := make([]BoardRow, 0, len(t.answers))
	for id, n := range t.answers {
		rows = append(rows, BoardRow{Member: id, Name: t.names[id], Answers: n})
	}
	t.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Answers != rows[j].Answers {
			return rows[i].Answers > rows[j].Answers
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// BoardRow is one leaderboard entry.
type BoardRow struct {
	Member  string
	Name    string
	Answers int
}

// joinedIndex returns the member's roster index if they have joined.
func (t *Tenant) joinedIndex(member string) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.names[member]; !ok {
		return 0, false
	}
	return t.memberIdx[member], true
}

// allDone reports whether the tenant has sessions and all have finished.
func (t *Tenant) allDone() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.opened > 0 && t.live == 0
}

// credit bumps the member's leaderboard count.
func (t *Tenant) credit(member string) {
	t.mu.Lock()
	t.answers[member]++
	t.mu.Unlock()
}

// sessionFinished is called (under the owning shard's lock) when a
// session stops being live.
func (t *Tenant) sessionFinished() {
	t.mu.Lock()
	t.live--
	t.broadcastLocked()
	t.mu.Unlock()
}

// broadcast wakes every parked long-poller in the tenant.
func (t *Tenant) broadcast() {
	t.mu.Lock()
	t.broadcastLocked()
	t.mu.Unlock()
}

func (t *Tenant) broadcastLocked() {
	close(t.notify)
	t.notify = make(chan struct{})
}

func (t *Tenant) notifyChan() chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.notify
}

// close stops every session engine and closes every store. Called from
// Registry.Close (or on a failed AddTenant).
func (t *Tenant) close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	sessions := make([]*Session, 0, len(t.index))
	for _, s := range t.index {
		sessions = append(sessions, s)
	}
	meta := t.meta
	t.mu.Unlock()
	var first error
	for _, s := range sessions {
		// A core.Session is not safe for concurrent use: close it under
		// the shard lock every other call on it takes.
		s.sh.mu.Lock()
		s.inner.Close()
		s.sh.mu.Unlock()
		if s.st != nil {
			if err := s.st.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if meta != nil {
		if err := meta.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

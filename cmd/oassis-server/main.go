// Command oassis-server runs the crowdsourcing platform of the paper's
// §6.2 as a web service: crowd members visit the page, join the question
// game, answer concrete questions about their habits on the five-level
// frequency scale, and earn bronze/silver/gold stars; a statistics page
// commends the top contributors, and the mined answers appear when the
// query completes.
//
// The server is multi-tenant: one process hosts many named tenants, each
// with its own ontology, member roster, and store directory, each running
// many concurrent query sessions sharded by plan fingerprint. Tenant
// routes live under /t/{tenant}/ (e.g. /t/acme/api/question); the bare
// /api/... routes alias the "default" tenant so single-tenant clients
// keep working. New sessions are opened at runtime with
// POST /t/{tenant}/api/query.
//
// With -tenants FILE the fleet is described by a JSON file (see
// tenantSpec); without it, the classic single-tenant flags (-query,
// -ontology, -slots, -k, -store) stand up the default tenant.
//
// With a store directory every crowd answer is persisted to a write-ahead
// log before the engine proceeds, and restarting the server against the
// same directory resumes every session: members keep their slots and no
// already-answered question is ever re-asked. SIGINT/SIGTERM shut the
// server down gracefully: parked long-pollers wake immediately with a
// "done" reply, in-flight requests drain, and every store is flushed.
//
// GET /metrics serves the instrument registry in the Prometheus text
// format (serving-tier gauges per tenant and shard, shed counters,
// dispatch p99, per-route request counters, store fsyncs) and
// GET /debug/vars serves the same snapshot via expvar. -debug
// additionally mounts net/http/pprof under /debug/pprof/.
//
// Usage:
//
//	oassis-server -query q.oql [-ontology o.ttl] [-addr :8080] [-slots 20] [-k 5] [-store DIR]
//	oassis-server -tenants fleet.json [-addr :8080]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"oassis/internal/oassisql"
	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/rdfio"
	"oassis/internal/serve"
	"oassis/internal/vocab"
)

// tenantSpec is one entry of the -tenants JSON file.
type tenantSpec struct {
	Name     string   `json:"name"`
	Ontology string   `json:"ontology,omitempty"` // Turtle file; empty = sample ontology
	Members  int      `json:"members,omitempty"`  // roster slots (default 8)
	Shards   int      `json:"shards,omitempty"`   // session shards (default 4)
	K        int      `json:"k,omitempty"`        // answers per question (default 1)
	Store    string   `json:"store,omitempty"`    // durable store directory
	Queries  []string `json:"queries,omitempty"`  // query files to open at boot
	Panel    int      `json:"panel,omitempty"`    // panel speculation width (0 = flag/default)
	Policy   string   `json:"policy,omitempty"`   // question-ordering policy (default paper-order)
}

// loadDomain loads a vocabulary+ontology pair from a Turtle file, or the
// built-in sample domain when the path is empty.
func loadDomain(path string) (*vocab.Vocabulary, *ontology.Ontology, error) {
	if path == "" {
		s := ontology.NewSample()
		return s.Voc, s.Onto, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return rdfio.Load(f)
}

// bootTenant adds one tenant to the registry and opens its boot queries.
// Recovered sessions are matched by fingerprint (EnsureSession), so a
// restart resumes rather than forks a session per boot query.
func bootTenant(reg *serve.Registry, spec tenantSpec) error {
	voc, onto, err := loadDomain(spec.Ontology)
	if err != nil {
		return fmt.Errorf("tenant %q: %w", spec.Name, err)
	}
	t, err := reg.AddTenant(serve.TenantConfig{
		Name:               spec.Name,
		Voc:                voc,
		Onto:               onto,
		Members:            spec.Members,
		Shards:             spec.Shards,
		StoreDir:           spec.Store,
		AnswersPerQuestion: spec.K,
		PanelSpeculation:   spec.Panel,
		Policy:             spec.Policy,
	})
	if err != nil {
		return err
	}
	if n := len(t.Sessions()); n > 0 {
		log.Printf("oassis-server: tenant %q recovered %d session(s) from %s", spec.Name, n, spec.Store)
	}
	for _, qf := range spec.Queries {
		qtext, err := os.ReadFile(qf)
		if err != nil {
			return fmt.Errorf("tenant %q: %w", spec.Name, err)
		}
		q, err := oassisql.Parse(string(qtext))
		if err != nil {
			return fmt.Errorf("tenant %q: %s: %w", spec.Name, qf, err)
		}
		sess, existed, err := t.EnsureSession(q)
		if err != nil {
			return fmt.Errorf("tenant %q: %s: %w", spec.Name, qf, err)
		}
		verb := "opened"
		if existed {
			verb = "resumed"
		}
		log.Printf("oassis-server: tenant %q %s session %s (plan %s, shard %d) for %s",
			spec.Name, verb, sess.ID(), sess.Plan().Fingerprint()[:19], sess.Shard(), qf)
	}
	return nil
}

func main() {
	var (
		tenantsFile = flag.String("tenants", "", "JSON tenant fleet file; overrides the single-tenant flags")
		queryFile   = flag.String("query", "", "OASSIS-QL query file for the default tenant")
		ontoFile    = flag.String("ontology", "", "ontology in Turtle subset (default: sample)")
		addr        = flag.String("addr", ":8080", "listen address")
		slots       = flag.Int("slots", 20, "maximum crowd members (default tenant)")
		shards      = flag.Int("shards", 4, "session shards per tenant (default tenant)")
		k           = flag.Int("k", 5, "answers required per question")
		storeDir    = flag.String("store", "", "durable answer-store directory: a restarted server resumes every session without re-asking answered questions")
		panelSpec   = flag.Int("panel", 8, "panel speculation width: extra questions surfaced per member so GET /api/panel batches them (0 disables; results are identical either way)")
		inflight    = flag.Int("max-inflight", 0, "global long-poll budget before 429s (0 = default 1024)")
		waiters     = flag.Int("max-waiters", 0, "parked long-pollers per shard before 429s (0 = default 256)")
		debug       = flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/ (profiling endpoints are opt-in)")
	)
	flag.Parse()

	var specs []tenantSpec
	if *tenantsFile != "" {
		raw, err := os.ReadFile(*tenantsFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := json.Unmarshal(raw, &specs); err != nil {
			log.Fatalf("oassis-server: %s: %v", *tenantsFile, err)
		}
		if len(specs) == 0 {
			log.Fatalf("oassis-server: %s describes no tenants", *tenantsFile)
		}
	} else {
		if *queryFile == "" {
			fmt.Fprintln(os.Stderr, "oassis-server: -query or -tenants is required")
			os.Exit(2)
		}
		specs = []tenantSpec{{
			Name:     defaultTenant,
			Ontology: *ontoFile,
			Members:  *slots,
			Shards:   *shards,
			K:        *k,
			Store:    *storeDir,
			Queries:  []string{*queryFile},
			Panel:    *panelSpec,
		}}
	}

	metrics := obs.NewRegistry()
	reg := serve.NewRegistry(serve.Config{
		MaxInFlight:        *inflight,
		MaxWaitersPerShard: *waiters,
		Metrics:            metrics,
	})
	for _, spec := range specs {
		if err := bootTenant(reg, spec); err != nil {
			log.Fatalf("oassis-server: %v", err)
		}
	}
	srv := newServer(reg, metrics, 20*time.Second)
	log.Printf("oassis-server: serving %d tenant(s) on %s: %v", len(specs), *addr, reg.Tenants())

	httpSrv := &http.Server{Addr: *addr, Handler: srv.routes(*debug)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Print("oassis-server: shutting down (waking long-pollers, draining requests, flushing stores)")
		srv.drain() // parked long-pollers wake with a "done" reply
		shutCtx, cancel := context.WithTimeout(context.Background(), 25*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("oassis-server: shutdown: %v", err)
		}
	}()
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	if err := srv.shutdown(); err != nil {
		log.Fatalf("oassis-server: store close: %v", err)
	}
	log.Print("oassis-server: stores flushed; bye")
}

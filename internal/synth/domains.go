package synth

import (
	"fmt"
	"math"
	"math/rand"

	"oassis/internal/assign"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/plan"
	"oassis/internal/vocab"
)

// DomainConfig describes one of the paper's three application domains
// (§6.3). The real experiments used a WordNet+YAGO+Foursquare ontology and
// 248 recruited crowd members; here the ontology is generated to the same
// assignment-DAG size and the members are simulated from planted habit
// patterns (see DESIGN.md, substitutions).
type DomainConfig struct {
	Name string
	// YTerms/XTerms are the exploration-domain sizes of the two mined
	// variables; their product is the DAG size without multiplicities.
	YTerms, XTerms int
	// YDepth/XDepth shape the term trees.
	YDepth, XDepth int
	// Members is the honest crowd size; Transactions the personal-history
	// length.
	Members, Transactions int
	// Patterns is the number of planted habit patterns; their popularity
	// decays geometrically so that threshold sweeps change the MSP count.
	Patterns int
	Seed     int64
	// Spammers is the number of spammer members NewCrowd appends after
	// the Members honest ones; Spam picks their kind.
	Spammers int
	Spam     SpamKind
}

// SpamKind selects the spammers of a generated crowd.
type SpamKind int

// Spammer kinds: random five-level answers, always-yes answers, or both
// (spammer i is random or always-yes by the parity of i + Seed, so a
// seed sweep sees each kind equally often even with one spammer).
const (
	SpamRandom SpamKind = iota
	SpamYes
	SpamMixed
)

// SpamHonest is the honest crowd size of SpamDomain.
const SpamHonest = 8

// SpamDomain generates one point of the spam sweep: a travel-shaped
// domain with SpamHonest honest members, `patterns` planted patterns and
// `spammers` spammers of kind, its crowd shuffled by seed so that
// spammers and honest members interleave differently per seed.
func SpamDomain(seed int64, patterns, spammers int, kind SpamKind) (*Domain, error) {
	d, err := GenerateDomain(DomainConfig{
		Name: "spam", YTerms: 30, XTerms: 10, YDepth: 4, XDepth: 3,
		Members: SpamHonest, Transactions: 12, Patterns: patterns, Seed: seed,
		Spammers: spammers, Spam: kind,
	})
	if err != nil {
		return nil, err
	}
	ms := d.Members
	rand.New(rand.NewSource(seed)).Shuffle(len(ms), func(a, b int) { ms[a], ms[b] = ms[b], ms[a] })
	return d, nil
}

// OpenWorldDomain generates one point of the early-stopping sweep: a
// travel-shaped taxonomy mined by 8 members whose histories share a pool
// of `patterns` planted patterns, so that popular patterns are sighted by
// several members (the repeat sightings a stop rule's coverage estimate
// feeds on).
func OpenWorldDomain(seed int64, patterns int) (*Domain, error) {
	return GenerateDomain(DomainConfig{
		Name: "openworld", YTerms: 30, XTerms: 10, YDepth: 4, XDepth: 3,
		Members: 8, Transactions: 12, Patterns: patterns, Seed: seed,
	})
}

// Domain is a generated domain workload.
type Domain struct {
	Cfg     DomainConfig
	Voc     *vocab.Vocabulary
	Onto    *ontology.Ontology // subClassOf facts mirroring the term trees
	Sp      *assign.Space
	Members []crowd.Member
	// PlantedY/PlantedX are the leaf pairs of the planted habit patterns,
	// most popular first.
	PlantedY, PlantedX []vocab.Term

	// Generation parts retained for NewCrowd: the doAt relation and the
	// leaf pools member histories draw from.
	doAt             vocab.Term
	yLeaves, xLeaves []vocab.Term
}

// The paper's three domains with their reported DAG sizes (4773, 10512 and
// 2307 nodes without multiplicities, §6.3) and the 248-member crowd.
var (
	Travel = DomainConfig{
		Name: "travel", YTerms: 111, XTerms: 43, YDepth: 7, XDepth: 5,
		Members: 248, Transactions: 20, Patterns: 30, Seed: 101,
	}
	Culinary = DomainConfig{
		Name: "culinary", YTerms: 144, XTerms: 73, YDepth: 7, XDepth: 6,
		Members: 248, Transactions: 20, Patterns: 40, Seed: 202,
	}
	SelfTreatment = DomainConfig{
		Name: "self-treatment", YTerms: 769, XTerms: 3, YDepth: 7, XDepth: 1,
		Members: 248, Transactions: 20, Patterns: 20, Seed: 303,
	}
)

// growTree adds a tree of `count` terms under a fresh root, returning the
// root, all terms, and the leaves. Level sizes roughly triple (ontologies
// like the paper's WordNet+YAGO hierarchy have small per-node branching,
// which is what keeps the crowd question counts low); any excess terms go
// to the deepest level.
func growTree(v *vocab.Vocabulary, prefix string, count, depth int, rng *rand.Rand) (vocab.Term, []vocab.Term, []vocab.Term) {
	root := v.MustAddElement(prefix + "_root")
	if depth < 1 {
		depth = 1
	}
	var all []vocab.Term
	prev := []vocab.Term{root}
	remaining := count
	size := 3
	for d := 1; d <= depth && remaining > 0; d++ {
		if d == depth || size > remaining {
			size = remaining
		}
		level := make([]vocab.Term, 0, size)
		for i := 0; i < size; i++ {
			t := v.MustAddElement(fmt.Sprintf("%s_%d_%d", prefix, d, i))
			v.MustAddOrder(prev[rng.Intn(len(prev))], t)
			level = append(level, t)
			all = append(all, t)
		}
		remaining -= size
		prev = level
		size *= 3
	}
	return root, all, prev
}

// GenerateDomain builds the ontology-shaped vocabulary, the mining space
// for the query `$y+ doAt $x` and the simulated crowd.
func GenerateDomain(cfg DomainConfig) (*Domain, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	v := vocab.New()
	doAt := v.MustAddRelation("doAt")
	subClassOf := v.MustAddRelation("subClassOf")
	yRoot, yAll, yLeaves := growTree(v, cfg.Name+"_y", cfg.YTerms-1, cfg.YDepth, rng)
	xRoot, xAll, xLeaves := growTree(v, cfg.Name+"_x", cfg.XTerms-1, cfg.XDepth, rng)
	// Mirror the order into an ontology document (subClassOf facts), so
	// the generated workload can be exported and reloaded.
	onto := ontology.New(v)
	for t := 0; t < v.Len(); t++ {
		term := vocab.Term(t)
		if v.KindOf(term) != vocab.Element {
			continue
		}
		for _, c := range v.Children(term) {
			if err := onto.Add(fact.Fact{S: c, R: subClassOf, O: term}); err != nil {
				return nil, err
			}
		}
	}
	if err := v.Freeze(); err != nil {
		return nil, err
	}
	if len(xLeaves) == 0 {
		xLeaves = []vocab.Term{xRoot}
	}

	q := &oassisql.Query{
		Select:  oassisql.SelectFactSets,
		Support: 0.2,
		Satisfying: []oassisql.Pattern{{
			S:     oassisql.Var("y"),
			SMult: oassisql.MultPlus,
			R:     oassisql.TermAtom("doAt"),
			O:     oassisql.Var("x"),
			OMult: oassisql.MultOne,
		}},
	}
	// Valid assignments: every class-or-instance pair below the roots, so
	// that the assignment DAG has exactly YTerms × XTerms nodes (the sizes
	// the paper reports per domain).
	var bindings []map[string]vocab.Term
	for _, y := range yAll {
		for _, x := range xAll {
			bindings = append(bindings, map[string]vocab.Term{"y": y, "x": x})
		}
	}
	anchors := map[string][]vocab.Term{"y": {yRoot}, "x": {xRoot}}
	sp, err := assign.NewSpace(v, q, bindings, anchors)
	if err != nil {
		return nil, err
	}

	// Plant habit patterns on leaf pairs with geometrically decaying
	// popularity, then synthesize member histories from them.
	d := &Domain{Cfg: cfg, Voc: v, Onto: onto, Sp: sp}
	used := map[[2]vocab.Term]bool{}
	for len(d.PlantedY) < cfg.Patterns {
		y := yLeaves[rng.Intn(len(yLeaves))]
		x := xLeaves[rng.Intn(len(xLeaves))]
		if used[[2]vocab.Term{y, x}] {
			continue
		}
		used[[2]vocab.Term{y, x}] = true
		d.PlantedY = append(d.PlantedY, y)
		d.PlantedX = append(d.PlantedX, x)
	}

	d.doAt = doAt
	d.yLeaves = yLeaves
	d.xLeaves = xLeaves
	d.Members = d.NewCrowd()
	return d, nil
}

// Plan compiles the generated workload into an immutable plan.Plan, so
// experiment grids share one compiled plan across cells: each cell
// materializes a private lattice with pl.NewSpace() and a private crowd
// with NewCrowd() instead of regenerating the whole domain. The support
// recorded in the plan is the base threshold; threshold-sweep cells
// override core.Config.Theta per run exactly as before.
func (d *Domain) Plan(support float64) (*plan.Plan, error) {
	fp := plan.DomainFingerprint(d.Voc, d.Onto)
	return plan.FromSpace("synth:"+d.Cfg.Name, support, false, fp, d.Sp)
}

// NewCrowd synthesizes a fresh simulated crowd for the domain. Every call
// returns members with the same histories and the same per-member RNG
// seeds (cfg.Seed + member index, independent of the domain generation
// stream), so plan-reusing experiment cells can pair one shared compiled
// plan with a private crowd and still be bit-identical to cells that
// regenerate the whole domain.
func (d *Domain) NewCrowd() []crowd.Member {
	cfg := d.Cfg
	members := make([]crowd.Member, 0, cfg.Members)
	for m := 0; m < cfg.Members; m++ {
		db := crowd.NewPersonalDB(d.Voc)
		mRng := rand.New(rand.NewSource(cfg.Seed + int64(m)*7919 + 1))
		// Each occasion revolves around one habit pattern, picked with
		// geometrically decaying popularity and per-member jitter;
		// occasionally a second pattern co-occurs (which is what produces
		// the multiplicity MSPs — real habits are mostly exclusive per
		// occasion, so pattern combinations are rarer than the patterns
		// themselves).
		pickPattern := func() int {
			for {
				k := mRng.Intn(len(d.PlantedY))
				pop := 0.9 * math.Pow(0.7, float64(k)) * (0.5 + mRng.Float64())
				if mRng.Float64() < pop {
					return k
				}
			}
		}
		for t := 0; t < cfg.Transactions; t++ {
			var tx fact.Set
			if mRng.Float64() < 0.85 {
				k := pickPattern()
				tx = append(tx, fact.Fact{S: d.PlantedY[k], R: d.doAt, O: d.PlantedX[k]})
				// Habits co-occur in correlated pairs (pattern 2i with
				// 2i+1, like biking with renting bikes): this is what
				// produces multiplicity MSPs, as in the paper's crowd
				// (up to 25 per query). Unrelated habits co-occur rarely.
				if partner := k ^ 1; partner < len(d.PlantedY) && mRng.Float64() < 0.6 {
					tx = append(tx, fact.Fact{S: d.PlantedY[partner], R: d.doAt, O: d.PlantedX[partner]})
				} else if mRng.Float64() < 0.08 {
					k2 := pickPattern()
					tx = append(tx, fact.Fact{S: d.PlantedY[k2], R: d.doAt, O: d.PlantedX[k2]})
				}
			} else {
				// A noise occasion: a random rare activity.
				tx = append(tx, fact.Fact{
					S: d.yLeaves[mRng.Intn(len(d.yLeaves))],
					R: d.doAt,
					O: d.xLeaves[mRng.Intn(len(d.xLeaves))],
				})
			}
			db.Add(tx.Canon())
		}
		members = append(members, &crowd.SimMember{
			Name:           fmt.Sprintf("%s-m%03d", cfg.Name, m),
			DB:             db,
			Disc:           crowd.FiveLevel,
			SpecializeProb: 0.5, // members accept half the offered specializations
			PruneProb:      0.3,
			Theta:          0.2,
			Rng:            mRng,
		})
	}
	for i := 0; i < cfg.Spammers; i++ {
		name := fmt.Sprintf("%s-s%03d", cfg.Name, i)
		kind := cfg.Spam
		if kind == SpamMixed {
			kind = SpamKind((int64(i) + cfg.Seed) & 1)
		}
		if kind == SpamYes {
			members = append(members, &crowd.YesSpammer{Name: name})
		} else {
			members = append(members, &crowd.RandomSpammer{Name: name, Seed: cfg.Seed + int64(i)*104729 + 2})
		}
	}
	return members
}

// DAGSize reports the domain's assignment-DAG size without multiplicities
// (|domain(y)| × |domain(x)|), the quantity the paper reports per domain.
func (d *Domain) DAGSize() int {
	return d.Sp.DomainSize(0) * d.Sp.DomainSize(1)
}

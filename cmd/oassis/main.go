// Command oassis evaluates an OASSIS-QL query against an ontology with a
// crowd: either a simulated crowd loaded from a histories file, or the
// interactive terminal crowd member (the paper's §6.2 crowdsourcing UI in
// TTY form: you answer the engine's questions yourself).
//
// Usage:
//
//	oassis -query q.oql [-ontology o.ttl] [-crowd histories.txt] [-k 5] [-interactive]
//
// Without -ontology the paper's Figure 1 sample ontology is used; without
// -crowd or -interactive, the paper's Table 3 members u1 and u2 answer.
//
// The histories file holds one member per paragraph: a first line `member
// NAME` followed by one transaction per line in the paper's notation
// ("Biking doAt Central Park. Falafel eatAt Maoz Veg"); blank lines and
// #-comments are ignored.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"oassis"
)

func main() {
	var (
		queryFile   = flag.String("query", "", "OASSIS-QL query file (required)")
		ontoFile    = flag.String("ontology", "", "ontology in Turtle subset (default: sample)")
		crowdFile   = flag.String("crowd", "", "crowd histories file (default: Table 3 members)")
		k           = flag.Int("k", 2, "answers required per question")
		interactive = flag.Bool("interactive", false, "answer the crowd questions yourself")
		all         = flag.Bool("stats", false, "print run statistics")
		seed        = flag.Int64("seed", 1, "random seed")
		storeDir    = flag.String("store", "", "durable answer-store directory: answers are persisted there and a rerun resumes without re-asking them")
	)
	flag.Parse()
	if *queryFile == "" {
		fmt.Fprintln(os.Stderr, "oassis: -query is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*queryFile, *ontoFile, *crowdFile, *storeDir, *k, *interactive, *all, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "oassis:", err)
		os.Exit(1)
	}
}

func run(queryFile, ontoFile, crowdFile, storeDir string, k int, interactive, stats bool, seed int64) error {
	qtext, err := os.ReadFile(queryFile)
	if err != nil {
		return err
	}
	q, err := oassis.ParseQuery(string(qtext))
	if err != nil {
		return err
	}

	var db *oassis.DB
	if ontoFile == "" {
		db = oassis.SampleDB()
	} else {
		f, err := os.Open(ontoFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if db, err = oassis.LoadOntology(f); err != nil {
			return err
		}
	}

	var members []oassis.Member
	switch {
	case interactive:
		members = []oassis.Member{newTTYMember(db)}
		if k > 1 {
			k = 1
		}
	case crowdFile != "":
		members, err = loadCrowd(db, crowdFile)
		if err != nil {
			return err
		}
	default:
		members, err = sampleCrowd(db)
		if err != nil {
			return err
		}
	}

	opts := []oassis.Option{
		oassis.WithAnswersPerQuestion(k),
		oassis.WithSeed(seed),
	}
	if storeDir != "" {
		st, err := oassis.OpenStore(storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		if n := st.RecoveredAnswers(); n > 0 {
			fmt.Printf("store: resuming with %d recovered answers from %s\n", n, storeDir)
		}
		opts = append(opts, oassis.WithStore(st))
	}

	res, err := oassis.Exec(db, q, members, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("Maximal significant patterns (support ≥ %g):\n", q.Support())
	if len(res.MSPs) == 0 {
		fmt.Println("  (none)")
	}
	for _, m := range res.MSPs {
		fmt.Printf("  • %s\n", m.Text)
	}
	if len(res.AllSignificant) > 0 {
		fmt.Println("All significant patterns:")
		for _, a := range res.AllSignificant {
			fmt.Printf("  - %s\n", oassis.FormatAnswer(a))
		}
	}
	if stats {
		s := res.Stats
		fmt.Printf("questions: %d (unique %d; concrete %d, specialization %d, none-of-these %d, pruning %d)\n",
			s.TotalQuestions, s.UniqueQuestions, s.Concrete, s.Specialization, s.NoneOfThese, s.PruningClicks)
		if s.PrimedAnswers > 0 {
			fmt.Printf("store: %d answers replayed from the store, %d asked live\n",
				s.PrimedAnswers, s.TotalQuestions-s.PrimedAnswers)
		}
	}
	return nil
}

// loadCrowd parses a histories file into simulated members.
func loadCrowd(db *oassis.DB, path string) ([]oassis.Member, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var members []oassis.Member
	var name string
	var txns []string
	flush := func() error {
		if name == "" {
			return nil
		}
		m, err := oassis.SimulatedMember(db, name, txns...)
		if err != nil {
			return fmt.Errorf("member %s: %w", name, err)
		}
		members = append(members, m)
		name, txns = "", nil
		return nil
	}
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "member "); ok {
			if err := flush(); err != nil {
				return nil, err
			}
			name = strings.TrimSpace(rest)
			continue
		}
		if name == "" {
			return nil, fmt.Errorf("%s:%d: transaction before any `member` line", path, ln)
		}
		txns = append(txns, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("%s: no members", path)
	}
	return members, nil
}

// sampleCrowd builds the Table 3 members over the sample ontology.
func sampleCrowd(db *oassis.DB) ([]oassis.Member, error) {
	u1, err := oassis.SimulatedMember(db, "u1",
		"Basketball doAt Central Park. Falafel eatAt Maoz Veg",
		"Feed a Monkey doAt Bronx Zoo. Pasta eatAt Pine",
		"Biking doAt Central Park. Rent Bikes doAt Boathouse. Falafel eatAt Maoz Veg",
		"Baseball doAt Central Park. Biking doAt Central Park. Rent Bikes doAt Boathouse. Falafel eatAt Maoz Veg",
		"Feed a Monkey doAt Bronx Zoo. Pasta eatAt Pine",
		"Feed a Monkey doAt Bronx Zoo",
	)
	if err != nil {
		return nil, err
	}
	u2, err := oassis.SimulatedMember(db, "u2",
		"Baseball doAt Central Park. Biking doAt Central Park. Rent Bikes doAt Boathouse. Falafel eatAt Maoz Veg",
		"Feed a Monkey doAt Bronx Zoo. Pasta eatAt Pine",
	)
	if err != nil {
		return nil, err
	}
	return []oassis.Member{u1, u2}, nil
}

// ttyMember asks the person at the terminal (the §6.2 UI, text form). The
// reader and writer are injectable for tests.
type ttyMember struct {
	db  *oassis.DB
	qn  *oassis.Questionnaire
	in  *bufio.Reader
	out io.Writer
}

func newTTYMember(db *oassis.DB) *ttyMember {
	return newTTYMemberIO(db, os.Stdin, os.Stdout)
}

func newTTYMemberIO(db *oassis.DB, in io.Reader, out io.Writer) *ttyMember {
	return &ttyMember{db: db, qn: oassis.NewQuestionnaire(db), in: bufio.NewReader(in), out: out}
}

func (m *ttyMember) ID() string { return "you" }

func (m *ttyMember) HowOften(facts []oassis.Triple) float64 {
	text, err := m.qn.Concrete(facts)
	if err != nil {
		text = fmt.Sprintf("How often: %v?", facts)
	}
	fmt.Fprintln(m.out)
	fmt.Fprintln(m.out, text)
	for i, s := range oassis.Scale() {
		fmt.Fprintf(m.out, "  [%d] %s\n", i, s)
	}
	for {
		fmt.Fprint(m.out, "answer> ")
		line, err := m.in.ReadString('\n')
		if err != nil {
			return 0
		}
		n, err := strconv.Atoi(strings.TrimSpace(line))
		if err == nil && n >= 0 && n < 5 {
			return float64(n) * 0.25
		}
		fmt.Fprintln(m.out, "please answer 0-4")
	}
}

func (m *ttyMember) Specialize(candidates [][]oassis.Triple) oassis.SpecializeResponse {
	fmt.Fprintln(m.out)
	fmt.Fprintln(m.out, "Can you be more specific? Pick what you do significantly often:")
	for i, c := range candidates {
		text, _ := m.qn.Concrete(c)
		fmt.Fprintf(m.out, "  [%d] %s\n", i, strings.TrimSuffix(strings.TrimPrefix(text, "How often do you "), "?"))
	}
	fmt.Fprintln(m.out, "  [n] none of these   [s] skip (ask me concretely)")
	for {
		fmt.Fprint(m.out, "choice> ")
		line, err := m.in.ReadString('\n')
		if err != nil {
			return oassis.DeclineSpecialization()
		}
		t := strings.TrimSpace(line)
		switch t {
		case "n":
			return oassis.NoneOfThese()
		case "s", "":
			return oassis.DeclineSpecialization()
		}
		if i, err := strconv.Atoi(t); err == nil && i >= 0 && i < len(candidates) {
			fmt.Fprint(m.out, "how often (0-4)> ")
			fl, _ := m.in.ReadString('\n')
			n, err := strconv.Atoi(strings.TrimSpace(fl))
			if err != nil || n < 0 || n > 4 {
				n = 2
			}
			return oassis.Choose(i, float64(n)*0.25)
		}
		fmt.Fprintln(m.out, "please choose an option")
	}
}

func (m *ttyMember) Irrelevant(terms []string) (string, bool) {
	return "", false
}

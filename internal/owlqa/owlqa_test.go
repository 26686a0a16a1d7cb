package owlqa

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/analysis"
	"repro/internal/chase"
	"repro/internal/pipeline"
)

func universityOntology() *Ontology {
	o := &Ontology{}
	o.Add(SubClassOf, "FullProfessor", "", "Professor")
	o.Add(SubClassOf, "Professor", "", "Faculty")
	o.Add(SubClassOf, "Faculty", "", "Person")
	o.Add(SubPropertyOf, "headOf", "", "worksFor")
	o.Add(SomeSubClassOf, "worksFor", "", "Person")          // domain
	o.Add(SomeInvSubClassOf, "worksFor", "", "Organization") // range
	o.Add(InverseOf, "teacherOf", "", "taughtBy")
	o.Add(SubClassOfSome, "Professor", "degreeFrom", "University") // ∃-axiom
	o.Add(TransitiveProperty, "subOrgOf")
	o.Add(DisjointClasses, "Person", "Organization")
	return o
}

func TestTranslationIsWarded(t *testing.T) {
	prog, err := universityOntology().Program("")
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.Analyze(prog)
	if !res.Warded {
		t.Fatalf("OWL 2 QL translation must be warded: %v", res.Violations)
	}
	st := analysis.ComputeStats(res, analysis.Condense(prog, nil))
	if st.ExistentialRules != 1 {
		t.Errorf("existential rules: %d", st.ExistentialRules)
	}
}

func TestEntailmentRegime(t *testing.T) {
	abox, err := ParseTurtleLike(`
		# the running university ABox
		ada a FullProfessor .
		ada headOf cs .
		cs subOrgOf uni .
		uni subOrgOf system .
		ada teacherOf logic .
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := universityOntology().Program(`
		person(X) -> q1(X).
		worksFor(X, Y) -> q2(X, Y).
		taughtBy(C, X) -> q3(C, X).
		subOrgOf(X, Z) -> q4(X, Z).
		degreeFrom(X, U), university(U) -> q5(X).
		@output("q1"). @output("q2"). @output("q3"). @output("q4"). @output("q5").
	`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := pipeline.New(prog, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background(), ABoxFacts(abox)); err != nil {
		t.Fatal(err)
	}
	check := func(pred, want string) {
		t.Helper()
		for _, f := range s.Output(pred) {
			if f.String() == want {
				return
			}
		}
		t.Errorf("missing entailment %s; got %v", want, s.Output(pred))
	}
	check("q1", "q1(ada)")       // FullProfessor ⊑⊑ Person
	check("q2", "q2(ada,cs)")    // headOf ⊑ worksFor
	check("q3", "q3(logic,ada)") // inverseOf
	check("q4", "q4(cs,system)") // transitive subOrgOf
	check("q5", "q5(ada)")       // ∃degreeFrom.University entailed
}

func TestDisjointnessViolation(t *testing.T) {
	prog, err := universityOntology().Program("")
	if err != nil {
		t.Fatal(err)
	}
	abox := ABoxFacts([]Triple{
		{S: "thing", P: "a", O: "Person"},
		{S: "thing", P: "a", O: "Organization"},
	})
	_, err = chase.Run(context.Background(), prog, abox, chase.Options{})
	if !errors.Is(err, admit.ErrInconsistent) {
		t.Fatalf("disjointness must fire: %v", err)
	}
}

func TestInverseBothDirections(t *testing.T) {
	o := (&Ontology{}).Add(InverseOf, "teacherOf", "", "taughtBy")
	prog, err := o.Program(`@output("teacherOf").`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := pipeline.New(prog, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background(), ABoxFacts([]Triple{{S: "logic", P: "taughtBy", O: "ada"}})); err != nil {
		t.Fatal(err)
	}
	if len(s.Output("teacherOf")) != 1 {
		t.Errorf("inverse must derive teacherOf: %v", s.Output("teacherOf"))
	}
}

func TestParseTurtleLikeErrors(t *testing.T) {
	if _, err := ParseTurtleLike("a b ."); err == nil {
		t.Error("two-field statement must error")
	}
	ts, err := ParseTurtleLike("  \n# only comments\n")
	if err != nil || len(ts) != 0 {
		t.Errorf("comments-only: %v %v", ts, err)
	}
}

// TestExample1HigherArity runs the introduction's Example 1: symmetric
// Spouse over quintuples — the reasoning "most modern ontology languages
// are not able to express" but Vadalog handles directly.
func TestExample1HigherArity(t *testing.T) {
	prog, err := (&Ontology{}).Program(Example1Spouse + `
		spouse(alice, bob, 2001, rome, 2010).
		@output("spouse").
	`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := pipeline.New(prog, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range s.Output("spouse") {
		if strings.HasPrefix(f.String(), "spouse(bob,alice,") {
			found = true
		}
	}
	if !found {
		t.Errorf("symmetric quintuple missing: %v", s.Output("spouse"))
	}
}

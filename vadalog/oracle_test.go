package vadalog

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/baseline"
	"repro/internal/gen/iwarded"
)

// TestExistentialFreeMatchesBulk is the differential oracle's plain-Datalog
// slice: on generated iWarded programs without existentials, whose joins
// are all ward-free joins of harmless positions, both engines must derive
// exactly the facts of baseline.BulkEngine, an independent semi-naive
// evaluator sharing no code with them past the parser — predicate by IDB
// predicate, fact for fact.
func TestExistentialFreeMatchesBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		joins := 1 + rng.Intn(4)
		cfg := iwarded.Config{
			Name:          fmt.Sprintf("plain%d", trial),
			Linear:        4 + rng.Intn(6),
			Join:          joins,
			LinearRec:     rng.Intn(3),
			JoinRec:       rng.Intn(joins + 1),
			JoinNoWard:    joins,
			FactsPerRel:   15,
			ComponentSize: 3,
			Seed:          int64(100 + trial),
		}
		g, err := iwarded.Generate(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prog := MustParse(g.Source)
		bulk, err := baseline.NewBulkEngine(prog)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := bulk.Run(g.Facts); err != nil {
			t.Fatalf("trial %d: bulk: %v", trial, err)
		}
		var preds []string
		for pred := range prog.IDBPreds() {
			preds = append(preds, pred)
		}
		sort.Strings(preds)
		derived := 0
		for _, engine := range []Engine{EnginePipeline, EngineChase} {
			sess := newSession(t, prog, &Options{Engine: engine})
			sess.Load(g.Facts...)
			if err := sess.Run(); err != nil {
				t.Fatalf("trial %d, %v: %v", trial, engine, err)
			}
			for _, pred := range preds {
				got, want := factStrings(sess.Output(pred)), factStrings(bulk.Facts(pred))
				if !slices.Equal(got, want) {
					t.Errorf("trial %d, %v: %s holds %d facts, the bulk engine %d\n got  %v\n want %v",
						trial, engine, pred, len(got), len(want), got, want)
				}
				derived += len(want)
			}
		}
		if derived == 0 {
			t.Errorf("trial %d derives nothing: the oracle compares empty relations", trial)
		}
	}
}

// factStrings renders facts sorted.
func factStrings(fs []Fact) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	sort.Strings(out)
	return out
}

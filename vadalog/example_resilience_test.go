package vadalog_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/vadalog"
)

// ExamplePartialResult: a run cut short by a resource bound — the
// derivation budget here, a context deadline just the same — returns a
// typed *PartialResult instead of discarding the work. The facts derived
// so far are readable immediately, and the session behind it resumes:
// raise the budget (or supply a fresh context) and Resume completes the
// fixpoint without re-deriving what the interrupted run already
// admitted.
func ExamplePartialResult() {
	prog := vadalog.MustParse(`
		edge(X,Y) -> path(X,Y).
		edge(X,Y), path(Y,Z) -> path(X,Z).
		@output("path").
	`)
	r, err := vadalog.Compile(prog, &vadalog.Options{MaxDerivations: 25})
	if err != nil {
		log.Fatal(err)
	}
	s := r.NewSession()
	for i := 0; i < 20; i++ {
		s.Load(vadalog.MakeFact("edge",
			vadalog.Str(fmt.Sprintf("n%d", i)), vadalog.Str(fmt.Sprintf("n%d", i+1))))
	}

	err = s.Run()
	var pr *vadalog.PartialResult
	if !errors.As(err, &pr) {
		log.Fatal(err)
	}
	fmt.Printf("budget hit: %v, complete: %v, partial facts: %v\n",
		errors.Is(err, vadalog.ErrBudget), pr.Quiesced(), len(pr.Output("path")) > 0)

	pr.Session().SetMaxDerivations(0) // back to the default cap
	if err := pr.Resume(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed: %d paths, complete: %v\n", len(s.Output("path")), s.Quiesced())
	// Output:
	// budget hit: true, complete: false, partial facts: true
	// resumed: 210 paths, complete: true
}

// outageDriver is a record manager whose cursor fails twice before every
// successful pull — a stand-in for a flaky network source. Wrapping the
// failure in TransientError is what opts it into the retry layer.
type outageDriver struct{ outages int }

type outageCursor struct {
	d     *outageDriver
	fails int
	done  bool
}

func (d *outageDriver) Open(ctx context.Context, b vadalog.SourceBinding) (vadalog.RecordCursor, error) {
	return &outageCursor{d: d}, nil
}

func (c *outageCursor) Next(ctx context.Context) ([][]vadalog.Value, error) {
	if c.fails < 2 {
		c.fails++
		c.d.outages++
		return nil, &vadalog.TransientError{Err: fmt.Errorf("connection reset")}
	}
	c.fails = 0
	if c.done {
		return nil, nil
	}
	c.done = true
	return [][]vadalog.Value{
		{vadalog.Str("a"), vadalog.Str("b")},
		{vadalog.Str("b"), vadalog.Str("c")},
	}, nil
}

func (c *outageCursor) Close() error { return nil }

// ExampleRetryPolicy: transient source failures are retried in place
// with capped exponential backoff. The failed pull consumed nothing, so
// a retry resumes at the exact row the outage struck — the run below
// survives two outages per pull without losing, re-reading or
// duplicating a single row.
func ExampleRetryPolicy() {
	d := &outageDriver{}
	opts := (&vadalog.Options{
		Retry: &vadalog.RetryPolicy{MaxAttempts: 4, BaseDelay: 1, MaxDelay: 1},
	}).RegisterDriver("flaky", d)
	prog := vadalog.MustParse(`
		edge(X,Y) -> path(X,Y).
		edge(X,Y), path(Y,Z) -> path(X,Z).
		@output("path").
		@bind("edge","flaky","remote").
		@post("path","orderBy",1,2).
	`)
	res, err := vadalog.MustCompile(prog, opts).Query(context.Background(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("outages survived: %d\n", d.outages)
	for _, f := range res.Output("path") {
		fmt.Println(f)
	}
	// Output:
	// outages survived: 4
	// path(a,b)
	// path(a,c)
	// path(b,c)
}

package core

import (
	"fmt"

	"repro/internal/ast"
)

// PanicError is a panic recovered on an engine's evaluation path,
// converted into a positioned, typed error: which engine crashed, the
// rule whose firing was on the stack (nil for crashes outside rule
// evaluation, e.g. during an EDB load), the recovered value and the
// goroutine stack at the point of recovery.
//
// A PanicError is the engines' resumable crash report: by the time one
// surfaces, the engine has rolled its work queue back to a consistent
// boundary (the chase requeues the whole delta batch, the pipeline
// rewinds the delta cursor of the crashed firing), so running the
// session again retries the work — idempotently, since admission skips
// duplicates — instead of silently dropping derivations.
type PanicError struct {
	// Engine names the evaluation machine that crashed ("chase",
	// "pipeline"), or "load" for a crash on the load path both engines
	// share (admit.Core's LoadProgramFacts, LoadChunk and LoadRows).
	Engine string
	// Rule is the rule whose firing panicked, nil outside rule evaluation.
	Rule *ast.Rule
	// Value is the recovered panic value.
	Value any
	// Stack is the crashed goroutine's stack at recovery.
	Stack []byte
}

// Error renders the crash with the rule's source position when one is on
// record.
func (e *PanicError) Error() string {
	if e.Rule == nil {
		return fmt.Sprintf("%s: panic recovered: %v", e.Engine, e.Value)
	}
	if e.Rule.Line > 0 {
		return fmt.Sprintf("%s: %d:%d: panic in rule %d: %v", e.Engine, e.Rule.Line, e.Rule.Col, e.Rule.ID, e.Value)
	}
	return fmt.Sprintf("%s: panic in rule %d: %v", e.Engine, e.Rule.ID, e.Value)
}

// Unwrap exposes panic values that are themselves errors (injected
// faults carry *fault.Error), so errors.As sees through the recovery.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

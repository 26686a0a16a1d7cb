package vadalog

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/source"
)

// PanicError is a crash recovered on an engine's evaluation path and
// converted into a positioned, typed error: which engine crashed, the
// rule on the stack, the panic value and the goroutine stack. By the
// time one surfaces the engine has rolled back to a consistent boundary
// (the chase requeues the delta batch, the pipeline rewinds the crashed
// firing's cursor), so running the session again resumes the work.
type PanicError = core.PanicError

// IsTransient reports whether err is (or wraps) a transient source I/O
// error — the class Session retries automatically (see RetryPolicy). An
// error that is still transient after the retries were exhausted
// surfaces to the caller with this predicate intact.
func IsTransient(err error) bool { return source.IsTransient(err) }

// TransientError marks a source I/O failure as retryable: the built-in
// drivers classify network timeouts, interrupted reads and the like into
// it, and a custom Driver wraps its own retryable failures the same way
// (&TransientError{Err: err}) to opt them into the Session retry layer.
// IsTransient sees through any further wrapping.
type TransientError = source.Transient

// RetryPolicy tunes how a Session retries transient source I/O failures
// (see IsTransient) while reading @bind'ed inputs — up front under
// RunContext/Query, mid-stream under Facts/Stream. Retries happen at the
// cursor seam: an interrupted chunk pull consumed nothing, so a retry
// resumes exactly where the failure struck and re-reads no rows.
type RetryPolicy struct {
	// MaxAttempts bounds tries per operation (first try included).
	// 0 selects the default, 4; 1 disables retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 5ms);
	// each further retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 500ms).
	MaxDelay time.Duration
}

// defaultRetry is the policy a nil Options.Retry selects.
var defaultRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 500 * time.Millisecond}

// normalized fills zero fields with defaults.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaultRetry.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = defaultRetry.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = defaultRetry.MaxDelay
	}
	return p
}

// retryTransient runs op, retrying transient failures with capped
// exponential backoff. Backoff waits are context-aware: a cancelled or
// expired ctx aborts the wait and returns its error immediately.
// Non-transient errors, and transient ones that survive MaxAttempts,
// return as-is.
func (s *Session) retryTransient(ctx context.Context, op func() error) error {
	pol := defaultRetry
	if s.opts.Retry != nil {
		pol = s.opts.Retry.normalized()
	}
	delay := pol.BaseDelay
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || !IsTransient(err) || attempt >= pol.MaxAttempts {
			return err
		}
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
		if delay *= 2; delay > pol.MaxDelay {
			delay = pol.MaxDelay
		}
	}
}

// PartialResult is the typed error a Session returns when a run is cut
// short by a resource bound — the derivation budget (ErrBudget) or a
// context deadline — rather than a failure: the facts derived so far are
// valid chase output and remain readable, and the session is resumable
// (raise the budget with SetMaxDerivations or supply a fresh context,
// then Resume). Unwrap exposes the bounding error, so
// errors.Is(err, ErrBudget) and errors.Is(err, context.DeadlineExceeded)
// see through it.
//
// Cancellation (context.Canceled) is deliberately NOT a PartialResult:
// it is the caller's own signal and surfaces untouched.
type PartialResult struct {
	s *Session
	// Reason is the bound that cut the run short.
	Reason error
}

func (p *PartialResult) Error() string {
	return fmt.Sprintf("vadalog: partial result (%d facts so far, quiesced=%v): %v",
		p.Derivations(), p.Quiesced(), p.Reason)
}

// Unwrap exposes the bounding error to errors.Is/As.
func (p *PartialResult) Unwrap() error { return p.Reason }

// Output returns the facts of pred derived before the bound struck, with
// @post directives applied — the partial answer.
func (p *PartialResult) Output(pred string) []Fact { return p.s.Output(pred) }

// Derivations reports the facts admitted before the bound struck.
func (p *PartialResult) Derivations() int { return p.s.Derivations() }

// Quiesced reports whether the answer is actually complete — the engine
// reached its fixpoint and only a post-run step (writing bound outputs)
// was cut short. False means a resumed run may derive more.
func (p *PartialResult) Quiesced() bool { return p.s.Quiesced() }

// Session returns the resumable session behind the partial result.
func (p *PartialResult) Session() *Session { return p.s }

// Resume continues the interrupted run: re-fires what was rolled back,
// drains the engine and writes bound outputs. Raise the budget first
// (SetMaxDerivations) when the bound was ErrBudget, and pass a context
// with more headroom when it was a deadline — otherwise the same bound
// strikes again.
func (p *PartialResult) Resume(ctx context.Context) error { return p.s.RunContext(ctx) }

// wrapPartial turns a resource-bound error into a *PartialResult over s;
// every other error (cancellation included) passes through.
func (s *Session) wrapPartial(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrBudget) || errors.Is(err, context.DeadlineExceeded) {
		return &PartialResult{s: s, Reason: err}
	}
	return err
}

// SetMaxDerivations replaces the session's derivation budget — how a
// session resumes past an ErrBudget PartialResult. n <= 0 selects the
// default cap (admit.DefaultBudget, 10M). Only safe between runs.
func (s *Session) SetMaxDerivations(n int) {
	if n <= 0 {
		n = admit.DefaultBudget
	}
	s.core.SetBudget(n)
}

// Quiesced reports whether the session's reasoning is complete: every
// bound input fully read, no staged facts waiting, and the engine at
// its fixpoint. After an interrupted run it distinguishes "the answer is
// complete" from "resuming would derive more".
func (s *Session) Quiesced() bool {
	return s.ran && s.loaded && len(s.pending) == 0 && s.eng.Quiesced()
}

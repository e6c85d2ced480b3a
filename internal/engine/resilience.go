package engine

import (
	"context"
	"fmt"
)

// PanicError is a worker panic recovered at the Monte-Carlo worker
// boundary: a panicking strategy, arbiter or policy no longer takes down
// the process — the panic surfaces as this error on the one experiment it
// poisoned, the remaining workers drain cleanly, and the worker's arena
// (whose mid-replicate state is unrecoverable) is discarded and rebuilt
// on its next use.
type PanicError struct {
	// Run is the replicate index whose simulation panicked (-1 when the
	// panic struck arena construction rather than a replicate).
	Run int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: worker panic on run %d: %v", e.Run, e.Value)
}

// MonteCarloResume is Session.MonteCarlo continued from prefix: the
// outcomes of runs 0..len(prefix)-1 of an interrupted experiment, in run
// order, of which only WasteRatio, Utilization and Failures are read —
// the values the Monte-Carlo fold consumes, and what the campaign journal
// records per replicate. The prefix refolds through the same fold
// without reaching the OnResult hook or progress again, and dispatch
// starts at run len(prefix); when the stopping rule fires or the budget
// ends inside the prefix, the experiment finishes there. The CRN
// schedule makes run i a pure function of (cfg.Seed, i), so the result
// is bit-identical to the uninterrupted experiment. A non-empty prefix
// cannot restore per-run Results, so it refuses KeepResults.
func (s *Session) MonteCarloResume(ctx context.Context, cfg Config, runs int, prefix []Result) (MCResult, error) {
	opts := s.opts
	opts.prefix = prefix
	return s.monteCarlo(ctx, cfg, runs, opts, s.progressFrom(len(prefix), runs))
}

package experiments

import "cellport/internal/parallel"

// The experiment grid is embarrassingly parallel: every simulation owns a
// private sim.Engine, a private machine and a private workload, and all
// cross-run inputs (cost models, calibration tables) are immutable. The
// runner fans independent runs out over a bounded worker pool while
// keeping results addressed by index, so parallel execution returns
// byte-identical artifacts to the sequential path (guarded by
// TestParallelRunnerDeterminism).

// RunIndexed executes job(0..n-1) on up to `workers` goroutines and
// returns the results in index order. It is the experiment-harness entry
// point to parallel.RunIndexed (shared with the serving layer); see that
// package for the determinism contract, in particular that on multiple
// failures the lowest-index error is always the one returned.
func RunIndexed[T any](workers, n int, job func(i int) (T, error)) ([]T, error) {
	return parallel.RunIndexed(workers, n, job)
}

// workers resolves the configured parallelism for this experiment config.
func (c Config) workers() int { return c.Parallel }

// Package fib implements the BOTS Fibonacci benchmark: the n-th
// Fibonacci number by naive binary recursion, parallelized with one
// task per recursive call. As the paper notes, it is not a sensible
// way to compute Fibonacci numbers; it is the canonical stress test
// of a deep tree of very fine-grained tasks, where the entire
// challenge is task-management overhead. It ships with if-clause,
// manual and no-cut-off versions, tied and untied.
package fib

import (
	"fmt"
	"time"

	"bots/internal/core"
	"bots/internal/omp"
)

// Input sizes per class. Scaled from the paper's fib(50) medium so
// the no-cut-off version remains traceable (task count = 2·fib(n+1)−1).
var classN = map[core.Class]int{
	core.Test:   16,
	core.Small:  23,
	core.Medium: 27,
	core.Large:  31,
}

// DefaultCutoffDepth is the default depth for the if/manual cut-off
// versions, matching the grain BOTS uses for fib.
const DefaultCutoffDepth = 10

// capturedBytes is the environment copied into each task: the int
// argument and the result pointer.
const capturedBytes = 16

// Seq computes fib(n) by naive recursion, returning the value and
// the number of calls performed (the benchmark's work measure).
func Seq(n int) (value uint64, calls int64) {
	if n < 2 {
		return uint64(n), 1
	}
	a, ca := Seq(n - 1)
	b, cb := Seq(n - 2)
	return a + b, ca + cb + 1
}

// Iterative computes fib(n) in linear time; it is the benchmark's
// output-validation oracle.
func Iterative(n int) uint64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// par runs one task-parallel fib computation.
func par(c *omp.Context, n, depth, cutoff int, opts *core.TaskOpts, res *uint64) {
	c.AddWork(1)
	c.AddWrites(0, 1) // result returned through a shared (parent-stack) variable
	if n < 2 {
		*res = uint64(n)
		return
	}
	var a, b uint64
	spawn := func(m int, dst *uint64) {
		body := func(c *omp.Context) { par(c, m, depth+1, cutoff, opts, dst) }
		switch opts.Cutoff {
		case "manual":
			if depth < cutoff {
				c.Task(body, opts.Plain()...)
			} else {
				// Manual cut-off: plain recursion, no task at all.
				v, calls := Seq(m)
				c.AddWork(calls)
				c.AddWrites(0, calls)
				*dst = v
			}
		case "if":
			c.Task(body, opts.If(depth < cutoff)...)
		default: // "none"
			c.Task(body, opts.Plain()...)
		}
	}
	spawn(n-1, &a)
	spawn(n-2, &b)
	c.Taskwait()
	*res = a + b
}

func digest(n int, v uint64) string { return fmt.Sprintf("fib(%d)=%d", n, v) }

func seqRun(class core.Class) (*core.SeqResult, error) {
	n := classN[class]
	start := time.Now()
	v, calls := Seq(n)
	elapsed := time.Since(start)
	if v != Iterative(n) {
		return nil, fmt.Errorf("fib: sequential self-check failed for n=%d", n)
	}
	return &core.SeqResult{
		Digest:   digest(n, v),
		Work:     calls,
		Elapsed:  elapsed,
		MemBytes: int64(n) * 64, // recursion stack only
	}, nil
}

func parRun(cfg core.RunConfig) (*core.RunResult, error) {
	variant, err := core.ParseVersion(cfg.Version)
	if err != nil {
		return nil, err
	}
	n := classN[cfg.Class]
	cutoff := cfg.CutoffDepth
	if cutoff <= 0 {
		cutoff = DefaultCutoffDepth
	}
	var res uint64
	opts := core.NewTaskOpts(variant, capturedBytes)
	start := time.Now()
	st := omp.Parallel(cfg.Threads, func(c *omp.Context) {
		c.Single(func(c *omp.Context) {
			c.Task(func(c *omp.Context) {
				par(c, n, 0, cutoff, opts, &res)
			}, opts.Plain()...)
		})
	}, cfg.TeamOpts()...)
	elapsed := time.Since(start)
	if res != Iterative(n) {
		return nil, fmt.Errorf("fib: parallel result %d != %d for n=%d (version %s)",
			res, Iterative(n), n, cfg.Version)
	}
	return &core.RunResult{
		Digest:  digest(n, res),
		Stats:   st,
		Elapsed: elapsed,
	}, nil
}

func init() {
	core.Register(&core.Benchmark{
		Name:           "fib",
		Origin:         "-",
		Domain:         "Integer",
		Structure:      "At each node",
		TaskDirectives: 2,
		TasksInside:    "single",
		NestedTasks:    true,
		AppCutoff:      "depth-based",
		Versions:       core.CutoffVersions(),
		BestVersion:    "manual-tied",
		Profile:        core.Profile{MemFraction: 0.05, BandwidthCap: 16},
		Seq:            seqRun,
		Run:            parRun,
	})
}

package core

import "bots/internal/omp"

// TaskOpts is the task-clause set of one benchmark run: Captured (the
// Table II firstprivate accounting) plus Untied for the untied
// versions, with and without an if clause. It is built once per run,
// so a task directive passes a prebuilt slice instead of allocating
// an option slice and a Captured closure per task. The embedded
// Variant carries the run's cut-off choice to the task bodies.
type TaskOpts struct {
	Variant
	plain, ifTrue, ifFalse []omp.TaskOpt
}

// NewTaskOpts builds the clause set for tasks of variant v that
// capture the given number of bytes.
func NewTaskOpts(v Variant, captured int) *TaskOpts {
	plain := []omp.TaskOpt{omp.Captured(captured)}
	if v.Untied {
		plain = append(plain, omp.Untied())
	}
	with := func(o omp.TaskOpt) []omp.TaskOpt {
		return append(plain[:len(plain):len(plain)], o)
	}
	return &TaskOpts{Variant: v, plain: plain, ifTrue: with(omp.If(true)), ifFalse: with(omp.If(false))}
}

// Plain returns the clauses of a task without an if clause.
func (o *TaskOpts) Plain() []omp.TaskOpt { return o.plain }

// If returns the clauses of a task with an if(cond) clause.
func (o *TaskOpts) If(cond bool) []omp.TaskOpt {
	if cond {
		return o.ifTrue
	}
	return o.ifFalse
}

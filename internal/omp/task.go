package omp

import (
	"sync/atomic"

	"bots/internal/obs"
	"bots/internal/trace"
)

// task is the runtime representation of an OpenMP explicit task (or
// of a thread's implicit task, for depth 0).
type task struct {
	body    func(*Context)
	fut     futureRunner // non-nil for Spawn-created tasks; body is nil then
	parent  *task
	team    *Team
	creator *worker // worker that created (queued) the task; nil for implicit tasks

	depth    int32
	untied   bool
	final    bool
	priority int32

	// refs counts the task's own reference until it finishes, its
	// allocated children and its mentions in the parent's dependence
	// table; the struct is recycled at zero (pool.go).
	refs atomic.Int32

	// ctx is the task's reusable execution context: execute and the
	// undeferred path hand &ctx to the body, saving a per-execution
	// Context allocation (the pointer escapes through the indirect
	// body call, so a literal &Context{} would always heap-allocate).
	ctx Context

	// pending counts outstanding (created, not yet finished) child
	// tasks; taskwait blocks until it reaches zero. Parked taskwaits
	// block on the team's waitBell (see Team.wakeWaiters) — the task
	// itself carries no park state.
	pending atomic.Int64

	// group is the innermost enclosing taskgroup, inherited by
	// descendants; nil outside any taskgroup.
	group *taskgroup

	// node is the trace-recording node, nil when tracing is off.
	node *trace.Node

	// Dependence state (see depend.go). hasDeps marks tasks that
	// declared depend clauses — only they can appear in the parent's
	// dependence table and acquire successors. depsLeft counts
	// unfinished predecessors plus a creation guard; the task is
	// enqueued when it reaches zero. succHead is the lock-free
	// successor list: creation CAS-pushes successor nodes, and the
	// completion path swaps in a closed sentinel so no successor can
	// attach to a finished predecessor (see releaseSuccessors).
	hasDeps  bool
	depsLeft atomic.Int32
	succHead atomic.Pointer[succNode]

	// depTab is the dependence table for this task's *children*,
	// lazily created on the first dependent child; touched only by
	// the thread executing this task.
	depTab *depTracker
}

// futureRunner is the type-erased face of *Future[T]: the task struct
// cannot be generic, so Spawn hands its Future over as this interface
// and the execution paths call run in place of a body closure. This is
// what makes Spawn a one-allocation operation — the Future is the only
// per-spawn heap object (see future.go).
type futureRunner interface {
	runFuture(*Context)
}

// run invokes the task's work: the future runner when the task was
// created by Spawn, the plain body otherwise.
func (t *task) run(c *Context) {
	if t.fut != nil {
		t.fut.runFuture(c)
		return
	}
	t.body(c)
}

// TaskOpt configures a single task creation.
type TaskOpt func(*taskConfig)

type taskConfig struct {
	untied   bool
	ifClause bool
	final    bool
	captured int
	priority int32
	deps     []dep
	fut      futureRunner // set by Spawn only, not by any TaskOpt
}

// reset readies a (per-worker scratch) config for the next task
// directive, keeping the deps backing array.
func (cfg *taskConfig) reset() {
	cfg.untied = false
	cfg.ifClause = true
	cfg.final = false
	cfg.captured = 0
	cfg.priority = 0
	cfg.deps = cfg.deps[:0]
	cfg.fut = nil
}

// Untied marks the task untied: at scheduling points, a thread
// suspended in this task may execute or steal any ready task, not
// only descendants. (Mid-execution migration to another thread is not
// modeled; see DESIGN.md.)
func Untied() TaskOpt { return untiedOpt }

// If attaches an if clause to the task directive: when cond is false
// the task is undeferred and executes immediately on the encountering
// thread, but the runtime still performs task bookkeeping — exactly
// the distinction the BOTS paper draws between the if-clause cut-off
// (its Figure 1) and the manual cut-off (its Figure 2).
func If(cond bool) TaskOpt {
	if cond {
		return ifTrueOpt
	}
	return ifFalseOpt
}

// The clause values Untied and If hand out, preallocated so that
// building a task's option list allocates no closure for them.
var (
	untiedOpt  TaskOpt = func(c *taskConfig) { c.untied = true }
	ifTrueOpt  TaskOpt = func(c *taskConfig) { c.ifClause = true }
	ifFalseOpt TaskOpt = func(c *taskConfig) { c.ifClause = false }
)

// Final marks the task final: all of its descendants are undeferred.
func Final(cond bool) TaskOpt { return func(c *taskConfig) { c.final = cond } }

// Captured declares the number of bytes of captured environment
// (firstprivate data) copied into the task. It feeds the Table II
// accounting and the creation-cost model; it has no semantic effect.
func Captured(bytes int) TaskOpt { return func(c *taskConfig) { c.captured = bytes } }

// isDescendantOf reports whether t is a descendant of anc.
func (t *task) isDescendantOf(anc *task) bool {
	for p := t.parent; p != nil; p = p.parent {
		if p == anc {
			return true
		}
		if p.depth <= anc.depth {
			return false
		}
	}
	return false
}

// finish performs completion bookkeeping for t on worker w: release
// dependent successor tasks, recycle the dependence table of t's
// children, decrement the team's live-task count, the enclosing
// taskgroup's live count, and the parent's pending count, waking a
// parked taskwait if this was the last outstanding child. Finally t
// drops its own reference; the struct is recycled once no child or
// dependence table holds it anymore (pool.go).
//
// finish and finishInline are the only two places the team live-task
// count is decremented, and every task goes through exactly one of
// them exactly once — deferred tasks through execute's deferred
// finish (which runs once even when the body panics), undeferred
// tasks through the Task undeferred path's deferred finishInline.
// TestLiveTasksReturnToZero pins this invariant; recycling depends on
// it (a double decrement would also double-recycle a task).
func (t *task) finish(w *worker) {
	if fr := t.team.fr; fr != nil {
		fr.Record(w.id, obs.EvFinish, int64(t.depth))
	}
	t.releaseSuccessors(w)
	if t.depTab != nil {
		w.recycleDepTab(t.depTab)
		t.depTab = nil
	}
	// The live count drops before the completion signals below: anyone
	// released by this task's completion (a taskwait in the parent, a
	// persistent-team SubmitWait) must observe the team already drained
	// of this task. Unreleased dependent successors hold their own live
	// counts, so the early decrement cannot let a barrier (or a
	// persistent team's quiescence check) pass while work remains.
	t.team.liveTasks.Add(-1)
	wake := false
	if p := t.parent; p != nil {
		if p.pending.Add(-1) == 0 {
			wake = true // a taskwait may be parked in the parent
		}
	}
	if t.group != nil && t.group.leave() {
		wake = true // a Taskgroup drain may be parked on the group
		if s := t.group.sub; s != nil {
			// The group is a persistent-team submission and this was
			// its last live task: complete the submission (signal its
			// waiter or run its callback; see persistent.go).
			s.complete()
		}
	}
	if wake {
		t.team.wakeWaiters()
	}
	w.release(t)
}

// park blocks until a completion broadcast arrives or the task's
// pending count is observed at zero. The check-then-sleep is made
// race-free by the waitPark registration protocol (waitParkers is
// incremented before the re-check; see Team.wakeWaiters for the
// ordering argument), replacing the old per-task mutex + lazily
// allocated wake channel.
func (t *task) park() {
	t.team.waitPark(func() bool { return t.pending.Load() == 0 })
}

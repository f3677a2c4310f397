package omp

import "sync"

// Task recycling (DESIGN.md §6.1): a task struct returns to its
// freeing worker's free list as soon as nothing can reach it; the
// lists spill into (and refill from) a global sync.Pool that also
// carries structs across regions. task.refs counts the task's own
// reference, one per allocated child and one per mention in the
// parent's dependence table; the last release frees the task and
// cascades to its parent, so a queued task's ancestor chain (which
// isDescendantOf walks) stays allocated. A constrained thief may run
// its predicate on a task that was already claimed and freed, so free
// recycles only while Team.stealScans reads zero and otherwise parks
// the task, fields intact, on the worker's limbo list.

// maxWorkerTasks bounds each per-worker task list: beyond it, freed
// structs go to the global pool, and tasks a thief may still read are
// left to the GC.
const maxWorkerTasks = 512

// taskPool recycles task structs between workers and across parallel
// regions. Every task in the pool is reset.
var taskPool = sync.Pool{New: func() any { return new(task) }}

// depTabPool recycles per-parent dependence tables (with their entry
// free lists) across tasks and regions. Safe to Put mid-region: a
// parent's table is only ever touched by the thread executing the
// parent, and it is recycled when that parent finishes.
var depTabPool = sync.Pool{New: func() any {
	return &depTracker{entries: make(map[uintptr]*depEntry)}
}}

// newTask returns a reset task: from the worker's free list when it
// has one, else from the global pool.
func (w *worker) newTask() *task {
	if n := len(w.freeTasks) - 1; n >= 0 {
		t := w.freeTasks[n]
		w.freeTasks[n] = nil
		w.freeTasks = w.freeTasks[:n]
		return t
	}
	return taskPool.Get().(*task)
}

// release drops one reference on t. The last reference frees t, which
// releases the reference t held on its parent, and so on up the tree.
// A holder that observes refs == 1 holds the last reference: only a
// task's own creation and its executing body take references, and
// both hold one themselves, so the atomic decrement can be skipped.
func (w *worker) release(t *task) {
	for t.refs.Load() == 1 || t.refs.Add(-1) == 0 {
		p := t.parent
		w.free(t)
		if p.depth == 0 {
			return // implicit tasks are never freed
		}
		t = p
	}
}

// free recycles an unreferenced task, or parks it on the limbo list
// while a constrained thief may still read it (see the file comment).
// A zero load also recycles everything already in limbo: each of
// those tasks was freed, and therefore claimed, before this load.
func (w *worker) free(t *task) {
	if w.team.stealScans.Load() != 0 {
		if len(w.limbo) < maxWorkerTasks {
			w.limbo = append(w.limbo, t)
		}
		return
	}
	for i, l := range w.limbo {
		w.recycle(l)
		w.limbo[i] = nil
	}
	w.limbo = w.limbo[:0]
	w.recycle(t)
}

// recycle resets a task no goroutine can reach anymore and returns it
// to the worker's free list, or to the global pool when the list is
// full.
func (w *worker) recycle(t *task) {
	t.reset()
	if len(w.freeTasks) < maxWorkerTasks {
		w.freeTasks = append(w.freeTasks, t)
		return
	}
	taskPool.Put(t)
}

// maxWorkerFutGrave bounds the per-worker future-cell grave; beyond
// it, cells are simply dropped for the GC.
const maxWorkerFutGrave = 8192

// buryFuture records a Spawn-created cell for recycling at region (or
// submission) quiescence. Owner-only: Spawn runs on the creating
// worker. The cell is buried at creation, not completion, because
// unlike tasks the cell has no finish hook on the worker that would
// see it again — and the recycler skips cells that never completed.
func (w *worker) buryFuture(f futCell) {
	if len(w.futGrave) < maxWorkerFutGrave {
		w.futGrave = append(w.futGrave, f)
	}
}

// releaseTasks drains the worker's free and limbo lists into the
// global pool and recycles its future cells. Called from shutdown
// after every worker goroutine has joined, when no task of the region
// can be referenced anymore.
func (w *worker) releaseTasks() {
	for _, t := range w.limbo {
		t.reset()
		taskPool.Put(t)
	}
	for _, t := range w.freeTasks {
		taskPool.Put(t) // already reset
	}
	w.limbo, w.freeTasks = nil, nil
	w.recycleFutures()
}

// recycleFutures empties the worker's future-cell grave, recycling
// the consumed cells. Only at quiescence: no task runs, so no Wait can
// be in flight and the consumed flags are stable.
func (w *worker) recycleFutures() {
	for i, f := range w.futGrave {
		f.tryRecycle()
		w.futGrave[i] = nil
	}
	w.futGrave = w.futGrave[:0]
}

// reset zeroes a task for reuse. Atomics are stored through, so the
// struct is never copied. A finished task's succHead holds the closed
// sentinel; storing nil re-opens the list for the next life.
func (t *task) reset() {
	t.body = nil
	t.fut = nil
	t.parent = nil
	t.team = nil
	t.creator = nil
	t.depth = 0
	t.untied = false
	t.final = false
	t.priority = 0
	t.refs.Store(0)
	t.pending.Store(0)
	t.group = nil
	t.node = nil
	t.hasDeps = false
	t.depsLeft.Store(0)
	t.succHead.Store(nil)
	t.depTab = nil
	t.ctx = Context{}
}

// maxWorkerFreeSuccs bounds the per-worker successor-node free list
// (see depend.go's succNode; nodes flow from the creating worker's
// list into a predecessor's successor chain and back onto the
// releasing worker's list, so the lists balance in steady state).
const maxWorkerFreeSuccs = 256

// newSuccNode returns a successor-list node for task t, recycled from
// the worker's free list when possible.
func (w *worker) newSuccNode(t *task) *succNode {
	if n := len(w.freeSuccs) - 1; n >= 0 {
		sn := w.freeSuccs[n]
		w.freeSuccs[n] = nil
		w.freeSuccs = w.freeSuccs[:n]
		sn.t = t
		return sn
	}
	return &succNode{t: t}
}

// freeSuccNode clears and recycles a successor node onto the worker's
// free list. Safe mid-region: a node is freed only by the single
// goroutine that removed it from a successor list (or that lost the
// publish CAS and still owns it), so no stale reader can hold it.
func (w *worker) freeSuccNode(n *succNode) {
	n.t, n.next = nil, nil
	if len(w.freeSuccs) < maxWorkerFreeSuccs {
		w.freeSuccs = append(w.freeSuccs, n)
	}
}

// newDepTab returns a cleared dependence table for a parent task.
func newDepTab() *depTracker {
	return depTabPool.Get().(*depTracker)
}

// recycleDepTab clears a finished parent's dependence table, drops
// the references its entries hold on the parent's children, and
// returns the table to the pool. The entry structs are kept on the
// tracker's own free list, so a reused table allocates no entries
// either.
func (w *worker) recycleDepTab(tr *depTracker) {
	for a, e := range tr.entries {
		if e.lastOut != nil {
			w.release(e.lastOut)
			e.lastOut = nil
		}
		w.releaseReaders(e)
		tr.free = append(tr.free, e)
		delete(tr.entries, a)
	}
	depTabPool.Put(tr)
}

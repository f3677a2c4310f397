package omp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// witnessTree drives TestTiedConstraintWitness. Every task carries an
// ancestry label the test builds at creation — the ids of the task's
// ancestors, root first, then its own — so whether a task descends
// from a waiter is decided without the runtime's parent pointers,
// which are what a recycled ancestor would corrupt.
type witnessTree struct {
	maxDepth int
	nextID   atomic.Int32
	created  atomic.Int64
	ran      atomic.Int64
	bad      atomic.Int64
	firstBad sync.Once
	msg      string

	// waiting[tid] is the stack of tied tasks suspended in Taskwait on
	// thread tid, innermost last. Only thread tid touches its entry.
	waiting [][]int32
}

// descends reports whether the labelled task is a strict descendant
// of the task with id anc.
func descends(label []int32, anc int32) bool {
	for _, id := range label[:len(label)-1] {
		if id == anc {
			return true
		}
	}
	return false
}

// spawn creates one child of the task labelled parent. Every fifth
// child runs undeferred, so inline tasks sit in the ancestor chains
// of queued ones too.
func (wt *witnessTree) spawn(c *Context, parent []int32) {
	id := wt.nextID.Add(1)
	label := append(append(make([]int32, 0, len(parent)+1), parent...), id)
	wt.created.Add(1)
	body := func(c *Context) { wt.node(c, label) }
	if id%5 == 0 {
		c.Task(body, If(false))
		return
	}
	c.Task(body)
}

// node checks the scheduling constraint for the running task against
// every tied waiter suspended on this thread, then spawns two or three
// children. One task in three is an orphaning parent — it returns
// without a taskwait, so its children outlive it — and the rest wait
// tied.
func (wt *witnessTree) node(c *Context, label []int32) {
	wt.ran.Add(1)
	tid := c.ThreadNum()
	for _, w := range wt.waiting[tid] {
		if !descends(label, w) {
			wt.bad.Add(1)
			wt.firstBad.Do(func() {
				wt.msg = fmt.Sprintf("thread %d waiting in task %d ran task %v, not its descendant", tid, w, label)
			})
		}
	}
	if len(label) >= wt.maxDepth {
		return
	}
	self := label[len(label)-1]
	h := uint32(self) * 2654435761
	for k := 0; k < 2+int(h>>31); k++ {
		wt.spawn(c, label)
	}
	if h%3 == 0 {
		return
	}
	wt.waiting[tid] = append(wt.waiting[tid], self)
	c.Taskwait()
	wt.waiting[tid] = wt.waiting[tid][:len(wt.waiting[tid])-1]
}

// TestTiedConstraintWitness is the witness for in-region task
// recycling: a tree of well over 8,192 tasks on four workers, mixing
// tied waiters with orphaned children, so task structs are freed and
// reused while their descendants are still queued. Every task a tied
// waiter runs must descend from it according to the test's own
// labels; a recycled ancestor in the chain isDescendantOf walks would
// let a waiter run a foreign task (or refuse its own child). Run under
// -race as well: a struct reset while a thief still reads it is a
// data race.
func TestTiedConstraintWitness(t *testing.T) {
	const workers = 4
	for _, name := range Schedulers() {
		t.Run(name, func(t *testing.T) {
			for rep := 0; rep < 2; rep++ {
				wt := &witnessTree{maxDepth: 11, waiting: make([][]int32, workers)}
				Parallel(workers, func(c *Context) {
					c.Single(func(c *Context) { wt.spawn(c, nil) })
				}, WithScheduler(name))
				if n := wt.bad.Load(); n != 0 {
					t.Fatalf("%d constraint violations; first: %s", n, wt.msg)
				}
				created, ran := wt.created.Load(), wt.ran.Load()
				if ran != created {
					t.Fatalf("ran %d tasks, created %d", ran, created)
				}
				if created <= 8192 {
					t.Fatalf("tree has %d tasks, want more than 8192", created)
				}
			}
		})
	}
}

package omp

import "testing"

// Steady-state allocation regression tests for the spawn hot paths.
// After a warm-up region fills the recycling tiers (pool.go), a
// deferred or undeferred task costs no runtime allocation at all (the
// task struct is recycled and the execution Context is embedded in
// it), and a consumed Future spawn is likewise free (the cell comes
// from a typed pool and recycles at region end; see future.go).
// Thresholds leave headroom for a GC emptying the pool
// mid-measurement; the pre-recycling runtime sat at ~4 (deferred),
// ~3 (undeferred) and ~8 (future) allocations per task, so even the
// loosest bound here pins a >50% reduction.
//
// Measurements run on a one-thread team: AllocsPerRun pins
// GOMAXPROCS to 1, and a single worker keeps the counts deterministic
// (no stealing, no racing pool refills).

const allocTasks = 2000

func allocsPerTask(t *testing.T, body func(c *Context)) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() { Parallel(1, body) }) / allocTasks
}

func TestTaskAllocsDeferred(t *testing.T) {
	noop := func(c *Context) {}
	got := allocsPerTask(t, func(c *Context) {
		for i := 0; i < allocTasks; i++ {
			c.Task(noop)
			if i%64 == 63 {
				c.Taskwait()
			}
		}
		c.Taskwait()
	})
	if got > 1.0 {
		t.Errorf("deferred spawn path: %.3f allocs/task, want <= 1.0 (steady state is ~0)", got)
	}
}

func TestTaskAllocsUndeferred(t *testing.T) {
	noop := func(c *Context) {}
	got := allocsPerTask(t, func(c *Context) {
		for i := 0; i < allocTasks; i++ {
			c.Task(noop, If(false))
		}
	})
	if got > 1.0 {
		t.Errorf("undeferred spawn path: %.3f allocs/task, want <= 1.0 (steady state is ~0)", got)
	}
}

func TestFutureSpawnAllocs(t *testing.T) {
	fn := func(c *Context) int { return 1 }
	got := allocsPerTask(t, func(c *Context) {
		var fs [64]*Future[int]
		for i := 0; i < allocTasks; i++ {
			fs[i%64] = Spawn(c, fn)
			if i%64 == 63 {
				for _, f := range fs {
					f.Wait(c)
				}
			}
		}
		c.Taskwait()
	})
	// Since the typed cell pools (futPoolFor, future.go), a consumed
	// Future costs no per-spawn heap object at all: the cell recycles
	// at region end exactly like the task struct. Every future in the
	// loop is Wait()ed, so steady state is ~0 (the residue is the
	// per-region futGrave slice growth, amortized over allocTasks).
	// Under race the cell pool drops a random fraction of its traffic
	// (see raceEnabled), so only the order of magnitude is pinned.
	limit := 0.05
	if raceEnabled {
		limit = 0.6
	}
	if got > limit {
		t.Errorf("future spawn path: %.3f allocs/task, want <= %.2f (steady state is ~0)", got, limit)
	}
}

// TestDependenceAllocsSteadyState pins the dependence-table recycling:
// a parent resolving depend clauses reuses a pooled tracker and its
// entry structs, so a chain of dependent siblings costs a small
// constant per task (successor-list append), not a map + entry per
// parent.
func TestDependenceAllocsSteadyState(t *testing.T) {
	buf := new(int)
	body := func(c *Context) { *buf++ }
	got := allocsPerTask(t, func(c *Context) {
		for i := 0; i < allocTasks; i++ {
			c.Task(body, InOut(buf))
			if i%64 == 63 {
				c.Taskwait()
			}
		}
		c.Taskwait()
	})
	if got > 3.0 {
		t.Errorf("dependent spawn path: %.3f allocs/task, want <= 3.0", got)
	}
}

// deepTreeDepth gives TestTaskAllocsDeepTree 2^17-2 deferred tasks,
// far more than any fixed-size recycling list holds, so the test sees
// whether finished tasks recycle in-region or fall to the GC.
const deepTreeDepth = 16

// deepTreeNode is a static task body (it captures nothing, so the
// task directive allocates nothing on the application side): a full
// binary tree of deferred tasks with a tied taskwait at every node.
func deepTreeNode(c *Context) {
	if c.Depth() < deepTreeDepth {
		c.Task(deepTreeNode)
		c.Task(deepTreeNode)
		c.Taskwait()
	}
}

// TestTaskAllocsDeepTree pins in-region recycling on a tree much
// larger than the flat loops above: every finished task must return
// to a free list as soon as nothing references it, on a single worker
// and on a two-worker team where thieves finish other workers' tasks.
// Only runtime allocations count (the bodies are static), and the
// per-region team set-up is amortized over the whole tree.
func TestTaskAllocsDeepTree(t *testing.T) {
	const tasks = 1<<(deepTreeDepth+1) - 2
	for _, workers := range []int{1, 2} {
		region := func(c *Context) {
			c.Single(func(c *Context) { deepTreeNode(c) })
		}
		got := testing.AllocsPerRun(3, func() { Parallel(workers, region) }) / tasks
		if got > 0.05 {
			t.Errorf("%d workers: %.4f allocs/task over a %d-task tree, want <= 0.05", workers, got, tasks)
		}
	}
}

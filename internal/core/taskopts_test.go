package core

import (
	"testing"

	"bots/internal/omp"
)

// TestTaskOptsClauses checks the prebuilt clause sets through the
// runtime's own accounting: each set declares the captured bytes, and
// only If(false) makes the task undeferred.
func TestTaskOptsClauses(t *testing.T) {
	for _, untied := range []bool{false, true} {
		opts := NewTaskOpts(Variant{Untied: untied}, 24)
		st := omp.Parallel(1, func(c *omp.Context) {
			noop := func(*omp.Context) {}
			c.Task(noop, opts.Plain()...)
			c.Task(noop, opts.If(true)...)
			c.Task(noop, opts.If(false)...)
			c.Taskwait()
		})
		if st.TasksCreated != 2 || st.TasksUndeferred != 1 {
			t.Errorf("untied=%v: %d deferred, %d undeferred tasks, want 2 and 1", untied, st.TasksCreated, st.TasksUndeferred)
		}
		if st.CapturedBytes != 3*24 {
			t.Errorf("untied=%v: captured %d bytes, want %d", untied, st.CapturedBytes, 3*24)
		}
	}
}

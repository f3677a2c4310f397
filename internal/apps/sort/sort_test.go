package sort

import (
	gosort "sort"
	"testing"
	"testing/quick"

	"bots/internal/core"
	"bots/internal/inputs"
	"bots/internal/omp"
)

func TestInsertionSortSmall(t *testing.T) {
	a := []int32{5, 2, 9, 1, 5, 6, 0, -3}
	insertionSort(a)
	if !isSorted(a) {
		t.Fatalf("not sorted: %v", a)
	}
}

func TestSeqQuickMatchesStdlib(t *testing.T) {
	f := func(vals []int32) bool {
		mine := append([]int32(nil), vals...)
		ref := append([]int32(nil), vals...)
		seqQuick(mine)
		gosort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		if len(mine) != len(ref) {
			return false
		}
		for i := range mine {
			if mine[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqMergeProperty(t *testing.T) {
	f := func(x, y []int32) bool {
		gosort.Slice(x, func(i, j int) bool { return x[i] < x[j] })
		gosort.Slice(y, func(i, j int) bool { return y[i] < y[j] })
		dest := make([]int32, len(x)+len(y))
		seqMerge(x, y, dest)
		return isSorted(dest)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBinSplitLowerBound(t *testing.T) {
	a := []int32{1, 3, 3, 5, 7}
	cases := []struct {
		v    int32
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 3}, {7, 4}, {8, 5}}
	for _, tc := range cases {
		if got := binSplit(a, tc.v); got != tc.want {
			t.Errorf("binSplit(%v, %d) = %d, want %d", a, tc.v, got, tc.want)
		}
	}
}

func TestParMergeLargeArrays(t *testing.T) {
	a := inputs.Ints32(40000, 1)
	b := inputs.Ints32(30000, 2)
	seqQuick(a)
	seqQuick(b)
	dest := make([]int32, len(a)+len(b))
	omp.Parallel(4, func(c *omp.Context) {
		c.Single(func(c *omp.Context) {
			parMerge(c, a, b, dest, core.NewTaskOpts(core.Variant{}, capturedBytes).Plain())
		})
	})
	if !isSorted(dest) {
		t.Fatal("parallel merge output not sorted")
	}
}

func TestParallelVersionsVerify(t *testing.T) {
	b, err := core.Get("sort")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := b.Seq(core.Test)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range b.Versions {
		for _, threads := range []int{1, 3, 8} {
			res, err := b.Run(core.RunConfig{Class: core.Test, Version: version, Threads: threads})
			if err != nil {
				t.Fatalf("%s/%d: %v", version, threads, err)
			}
			if err := b.Check(seq, res); err != nil {
				t.Fatalf("%s/%d: %v", version, threads, err)
			}
			if res.Stats.TotalTasks() == 0 {
				t.Fatalf("%s/%d: no tasks created", version, threads)
			}
		}
	}
}

func TestDigestDetectsCorruption(t *testing.T) {
	a := inputs.Ints32(1000, 3)
	d1 := digest(a)
	a[500]++
	if digest(a) == d1 {
		t.Fatal("digest should change when the array changes")
	}
}

func TestSortedInputIsHandled(t *testing.T) {
	a := make([]int32, 5000)
	for i := range a {
		a[i] = int32(i)
	}
	seqQuick(a) // already sorted: exercises pivot pathology path
	if !isSorted(a) {
		t.Fatal("sorted input broken")
	}
	for i := range a {
		a[i] = int32(len(a) - i) // reverse order
	}
	seqQuick(a)
	if !isSorted(a) {
		t.Fatal("reverse input broken")
	}
}

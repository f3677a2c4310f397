// Package fft implements the BOTS FFT benchmark: the one-dimensional
// Fast Fourier Transform of a vector of n complex values with the
// Cooley–Tukey algorithm, a divide-and-conquer that recursively
// splits a DFT into two half-size DFTs; each division generates
// tasks, with the actual butterflies at the leaves. (The original
// Cilk code specializes many base-case codelets, which is why the
// paper counts 41 task directives; this port keeps the same task
// topology with a single generic recursion.)
package fft

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"time"

	"bots/internal/core"
	"bots/internal/inputs"
	"bots/internal/omp"
)

const inputSeed = 0xFF7C001

// leafSize is the sub-transform size at and below which the
// recursion runs sequentially (the leaf-task granularity).
const leafSize = 256

var classN = map[core.Class]int{
	core.Test:   1 << 12,
	core.Small:  1 << 16,
	core.Medium: 1 << 19,
	core.Large:  1 << 21,
}

const capturedBytes = 56 // two slice headers + stride/size ints

// seqFFT computes the DFT of in (viewed with the given stride) into
// out, recursively, and returns the work performed. It is both the
// sequential reference and the leaf case of the parallel version, so
// sequential and parallel runs produce bit-identical results.
func seqFFT(in, out []complex128, n, stride int) int64 {
	if n == 1 {
		out[0] = in[0]
		return 1
	}
	h := n / 2
	work := seqFFT(in, out[:h], n/2, stride*2) +
		seqFFT(in[stride:], out[h:], n/2, stride*2)
	return work + combine(out, n)
}

// combine performs the butterfly pass merging the two half-transforms
// stored in out's halves, in place. It returns the work performed.
func combine(out []complex128, n int) int64 {
	h := n / 2
	ang := -2 * math.Pi / float64(n)
	for k := 0; k < h; k++ {
		s, c := math.Sincos(ang * float64(k))
		w := complex(c, s)
		e, o := out[k], out[h+k]
		t := w * o
		out[k] = e + t
		out[h+k] = e - t
	}
	return int64(n)
}

// Seq computes the FFT of src into a fresh slice and returns it with
// the work performed.
func Seq(src []complex128) ([]complex128, int64) {
	out := make([]complex128, len(src))
	w := seqFFT(src, out, len(src), 1)
	return out, w
}

// Naive computes the DFT by direct summation; the O(n²) oracle used
// for output validation on small sizes.
func Naive(src []complex128) []complex128 {
	n := len(src)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			s, c := math.Sincos(ang)
			sum += src[j] * complex(c, s)
		}
		out[k] = sum
	}
	return out
}

// Inverse computes the inverse FFT (for round-trip verification).
func Inverse(src []complex128) []complex128 {
	n := len(src)
	conj := make([]complex128, n)
	for i, v := range src {
		conj[i] = complex(real(v), -imag(v))
	}
	out, _ := Seq(conj)
	inv := 1 / float64(n)
	for i, v := range out {
		out[i] = complex(real(v)*inv, -imag(v)*inv)
	}
	return out
}

// parFFT is the task-parallel recursion: each division spawns two
// half-size transforms; leaves run sequentially. opts is the run's
// task-clause set.
func parFFT(c *omp.Context, in, out []complex128, n, stride int, opts []omp.TaskOpt) {
	if n <= leafSize {
		c.AddWork(seqFFT(in, out, n, stride))
		c.AddWrites(int64(n), int64(n)) // butterfly writes: half local reuse, half shared output
		return
	}
	h := n / 2
	c.Task(func(c *omp.Context) { parFFT(c, in, out[:h], h, stride*2, opts) }, opts...)
	c.Task(func(c *omp.Context) { parFFT(c, in[stride:], out[h:], h, stride*2, opts) }, opts...)
	c.Taskwait()
	c.AddWork(combine(out, n))
	c.AddWrites(0, int64(n))
}

func digest(a []complex128) string {
	h := fnv.New64a()
	var buf [16]byte
	for _, v := range a {
		r := math.Float64bits(real(v))
		im := math.Float64bits(imag(v))
		for i := 0; i < 8; i++ {
			buf[i] = byte(r >> (8 * i))
			buf[8+i] = byte(im >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func seqRun(class core.Class) (*core.SeqResult, error) {
	n := classN[class]
	src := inputs.ComplexVector(n, inputSeed)
	start := time.Now()
	out, work := Seq(src)
	elapsed := time.Since(start)
	// Output validation: the round trip must recover the input.
	back := Inverse(out)
	for i := range src {
		if d := back[i] - src[i]; math.Abs(real(d)) > 1e-9 || math.Abs(imag(d)) > 1e-9 {
			return nil, fmt.Errorf("fft: inverse round-trip error at %d: %v", i, d)
		}
	}
	return &core.SeqResult{
		Digest:   digest(out),
		Work:     work,
		Elapsed:  elapsed,
		MemBytes: int64(n) * 32,
	}, nil
}

func parRun(cfg core.RunConfig) (*core.RunResult, error) {
	variant, err := core.ParseVersion(cfg.Version)
	if err != nil {
		return nil, err
	}
	n := classN[cfg.Class]
	if bits.OnesCount(uint(n)) != 1 {
		return nil, fmt.Errorf("fft: size %d is not a power of two", n)
	}
	src := inputs.ComplexVector(n, inputSeed)
	out := make([]complex128, n)
	opts := core.NewTaskOpts(variant, capturedBytes).Plain()
	start := time.Now()
	st := omp.Parallel(cfg.Threads, func(c *omp.Context) {
		c.Single(func(c *omp.Context) {
			parFFT(c, src, out, n, 1, opts)
		})
	}, cfg.TeamOpts()...)
	elapsed := time.Since(start)
	return &core.RunResult{Digest: digest(out), Stats: st, Elapsed: elapsed}, nil
}

func init() {
	core.Register(&core.Benchmark{
		Name:           "fft",
		Origin:         "Cilk",
		Domain:         "Spectral method",
		Structure:      "At leafs",
		TaskDirectives: 2,
		TasksInside:    "single",
		NestedTasks:    true,
		AppCutoff:      "none",
		Versions:       core.PlainVersions(),
		BestVersion:    "untied",
		Profile:        core.Profile{MemFraction: 0.65, BandwidthCap: 6},
		Seq:            seqRun,
		Run:            parRun,
	})
}

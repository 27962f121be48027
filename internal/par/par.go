// Package par is the offline learner's fan-out substrate: bounded parallel
// loops over an index space with ordered collection and deterministic
// error propagation.
//
// Every parallel stage of the offline learner (template learning, temporal
// calibration, rule mining) is an embarrassingly parallel loop over
// independent work items — details to tokenize, error codes, grid points,
// routers. Augmentation and grouping run on the caller's goroutine (a
// streamer shards grouping by router on its own engines, not through par).
// par gives those loops one shape:
//
//	err := par.ForEach(len(items), func(i int) error { ... })
//
// The worker count is Workers(), which is runtime.GOMAXPROCS(0): the
// GOMAXPROCS environment variable is how an operator bounds learning's CPU.
//
// Determinism contract: results are written by index into caller-owned
// slices (never appended in completion order) and the first error by
// *lowest index* wins, exactly as a serial loop would report it. With one
// worker the loop runs inline with no goroutines, so GOMAXPROCS=1 is
// byte-for-byte the serial path.
package par

import (
	"runtime"
	"sync"
)

// Workers is the fan-out of every loop in this package:
// runtime.GOMAXPROCS(0).
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n), fanning out across Workers()
// goroutines. It blocks until all calls return. When several calls fail,
// the error with the lowest index is returned — the same one a serial loop
// would have stopped at. With one worker the loop runs inline and stops at
// the first error.
func ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	ch := make(chan int, n)
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)

	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Chunks splits [0, n) into at most Workers() contiguous ranges and runs
// fn(lo, hi) for each — the right shape when per-item work is too small to
// schedule individually (e.g. tokenizing one detail for template
// learning).
func Chunks(n int, fn func(lo, hi int) error) error {
	ranges := Ranges(n, Workers())
	return ForEach(len(ranges), func(i int) error {
		return fn(ranges[i][0], ranges[i][1])
	})
}

// Map runs fn over [0, n) in parallel and collects the results in index
// order, so the output is identical at any worker count.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Ranges splits [0, n) into at most parts contiguous [lo, hi) ranges of
// near-equal size (empty input yields no ranges).
func Ranges(n, parts int) [][2]int {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	chunk := (n + parts - 1) / parts
	out := make([][2]int, 0, parts)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// Package par is the pipeline's worker-pool substrate: bounded fan-out
// over an index space with ordered collection and deterministic error
// propagation, instrumented through internal/obs.
//
// Every parallel stage of the offline learner (template learning, temporal
// calibration, rule mining) is an embarrassingly parallel loop over
// independent work items — messages to tokenize, error codes, grid points,
// routers. Augmentation and grouping run on the caller's goroutine (a
// streamer shards grouping by router on its own engines, not through par).
// par gives those loops one shape:
//
//	pool := par.New(workers) // workers <= 0 means GOMAXPROCS
//	err := pool.ForEach(len(items), func(i int) error { ... })
//
// Determinism contract: results are written by index into caller-owned
// slices (never appended in completion order) and the first error by
// *lowest index* wins, exactly as a serial loop would report it. A pool
// with one worker (or a nil pool) runs the loop inline with no goroutines,
// so "parallelism 1" is byte-for-byte the serial path.
//
// Instrumentation (optional, via Instrument): a workers gauge, a tasks
// counter, and a queue-wait histogram measuring how long submitted tasks
// sat before a worker picked them up — the saturation signal for sizing
// -j. An uninstrumented pool records nothing and skips the timestamps.
package par

import (
	"runtime"
	"sync"
	"time"

	"syslogdigest/internal/obs"
)

// Workers resolves a parallelism knob: n <= 0 means runtime.GOMAXPROCS(0),
// anything else is taken as given.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Pool is a bounded worker pool. The zero value and nil are usable and run
// everything inline (serial); construct with New for real fan-out. Pools
// are cheap: goroutines exist only for the duration of a ForEach call, so
// a Pool is just a worker budget plus optional metric handles and may be
// shared freely across concurrent calls.
type Pool struct {
	workers int

	workersG *obs.Gauge     // <prefix>.workers
	tasks    *obs.Counter   // <prefix>.tasks
	wait     *obs.Histogram // <prefix>.queue_wait_seconds
}

// New builds a pool with the given worker budget (<= 0 means GOMAXPROCS).
func New(workers int) *Pool {
	return &Pool{workers: Workers(workers)}
}

// Workers returns the pool's worker budget; nil and zero-value pools
// report 1 (inline execution).
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return 1
	}
	return p.workers
}

// Instrument publishes the pool's metrics into reg under prefix:
// <prefix>.workers (gauge), <prefix>.tasks (counter), and
// <prefix>.queue_wait_seconds (histogram). A nil registry or pool is a
// no-op.
func (p *Pool) Instrument(reg *obs.Registry, prefix string) {
	if p == nil || reg == nil {
		return
	}
	p.workersG = reg.Gauge(prefix + ".workers")
	p.tasks = reg.Counter(prefix + ".tasks")
	p.wait = reg.Histogram(prefix+".queue_wait_seconds", obs.LatencyBounds())
	p.workersG.Set(float64(p.Workers()))
}

// ForEach runs fn(i) for every i in [0, n), fanning out across the pool's
// workers. It blocks until all calls return. When several calls fail, the
// error with the lowest index is returned — the same one a serial loop
// would have stopped at. With one worker (or a nil pool) the loop runs
// inline and stops at the first error.
func (p *Pool) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if p != nil {
		p.tasks.Add(uint64(n))
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	type task struct {
		i   int
		enq time.Time
	}
	stamp := p != nil && p.wait != nil
	ch := make(chan task, n)
	for i := 0; i < n; i++ {
		t := task{i: i}
		if stamp {
			t.enq = time.Now()
		}
		ch <- t
	}
	close(ch)

	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				if stamp {
					p.wait.Observe(time.Since(t.enq).Seconds())
				}
				errs[t.i] = fn(t.i)
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
// schedule individually (e.g. tokenizing one message for template
// learning).
func (p *Pool) Chunks(n int, fn func(lo, hi int) error) error {
	ranges := Ranges(n, p.Workers())
	return p.ForEach(len(ranges), func(i int) error {
		return fn(ranges[i][0], ranges[i][1])
	})
}

// Map runs fn over [0, n) across the pool and collects the results in
// index order, so the output is identical at any worker count.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.ForEach(n, func(i int) error {
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

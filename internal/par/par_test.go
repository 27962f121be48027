package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// setProcs sets GOMAXPROCS, the worker count of every loop here, for the
// rest of the test and restores it afterwards.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestWorkers(t *testing.T) {
	setProcs(t, 3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d at GOMAXPROCS 3", got)
	}
}

func TestOneWorkerRunsInline(t *testing.T) {
	setProcs(t, 1)
	sum := 0 // unsynchronized: a second goroutine would race here
	if err := ForEach(5, func(i int) error { sum += i; return nil }); err != nil {
		t.Fatal(err)
	}
	if sum != 10 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, 16} {
		setProcs(t, w)
		const n = 57
		var hits [n]atomic.Int32
		if err := ForEach(n, func(i int) error { hits[i].Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d index %d hit %d times", w, i, hits[i].Load())
			}
		}
	}
}

func TestForEachLowestIndexErrorWins(t *testing.T) {
	for _, w := range []int{1, 4} {
		setProcs(t, w)
		err := ForEach(20, func(i int) error {
			if i%3 == 0 && i > 0 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 3" {
			t.Fatalf("workers=%d err = %v, want fail at 3", w, err)
		}
	}
}

func TestMapOrdered(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		setProcs(t, w)
		out, err := Map(33, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d out[%d] = %d", w, i, v)
			}
		}
	}
	setProcs(t, 4)
	if _, err := Map(5, func(i int) (int, error) {
		return 0, errors.New("boom")
	}); err == nil {
		t.Fatal("Map swallowed error")
	}
}

func TestChunksCoverExactly(t *testing.T) {
	for _, w := range []int{1, 3, 4, 16} {
		setProcs(t, w)
		for _, n := range []int{0, 1, 5, 16, 17, 1000} {
			var covered atomic.Int64
			var chunks atomic.Int32
			err := Chunks(n, func(lo, hi int) error {
				if lo >= hi || lo < 0 || hi > n {
					return fmt.Errorf("bad chunk [%d, %d)", lo, hi)
				}
				chunks.Add(1)
				covered.Add(int64(hi - lo))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if covered.Load() != int64(n) {
				t.Fatalf("workers=%d n=%d covered %d", w, n, covered.Load())
			}
			if int(chunks.Load()) > w {
				t.Fatalf("workers=%d n=%d ran %d chunks", w, n, chunks.Load())
			}
		}
	}
}

func TestRanges(t *testing.T) {
	if got := Ranges(0, 4); got != nil {
		t.Fatalf("Ranges(0,4) = %v", got)
	}
	// Contiguous, ordered, exactly covering [0, n).
	for _, tc := range []struct{ n, parts int }{{1, 1}, {10, 3}, {10, 10}, {10, 99}, {7, 2}} {
		rs := Ranges(tc.n, tc.parts)
		if len(rs) > tc.parts {
			t.Fatalf("Ranges(%d,%d): %d ranges", tc.n, tc.parts, len(rs))
		}
		want := 0
		for _, r := range rs {
			if r[0] != want || r[1] <= r[0] {
				t.Fatalf("Ranges(%d,%d) = %v not contiguous", tc.n, tc.parts, rs)
			}
			want = r[1]
		}
		if want != tc.n {
			t.Fatalf("Ranges(%d,%d) covers %d", tc.n, tc.parts, want)
		}
	}
}

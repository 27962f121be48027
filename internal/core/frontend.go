package core

import (
	"slices"
	"time"

	"syslogdigest/internal/grouping"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/syslogmsg"
)

// frontEnd is the streamer's reorder stage. Every arrival passes admit,
// which drops it when the engine has already moved past its time and
// buffers it otherwise; a buffered arrival leaves only through pop, the one
// release rule. It owns everything a snapshot records about arrivals (the
// Push count, the arrival counter, the newest arrival) and the five series
// that describe the buffer. What has been released is not kept here: it is
// the engine's Progress, which admit is handed.
type frontEnd struct {
	tolerance time.Duration // hold time behind the newest arrival; 0: none
	cap       int

	// The buffer is two sequences in (time, arrival) order: run holds, from
	// head on, the arrivals that came no earlier than the run's newest, so
	// an in-order feed only appends and advances head; late holds the
	// rest. pop takes the smaller of their heads.
	run  []bufItem
	head int
	late reorderHeap

	arrivals uint64 // tiebreak: preserves arrival order at equal times
	pushed   uint64 // every arrival, drops included (replay resume offset)

	// started and maxSeen record the newest arrival, the point the
	// tolerance is measured back from.
	started bool
	maxSeen time.Time

	mBuffered   *obs.Gauge   // stream.buffered (reorder buffer depth)
	mPushed     *obs.Counter // stream.pushed
	mReordered  *obs.Counter // stream.reordered
	mDropped    *obs.Counter // stream.dropped.late
	mDroppedOvf *obs.Counter // stream.dropped.overflow
}

// newFrontEnd applies the reorder options' defaults (see StreamerOptions).
func newFrontEnd(tolerance time.Duration, cap int) frontEnd {
	if tolerance == 0 {
		tolerance = DefaultReorderTolerance
	}
	if tolerance < 0 {
		tolerance = 0
	}
	if cap <= 0 {
		cap = DefaultReorderCap
	}
	return frontEnd{tolerance: tolerance, cap: cap}
}

// instrument publishes stream.{pushed,reordered,dropped.late,
// dropped.overflow,buffered} into reg (nil: uninstrumented).
func (f *frontEnd) instrument(reg *obs.Registry) {
	f.mBuffered = reg.Gauge("stream.buffered")
	f.mPushed = reg.Counter("stream.pushed")
	f.mReordered = reg.Counter("stream.reordered")
	f.mDropped = reg.Counter("stream.dropped.late")
	f.mDroppedOvf = reg.Counter("stream.dropped.overflow")
}

// admit counts one arrival and buffers it, unless it precedes released, what
// the engine has been fed: then it can only be dropped. A drop still within
// tolerance of the newest arrival counts as stream.dropped.overflow (the cap
// or a flush released its slot early: the buffer was undersized), any other
// as stream.dropped.late (the sender lagged more than the tolerance). admit
// reports whether m was buffered.
func (f *frontEnd) admit(m syslogmsg.Message, released grouping.Progress) bool {
	f.pushed++
	f.mPushed.Inc()
	if released.Behind(m.Time) {
		if f.tolerance > 0 && m.Time.After(f.maxSeen.Add(-f.tolerance)) {
			f.mDroppedOvf.Inc()
		} else {
			f.mDropped.Inc()
		}
		return false
	}
	if f.started && m.Time.Before(f.maxSeen) {
		f.mReordered.Inc()
	} else {
		f.maxSeen = m.Time
	}
	f.started = true
	f.buffer(bufItem{m: m, order: f.arrivals})
	f.arrivals++
	f.mBuffered.Set(float64(f.len()))
	return true
}

// buffer places it: at the run's end unless it precedes the run's newest,
// else in the heap.
func (f *frontEnd) buffer(it bufItem) {
	if f.head < len(f.run) && it.before(&f.run[len(f.run)-1]) {
		f.late.push(it)
		return
	}
	// Reuse the released prefix once it is at least half of a full slice,
	// so the run's slice stays within twice its peak length.
	if len(f.run) == cap(f.run) && 2*f.head >= len(f.run) {
		n := copy(f.run, f.run[f.head:])
		clear(f.run[n:])
		f.run, f.head = f.run[:n], 0
	}
	f.run = append(f.run, it)
}

// len is the number of buffered arrivals.
func (f *frontEnd) len() int { return len(f.run) - f.head + len(f.late) }

// pop is the release rule: it hands out the buffer's head while the head is
// no later than newest arrival − tolerance (no arrival within tolerance can
// precede it any more), while the buffer holds more than its cap, or, when
// flushing, until the buffer is empty. Heads leave in (time, arrival) order.
func (f *frontEnd) pop(flush bool) (bufItem, bool) {
	fromRun := f.head < len(f.run) && (len(f.late) == 0 || f.run[f.head].before(&f.late[0]))
	var next *bufItem
	switch {
	case fromRun:
		next = &f.run[f.head]
	case len(f.late) > 0:
		next = &f.late[0]
	default:
		return bufItem{}, false
	}
	if !flush && f.len() <= f.cap && next.m.Time.After(f.maxSeen.Add(-f.tolerance)) {
		return bufItem{}, false
	}
	it := *next
	if fromRun {
		f.run[f.head] = bufItem{}
		if f.head++; f.head == len(f.run) {
			f.run, f.head = f.run[:0], 0
		}
	} else {
		f.late.pop()
	}
	f.mBuffered.Set(float64(f.len()))
	return it, true
}

// inOrder lists the buffered arrivals in the order pop releases them.
func (f *frontEnd) inOrder() []bufItem {
	c := frontEnd{run: slices.Clone(f.run[f.head:]), late: slices.Clone(f.late)}
	out := make([]bufItem, 0, c.len())
	for it, ok := c.pop(true); ok; it, ok = c.pop(true) {
		out = append(out, it)
	}
	return out
}

// bufItem is one buffered arrival; order breaks timestamp ties so equal
// times release in arrival order.
type bufItem struct {
	m     syslogmsg.Message
	order uint64
}

// before orders buffered arrivals by (time, arrival order).
func (it *bufItem) before(o *bufItem) bool {
	if !it.m.Time.Equal(o.m.Time) {
		return it.m.Time.Before(o.m.Time)
	}
	return it.order < o.order
}

// reorderHeap is a min-heap on (time, arrival order) for the arrivals that
// precede the run's newest. Hand-rolled rather than container/heap: the
// concrete element type avoids the interface boxing allocation.
type reorderHeap []bufItem

func (h reorderHeap) less(i, j int) bool { return h[i].before(&h[j]) }

func (h *reorderHeap) push(it bufItem) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *reorderHeap) pop() bufItem {
	q := *h
	n := len(q) - 1
	it := q[0]
	q[0] = q[n]
	q[n] = bufItem{}
	q = q[:n]
	*h = q
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.less(l, small) {
			small = l
		}
		if r < n && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return it
}

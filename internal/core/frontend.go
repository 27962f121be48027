package core

import (
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

	buf      reorderHeap
	arrivals uint64 // heap tiebreak: preserves arrival order at equal times
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
	f.buf.push(bufItem{m: m, order: f.arrivals})
	f.arrivals++
	f.mBuffered.Set(float64(len(f.buf)))
	return true
}

// pop is the release rule: it hands out the buffer's head while the head is
// no later than newest arrival − tolerance (no arrival within tolerance can
// precede it any more), while the buffer holds more than its cap, or, when
// flushing, until the buffer is empty. Heads leave in (time, arrival) order.
func (f *frontEnd) pop(flush bool) (bufItem, bool) {
	if len(f.buf) == 0 ||
		!flush && len(f.buf) <= f.cap && f.buf[0].m.Time.After(f.maxSeen.Add(-f.tolerance)) {
		return bufItem{}, false
	}
	it := f.buf.pop()
	f.mBuffered.Set(float64(len(f.buf)))
	return it, true
}

// bufItem is one buffered arrival; order breaks timestamp ties so equal
// times release in arrival order.
type bufItem struct {
	m     syslogmsg.Message
	order uint64
}

// reorderHeap is a min-heap on (time, arrival order). Hand-rolled rather
// than container/heap: push/pop run once per message on the hot path, and
// the concrete element type avoids the interface boxing allocation.
type reorderHeap []bufItem

func (h reorderHeap) less(i, j int) bool {
	if !h[i].m.Time.Equal(h[j].m.Time) {
		return h[i].m.Time.Before(h[j].m.Time)
	}
	return h[i].order < h[j].order
}

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

package grouping

import (
	"fmt"
	"time"
)

// Progress is the one record of how far a feed has been read: the newest
// message time accepted, and whether any message has been. The Merger keeps
// the engine's — closure and provisional due times test against it, and a
// snapshot stores it once — and the sharded dispatcher keeps its own only
// because it runs ahead of the Merger on another goroutine. Nothing else
// stores progress: a RouterLocal needs none, the streamer's late-arrival
// check, a snapshot's key and the watermark gauges read an engine's, and no
// frame carries one.
type Progress struct {
	started bool
	last    time.Time
}

// Time is the newest accepted time (zero before the first).
func (p Progress) Time() time.Time { return p.last }

// Started reports whether any time has been accepted.
func (p Progress) Started() bool { return p.started }

// Behind reports whether t precedes the record: accepting a message at t
// would run time backwards.
func (p Progress) Behind(t time.Time) bool { return p.started && t.Before(p.last) }

// Check is the one refusal of a time regression, shared by every stage that
// keeps a record.
func (p Progress) Check(t time.Time) error {
	if p.Behind(t) {
		return fmt.Errorf("grouping: incremental requires nondecreasing timestamps (got %v after watermark %v)", t, p.last)
	}
	return nil
}

// Advance accepts t; the caller has Checked it.
func (p *Progress) Advance(t time.Time) { p.started, p.last = true, t }

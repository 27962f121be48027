package stream

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/temporal"
)

var errFakeShard = errors.New("fake shard fault")

// faultLink is a shardLink with no shard behind it: every message gets a
// join-free decision, so each becomes its own open group. From its
// failAt-th recv it injects one of the two ways a link can let the core
// down. gate holds the first recv back until the test has queued the
// batches it wants in flight.
type faultLink struct {
	gate     <-chan struct{}
	failAt   int
	hangUp   bool // true: the result stream is gone for good; false: one erred, half-computed result
	recvs    int
	closes   int
	sent     int
	itemsBuf []shardItem
}

func (l *faultLink) send(shardBatch) { l.sent++ }

func (l *faultLink) recv(sub []*grouping.Pending) shardResult {
	<-l.gate
	l.recvs++
	switch {
	case l.failAt > 0 && l.recvs >= l.failAt && l.hangUp:
		return shardResult{err: errFakeShard}
	case l.recvs == l.failAt:
		// The shard erred mid-sub-batch: the tail was never computed.
		return shardResult{items: l.itemsBuf[:len(sub)/2], err: errFakeShard}
	}
	return shardResult{items: l.itemsBuf[:len(sub)]}
}

func (l *faultLink) closed([]grouping.ClosedGroup) {}
func (l *faultLink) snapshot() (grouping.LocalPartState, error) {
	return grouping.LocalPartState{}, nil
}
func (l *faultLink) close() { l.closes++ }

// TestShardedLinkFaults drives the core over links that fail with batches
// in flight — a shard error halfway through a sub-batch, and a result
// stream that closes — and checks the contract the merge loop promises:
// the error surfaces on the next Observe, the failing batch and every
// later one are consumed without being applied, Drain and Close still
// return, and every pooled record is either in an open group or back in
// the pool.
func TestShardedLinkFaults(t *testing.T) {
	const workers, batchSize, batches = 2, 8, 3
	// Router names that alternate between the two shards, so every batch
	// gives each link a sub-batch of batchSize/2.
	var routers [workers][]string
	for i := 0; len(routers[0]) < 2 || len(routers[1]) < 2; i++ {
		r := fmt.Sprintf("r%d", i)
		k := shardOf(r, workers)
		routers[k] = append(routers[k], r)
	}
	for _, tc := range []struct {
		name   string
		hangUp bool
	}{{"shard error mid-batch", false}, {"result stream closed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dict, err := locdict.Build(nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Grouping: grouping.IncrementalConfig{Config: grouping.Config{
				Temporal: temporal.Params{Alpha: 0.05, Beta: 5, Smin: time.Second, Smax: 30 * time.Second},
				Stage:    grouping.StageTemporal,
			}}}
			gate := make(chan struct{})
			links := []*faultLink{
				{gate: gate, failAt: 2, hangUp: tc.hangUp, itemsBuf: make([]shardItem, batchSize)},
				{gate: gate, itemsBuf: make([]shardItem, batchSize)},
			}
			e, err := newSharded(dict, nil, cfg, workers, func(_ *ShardedEngine, k int, _ *grouping.RouterLocal) shardLink {
				return links[k]
			})
			if err != nil {
				t.Fatal(err)
			}
			e.SetBatchSize(batchSize)

			done := make(chan struct{})
			go func() {
				defer close(done)
				now := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
				for seq := 0; seq < batches*batchSize; seq++ {
					r := routers[seq%workers][(seq/workers)%2]
					if _, err := e.Observe(Message{Seq: seq, Time: now, Router: r, Template: seq,
						Loc: locdict.RouterLoc(r), Raw: uint64(seq)}); err != nil {
						t.Errorf("Observe %d before the fault was released: %v", seq, err)
						return
					}
				}
				// All three batches are queued behind the gate. Release them
				// and wait the merge stage out: batch 1 applies, batch 2 hits
				// the fault, batch 3 is consumed behind it.
				close(gate)
				if got := e.Pending(); got != batchSize {
					t.Errorf("open messages after the fault = %d, want the first batch's %d", got, batchSize)
				}
				if _, err := e.Observe(Message{Seq: 1 << 20, Time: now, Router: "r0"}); !errors.Is(err, errFakeShard) {
					t.Errorf("Observe after the fault: err = %v, want the link's error", err)
				}
				if evs := e.Drain(); len(evs) != 0 {
					t.Errorf("Drain on a failed engine closed %d groups, want none applied or closed", len(evs))
				}
				e.Close()
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("engine deadlocked after a link fault")
			}
			if t.Failed() {
				return
			}

			select {
			case <-e.mergeDone:
			default:
				t.Error("merge goroutine still running after Close")
			}
			for k, l := range links {
				if l.closes != 1 {
					t.Errorf("link %d closed %d times, want 1", k, l.closes)
				}
				if l.recvs != l.sent {
					t.Errorf("link %d: %d results consumed for %d sub-batches sent", k, l.recvs, l.sent)
				}
			}
			if live, open := e.shardable.Pool().Stats().Live, e.merger.Stats().OpenMessages; live != int64(open) {
				t.Errorf("pool gets − puts = %d, want the %d open messages", live, open)
			}
		})
	}
}

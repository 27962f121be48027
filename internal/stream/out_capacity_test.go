package stream

import (
	"fmt"
	"testing"
	"time"

	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/temporal"
)

// TestShardedOutCapacityStable is the regression guard for the merge
// stage's uncollected-events queue: e.out used to be handed off by
// reslicing (e.out = nil), so every closure burst allocated a fresh backing
// array. collect now copies out and clear-truncates, keeping one backing
// for the engine's lifetime — so across many identical closure bursts the
// queue's capacity must settle, not grow with the number of bursts.
func TestShardedOutCapacityStable(t *testing.T) {
	dict, err := locdict.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Grouping: grouping.IncrementalConfig{Config: grouping.Config{
		Temporal: temporal.Params{Alpha: 0.05, Beta: 5, Smin: time.Second, Smax: 30 * time.Second},
		Stage:    grouping.StageTemporal,
	}}}
	e, err := NewSharded(dict, nil, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const bursts = 50
	const perBurst = 64
	now := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	seq := 0
	collected := 0
	caps := make([]int, 0, bursts)
	for b := 0; b < bursts; b++ {
		// Every message is its own (router, template) stream, so each
		// burst opens perBurst singleton groups; Drain closes them all at
		// once — the worst-case emission burst for the queue.
		for i := 0; i < perBurst; i++ {
			r := fmt.Sprintf("r%d", i)
			evs, err := e.Observe(Message{
				Seq: seq, Time: now, Router: r, Template: i,
				Loc: locdict.RouterLoc(r), Raw: uint64(seq),
			})
			if err != nil {
				t.Fatal(err)
			}
			collected += len(evs)
			seq++
		}
		collected += len(e.Drain())
		now = now.Add(time.Minute)
		e.mu.Lock()
		caps = append(caps, cap(e.out))
		e.mu.Unlock()
	}
	if collected != bursts*perBurst {
		t.Fatalf("collected %d events, want %d", collected, bursts*perBurst)
	}
	// Let the first few bursts grow the backing to its working size; after
	// that the capacity must hold steady.
	settled := caps[4]
	if settled == 0 {
		t.Fatalf("queue capacity never grew: %v", caps[:8])
	}
	for b := 5; b < bursts; b++ {
		if caps[b] != settled {
			t.Fatalf("queue capacity grew after settling: burst 4 cap %d, burst %d cap %d (all: %v)",
				settled, b, caps[b], caps)
		}
	}
}

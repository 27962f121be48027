package core

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"syslogdigest/internal/gen"
	"syslogdigest/internal/obs"
)

// parallelTestCorpus generates a learning + online split for determinism
// checks; distinct seeds keep the halves independent like the paper's
// training/reporting split.
func parallelTestCorpus(t *testing.T, kind gen.DatasetKind) (*gen.Dataset, *gen.Dataset) {
	t.Helper()
	learn, err := gen.Generate(gen.Spec{
		Kind: kind, Routers: 16, Seed: 3,
		Duration: 36 * time.Hour, RateScale: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	online, err := gen.Generate(gen.Spec{
		Kind: kind, Routers: 16, Seed: 1003,
		Start:    learn.Messages[len(learn.Messages)-1].Time.Add(time.Hour),
		Duration: 12 * time.Hour, RateScale: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return learn, online
}

// TestLearnDeterministicAcrossParallelism is the tentpole's core guarantee:
// the knowledge base serializes to byte-identical JSON at any worker count,
// including the calibration sweep.
func TestLearnDeterministicAcrossParallelism(t *testing.T) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		t.Run(kind.String(), func(t *testing.T) {
			learn, _ := parallelTestCorpus(t, kind)
			var baseline []byte
			for _, j := range []int{1, 2, 8} {
				params := DefaultParams()
				params.Parallelism = j
				params.CalibrateTemporal = true
				kb, err := NewLearner(params).Learn(learn.Messages, learn.Net.Configs)
				if err != nil {
					t.Fatalf("j=%d: %v", j, err)
				}
				var buf bytes.Buffer
				if err := kb.Save(&buf); err != nil {
					t.Fatalf("j=%d: save: %v", j, err)
				}
				if baseline == nil {
					baseline = buf.Bytes()
					continue
				}
				if !bytes.Equal(baseline, buf.Bytes()) {
					t.Fatalf("j=%d knowledge base differs from serial (len %d vs %d)",
						j, buf.Len(), len(baseline))
				}
			}
		})
	}
}

// TestDigestDeterministicAcrossParallelism checks the online half: a
// knowledge base learned at any worker count digests the online split into
// the same events, augmented view and active rules, and publishes the same
// match counters. Augment runs on the caller's goroutine, so cache hits,
// misses and candidate scans are a function of the input, equal on every
// digest of it.
func TestDigestDeterministicAcrossParallelism(t *testing.T) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		t.Run(kind.String(), func(t *testing.T) {
			learn, online := parallelTestCorpus(t, kind)
			var (
				baseline *DigestResult
				counters map[string]uint64
			)
			for _, j := range []int{1, 2, 8} {
				params := DefaultParams()
				params.Parallelism = j
				kb, err := NewLearner(params).Learn(learn.Messages, learn.Net.Configs)
				if err != nil {
					t.Fatalf("j=%d: %v", j, err)
				}
				d, err := NewDigester(kb)
				if err != nil {
					t.Fatalf("j=%d: %v", j, err)
				}
				reg := obs.NewRegistry()
				d.Instrument(reg)
				res, err := d.Digest(online.Messages)
				if err != nil {
					t.Fatalf("j=%d: %v", j, err)
				}
				snap := reg.Snapshot()
				got := make(map[string]uint64, len(matchCounters))
				for _, name := range matchCounters {
					got[name] = snap.Counter(name)
				}
				if got["digest.match.cache.hits"]+got["digest.match.cache.misses"] != uint64(len(online.Messages)) {
					t.Fatalf("j=%d: cache hits + misses = %d, want one per message (%d)", j,
						got["digest.match.cache.hits"]+got["digest.match.cache.misses"], len(online.Messages))
				}
				if baseline == nil {
					baseline, counters = res, got
					continue
				}
				if !reflect.DeepEqual(baseline.Events, res.Events) {
					t.Fatalf("j=%d events differ from serial (%d vs %d events)",
						j, len(res.Events), len(baseline.Events))
				}
				if !reflect.DeepEqual(baseline.Messages, res.Messages) {
					t.Fatalf("j=%d augmented messages differ from serial", j)
				}
				if !reflect.DeepEqual(baseline.ActiveRules, res.ActiveRules) {
					t.Fatalf("j=%d active rules differ from serial", j)
				}
				if !reflect.DeepEqual(counters, got) {
					t.Fatalf("j=%d match counters %v, serial %v", j, got, counters)
				}
			}
		})
	}
}

// TestAugmentConcurrent hammers one knowledge base from many goroutines;
// run under -race (make check) it proves the KB is read-only after finish().
func TestAugmentConcurrent(t *testing.T) {
	learn, online := parallelTestCorpus(t, gen.DatasetA)
	kb, err := NewLearner(DefaultParams()).Learn(learn.Messages, learn.Net.Configs)
	if err != nil {
		t.Fatal(err)
	}
	msgs := online.Messages
	if len(msgs) > 2000 {
		msgs = msgs[:2000]
	}
	want := kb.AugmentAll(msgs)

	const goroutines = 8
	var wg sync.WaitGroup
	got := make([][]PlusMessage, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]PlusMessage, len(msgs))
			for i := range msgs {
				out[i] = kb.Augment(&msgs[i])
			}
			got[g] = out
		}(g)
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(want, got[g]) {
			t.Fatalf("goroutine %d saw different augment results", g)
		}
	}
}

package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"syslogdigest/internal/event"
	"syslogdigest/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from this build's output")

const goldenPath = "testdata/golden.json"

// golden is the output of a build, pinned across commits.
type golden struct {
	// SHA256 holds the SHA-256 of each named output.
	SHA256 map[string]string `json:"sha256"`
	// Counters holds the batch digest's match counters by corpus and stage:
	// augment runs on the caller's goroutine, so they are exact.
	Counters map[string]uint64 `json:"counters"`
}

// matchCounters are the augment path's counters a batch digest publishes.
var matchCounters = []string{
	"digest.match.cache.hits",
	"digest.match.cache.misses",
	"digest.match.cache.evictions",
	"digest.match.candidates_scanned",
}

// TestGolden pins the pipeline's output across commits, where
// TestDifferential only compares run shapes with each other at one commit.
// On corpora A and B it hashes the knowledge base learned with calibration
// at 1 and 4 workers, the batch digest (its JSON export) at each stage, the
// serial, 4-worker, 2-shard loopback and provisional streaming transcripts,
// and the serial streamer's snapshot at three fixed cuts and after Flush;
// it also records the batch digest's match counters. A mid-feed sharded
// snapshot is left out: it holds whatever the merge goroutine has closed
// by then, so it is not yet a function of the input (ROADMAP item 6(a)).
//
// A change that alters output on purpose rewrites the file with
//
//	go test -run TestGolden -update ./internal/core
//
// and names the entries that moved.
func TestGolden(t *testing.T) {
	got := golden{SHA256: map[string]string{}, Counters: map[string]uint64{}}
	sum := func(name string, b []byte) {
		h := sha256.Sum256(b)
		got.SHA256[name] = hex.EncodeToString(h[:])
	}
	for _, c := range []corpus{corpusA, corpusB} {
		f := fixtureFor(t, c)

		for _, j := range []int{1, 4} {
			p := DefaultParams()
			p.CalibrateTemporal = true
			p.Parallelism = j
			kb, err := NewLearner(p).Learn(f.ds.Messages, f.ds.Net.Configs)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := kb.Save(&buf); err != nil {
				t.Fatal(err)
			}
			sum(fmt.Sprintf("%v/kb.json/calibrated/j%d", c, j), buf.Bytes())
		}

		for _, st := range []struct {
			name  string
			stage Stage
		}{{"T", StageTemporal}, {"T+R", StageTemporalRules}, {"T+R+C", StageFull}} {
			// A private copy starts with a cold match cache, so the counters
			// are this digest's alone.
			d, err := NewDigester(cloneKB(t, f.kb))
			if err != nil {
				t.Fatal(err)
			}
			d.SetStage(st.stage)
			reg := obs.NewRegistry()
			d.Instrument(reg)
			res, err := d.Digest(f.ds.Messages)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := event.WriteJSON(&buf, res.Events); err != nil {
				t.Fatal(err)
			}
			sum(fmt.Sprintf("%v/digest/%s", c, st.name), buf.Bytes())
			snap := reg.Snapshot()
			for _, name := range matchCounters {
				got.Counters[fmt.Sprintf("%v/digest/%s/%s", c, st.name, name)] = snap.Counter(name)
			}
		}

		ser := reference(t, plan{corpus: c})
		sum(fmt.Sprintf("%v/stream/serial", c), ser.finals)
		four := runPlan(t, plan{corpus: c, segs: every(sharded(4))})
		sum(fmt.Sprintf("%v/stream/sharded4", c), four.finals)
		two := runPlan(t, plan{corpus: c, segs: every(clustered(2))})
		sum(fmt.Sprintf("%v/stream/cluster2", c), two.finals)
		prov := reference(t, plan{corpus: c, horizon: provHorizon})
		sum(fmt.Sprintf("%v/stream/provisional30s/finals", c), prov.finals)
		sum(fmt.Sprintf("%v/stream/provisional30s/updates", c), prov.updates)

		d, err := NewDigester(f.kb)
		if err != nil {
			t.Fatal(err)
		}
		s := NewStreamerWith(d, StreamerOptions{})
		defer s.Close()
		n := len(f.ds.Messages)
		for i := range f.ds.Messages {
			if i > 0 && i%(n/4) == 0 && i/(n/4) < 4 {
				snap, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				sum(fmt.Sprintf("%v/snapshot/serial/at%d", c, i/(n/4)), snap)
			}
			if _, err := s.Push(f.ds.Messages[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sum(fmt.Sprintf("%v/snapshot/serial/flushed", c), snap)
	}

	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want golden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	for name, h := range want.SHA256 {
		if got.SHA256[name] != h {
			t.Errorf("%s: sha256 %s, golden %s", name, got.SHA256[name], h)
		}
	}
	for name, n := range want.Counters {
		if v, ok := got.Counters[name]; !ok || v != n {
			t.Errorf("%s = %d, golden %d", name, v, n)
		}
	}
	for name := range got.SHA256 {
		if _, ok := want.SHA256[name]; !ok {
			t.Errorf("%s is not in %s: rewrite it with -update", name, goldenPath)
		}
	}
	for name := range got.Counters {
		if _, ok := want.Counters[name]; !ok {
			t.Errorf("%s is not in %s: rewrite it with -update", name, goldenPath)
		}
	}
}

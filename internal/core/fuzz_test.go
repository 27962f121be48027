package core

import (
	"testing"
	"time"

	"syslogdigest/internal/gen"
)

// FuzzRestoreStreamer feeds RestoreStreamer corrupted, truncated, and
// arbitrary snapshot bytes: it must either return an error or produce a
// working streamer — never panic. The seed corpus starts from a genuine
// snapshot so mutations explore the decoder's deep paths (envelope,
// streamer payload, grouping index space), not just the JSON front door.
func FuzzRestoreStreamer(f *testing.F) {
	ds, err := gen.Generate(gen.Spec{
		Kind: gen.DatasetA, Routers: 4, Seed: 9,
		Duration: 4 * time.Hour, RateScale: 0.25,
	})
	if err != nil {
		f.Fatal(err)
	}
	kb, err := NewLearner(DefaultParams()).Learn(ds.Messages, ds.Net.Configs)
	if err != nil {
		f.Fatal(err)
	}
	d, err := NewDigester(kb)
	if err != nil {
		f.Fatal(err)
	}
	st := NewStreamerWith(d, StreamerOptions{})
	n := len(ds.Messages)
	if n > 300 {
		n = 300
	}
	for _, m := range ds.Messages[:n] {
		if _, err := st.Push(m); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := st.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	st.Close()

	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Add(snap[:len(snap)-1])
	f.Add([]byte(nil))
	f.Add([]byte("{}"))
	f.Add([]byte("not json at all"))
	corrupt := append([]byte(nil), snap...)
	for i := len(corrupt) / 4; i < len(corrupt); i += len(corrupt) / 7 {
		corrupt[i] ^= 0x5a
	}
	f.Add(corrupt)

	probe := ds.Messages[len(ds.Messages)-1]
	f.Fuzz(func(t *testing.T, data []byte) {
		// Serial, and sharded: a restore into two workers reshards the
		// decoded router-local state.
		for _, opts := range []StreamerOptions{{}, {StreamWorkers: 2}} {
			d2, err := NewDigester(kb)
			if err != nil {
				t.Fatal(err)
			}
			s, err := RestoreStreamer(d2, data, opts)
			if err != nil {
				continue // rejected: the only acceptable failure mode
			}
			// A snapshot the decoder accepted must yield a usable streamer.
			m := probe
			m.Time = s.maxSeen.Add(time.Hour)
			if wm := s.Watermark(); m.Time.Before(wm) {
				m.Time = wm.Add(time.Hour)
			}
			if _, err := s.Push(m); err != nil {
				t.Logf("push after restore (%d workers): %v", opts.StreamWorkers, err)
			}
			if _, err := s.Flush(); err != nil {
				t.Logf("flush after restore (%d workers): %v", opts.StreamWorkers, err)
			}
			s.Close()
		}
	})
}

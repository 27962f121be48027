package core

import (
	"math"
	"testing"
	"time"

	"syslogdigest/internal/gen"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/syslogmsg"
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
			m.Time = s.fe.maxSeen.Add(time.Hour)
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

// FuzzStreamerFrontEnd drives the reorder front end with arbitrary arrival
// times, tolerance and cap into an engine that records what it is fed, and
// checks after every Push and Flush that the fed times never run backwards
// (equal times in arrival order), that every arrival is fed, buffered or
// counted as exactly one kind of drop, that the buffer never exceeds its
// cap, and that an arrival is dropped exactly when it precedes what was
// fed, as overflow exactly when it lies within tolerance of the newest
// arrival.
//
// data[0] picks the tolerance (-1s: no buffering, 0: the default, up to
// 6s), data[1] the cap (1-6); each further byte b is a Flush when 0, else
// an arrival b&0x0f seconds behind a clock that first advances b>>6 seconds.
func FuzzStreamerFrontEnd(f *testing.F) {
	kb, _ := learnSmall(f, gen.DatasetA)
	f.Add([]byte{3, 2, 0x41, 0x43, 0x80, 0x42, 0x4f, 0xc0, 0, 0x41})
	f.Add([]byte{0, 0, 0x40, 0x40, 0x40, 0x41, 0x40, 0xc5, 0x43, 0x4a})
	f.Add([]byte{7, 5, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0, 0x08})
	// Late arrivals tied in time with in-order ones still buffered: 0x01 and
	// 0x02 land one and two seconds behind the clock, on the times of the
	// arrivals before them, so equal times release in arrival order across
	// the in-order run and the heap of late arrivals.
	f.Add([]byte{7, 5, 0x40, 0x40, 0x01, 0x40, 0x02, 0x01, 0x41, 0, 0x40, 0x01})
	f.Add([]byte{3, 3, 0x40, 0x40, 0x40, 0x01, 0x02, 0x41, 0x01, 0x80, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		d, err := NewDigester(kb)
		if err != nil {
			t.Fatal(err)
		}
		s := NewStreamerWith(d, StreamerOptions{
			ReorderTolerance: time.Duration(int(data[0]%8)-1) * time.Second,
			ReorderCap:       1 + int(data[1]%6),
		})
		reg := obs.NewRegistry()
		s.Instrument(reg)
		eng := &failEngine{failAt: math.MaxInt}
		s.eng = eng
		tol, cap := s.fe.tolerance, s.fe.cap

		clock := time.Date(2010, 1, 1, 12, 0, 0, 0, time.UTC)
		var started bool
		var newest time.Time
		var over, late uint64
		for i, b := range data[2:] {
			if b == 0 {
				if _, err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			} else {
				clock = clock.Add(time.Duration(b>>6) * time.Second)
				at := clock.Add(-time.Duration(b&0x0f) * time.Second)
				behind := len(eng.fed) > 0 && at.Before(eng.fed[len(eng.fed)-1].Time)
				switch {
				case behind && at.After(newest.Add(-tol)):
					over++
				case behind:
					late++
				case !started || at.After(newest):
					started, newest = true, at
				}
				m := syslogmsg.Message{Index: uint64(i), Time: at, Router: "x", Code: "A-1-B", Detail: "d"}
				if _, err := s.Push(m); err != nil {
					t.Fatal(err)
				}
			}
			snap := reg.Snapshot()
			for j := 1; j < len(eng.fed); j++ {
				p, q := eng.fed[j-1], eng.fed[j]
				if q.Time.Before(p.Time) || q.Time.Equal(p.Time) && q.Raw < p.Raw {
					t.Fatalf("step %d: fed %v (arrival %d) after %v (arrival %d)", i, q.Time, q.Raw, p.Time, p.Raw)
				}
			}
			buffered := uint64(s.fe.len())
			if buffered > uint64(cap) || snap.Gauge("stream.buffered") != float64(buffered) {
				t.Fatalf("step %d: buffer %d, gauge %v, cap %d", i, buffered, snap.Gauge("stream.buffered"), cap)
			}
			pushed := snap.Counter("stream.pushed")
			dl, do := snap.Counter("stream.dropped.late"), snap.Counter("stream.dropped.overflow")
			if pushed != uint64(len(eng.fed))+buffered+dl+do {
				t.Fatalf("step %d: pushed %d != fed %d + buffered %d + late %d + overflow %d",
					i, pushed, len(eng.fed), buffered, dl, do)
			}
			if dl != late || do != over {
				t.Fatalf("step %d: dropped late %d overflow %d, want %d and %d", i, dl, do, late, over)
			}
		}
	})
}

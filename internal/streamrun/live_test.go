package streamrun

import (
	"bufio"
	"bytes"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"syslogdigest"
	"syslogdigest/internal/collector"
	"syslogdigest/internal/gen"
)

// corpus is one day of dataset A from 8 routers (4,334 messages, 45
// events) and the knowledge base learned from it, built once per test
// binary.
var corpus = sync.OnceValues(func() (*syslogdigest.KnowledgeBase, []syslogdigest.Message) {
	ds, err := gen.Generate(gen.Spec{Kind: gen.DatasetA, Routers: 8, Seed: 9, Duration: 24 * time.Hour, RateScale: 0.25})
	if err != nil {
		panic(err)
	}
	kb, err := syslogdigest.NewLearner(syslogdigest.DefaultParams()).Learn(ds.Messages, ds.Net.Configs)
	if err != nil {
		panic(err)
	}
	return kb, ds.Messages
})

func newStreamer(t *testing.T, opts syslogdigest.StreamerOptions) *syslogdigest.Streamer {
	t.Helper()
	kb, _ := corpus()
	d, err := syslogdigest.NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	return syslogdigest.NewStreamerWith(d, opts)
}

// replayed is Replay's output on msgs, and its length before the Flush.
func replayed(t *testing.T, opts syslogdigest.StreamerOptions, msgs []syslogdigest.Message) (out string, beforeFlush int) {
	t.Helper()
	var buf bytes.Buffer
	p := Printer{W: &buf}
	calls := 0
	err := Replay(newStreamer(t, opts), msgs, ReplayOptions{}, func(res *syslogdigest.DigestResult) error {
		if calls == len(msgs) {
			beforeFlush = buf.Len()
		}
		calls++
		return p.Print(res)
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), beforeFlush
}

// recorder prints what a Live delivers and counts the deliveries: one per
// Push, one per Flush.
type recorder struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	calls int
}

func (r *recorder) deliver(res *syslogdigest.DigestResult) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	return (&Printer{W: &r.buf}).Print(res)
}

// state is the deliveries so far and what they printed.
func (r *recorder) state() (calls int, out string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls, r.buf.String()
}

func startLive(t *testing.T, st *syslogdigest.Streamer, o LiveOptions, r *recorder) *Live {
	t.Helper()
	o.OnError = func(err error) { t.Error(err) }
	l, err := StartLive(st, collector.Config{TCPAddr: "127.0.0.1:0"}, o, r.deliver)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// send writes msgs to l over one TCP connection, chunk lines at a time with
// gap between chunks, and waits until l has received them all.
func send(t *testing.T, l *Live, msgs []syslogdigest.Message, chunk int, gap time.Duration) {
	t.Helper()
	want := l.Stats().Received + uint64(len(msgs))
	conn, err := net.Dial("tcp", l.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(conn)
	for i := range msgs {
		w.WriteString(msgs[i].Format())
		w.WriteByte('\n')
		if (i+1)%chunk == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(gap)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, "every message received", func() bool { return l.Stats().Received == want })
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestLiveEqualsReplay: a corpus sent over loopback TCP prints what Replay
// prints for the same messages, serial, sharded and with the provisional
// tier; Close's drain prints the tail.
func TestLiveEqualsReplay(t *testing.T) {
	_, msgs := corpus()
	for _, c := range []struct {
		name string
		opts syslogdigest.StreamerOptions
	}{
		{"serial", syslogdigest.StreamerOptions{}},
		{"workers2", syslogdigest.StreamerOptions{StreamWorkers: 2}},
		{"provisional30s", syslogdigest.StreamerOptions{ProvisionalHorizon: 30 * time.Second}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, _ := replayed(t, c.opts, msgs)
			var r recorder
			l := startLive(t, newStreamer(t, c.opts), LiveOptions{Idle: time.Hour}, &r)
			send(t, l, msgs, 256, 0)
			l.Close()
			n, got := r.state()
			if got != want {
				t.Fatalf("live output (%d bytes) differs from Replay's (%d bytes)", len(got), len(want))
			}
			if n != len(msgs)+1 {
				t.Fatalf("%d deliveries for %d pushes and Close's drain", n, len(msgs))
			}
		})
	}
}

// TestLiveConcurrentConnections: connections delivering at once, while the
// idle loop ticks, share the one streamer through the Live's lock; every
// message is pushed once. Run it under -race.
func TestLiveConcurrentConnections(t *testing.T) {
	_, msgs := corpus()
	var r recorder
	st := newStreamer(t, syslogdigest.StreamerOptions{})
	l := startLive(t, st, LiveOptions{Idle: 10 * time.Millisecond}, &r)
	const conns = 4
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(part []syslogdigest.Message) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.TCPAddr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			w := bufio.NewWriter(conn)
			for i := range part {
				w.WriteString(part[i].Format())
				w.WriteByte('\n')
			}
			if err := w.Flush(); err != nil {
				t.Error(err)
			}
		}(msgs[k*len(msgs)/conns : (k+1)*len(msgs)/conns])
	}
	wg.Wait()
	waitFor(t, "every message received", func() bool { return l.Stats().Received == uint64(len(msgs)) })
	l.Close()
	if st.Pushed() != uint64(len(msgs)) {
		t.Fatalf("%d pushes for %d messages", st.Pushed(), len(msgs))
	}
	// The idle drain may have run any number of times, one delivery each.
	if n, _ := r.state(); n < len(msgs)+1 {
		t.Fatalf("%d deliveries for %d pushes and Close's drain", n, len(msgs))
	}
}

// TestLiveIdleDrain: the idle drain flushes the open groups once the feed
// has been quiet for a whole interval, and never before anything arrived,
// while messages keep arriving, or when nothing is pending.
func TestLiveIdleDrain(t *testing.T) {
	_, msgs := corpus()
	const idle = 250 * time.Millisecond
	want, beforeFlush := replayed(t, syslogdigest.StreamerOptions{}, msgs)
	var r recorder
	l := startLive(t, newStreamer(t, syslogdigest.StreamerOptions{}), LiveOptions{Idle: idle}, &r)
	defer func() {
		if l != nil {
			l.Close()
		}
	}()

	time.Sleep(3 * idle)
	if n, _ := r.state(); n != 0 {
		t.Fatalf("%d deliveries before anything arrived", n)
	}
	// A chunk every 5 ms for about a second: four intervals that are never
	// quiet.
	start := time.Now()
	send(t, l, msgs, 20, 5*time.Millisecond)
	if d := time.Since(start); d < 2*idle {
		t.Fatalf("the feed took %s, under two idle intervals: it proves nothing", d)
	}
	// The collector counts a message before it hands it over.
	waitFor(t, "the last push", func() bool { n, _ := r.state(); return n >= len(msgs) })
	if n, got := r.state(); n != len(msgs) || got != want[:beforeFlush] {
		t.Fatalf("%d deliveries for %d pushes, %d bytes printed where Replay printed %d before its Flush: the feed was drained while it flowed",
			n, len(msgs), len(got), beforeFlush)
	}

	waitFor(t, "the idle drain", func() bool { n, _ := r.state(); return n == len(msgs)+1 })
	if _, got := r.state(); got != want {
		t.Fatalf("after the drain the live output (%d bytes) is not Replay's (%d bytes)", len(got), len(want))
	}
	time.Sleep(3 * idle)
	if n, _ := r.state(); n != len(msgs)+1 {
		t.Fatalf("%d drains: drained again with nothing pending", n-len(msgs))
	}
	l.Close()
	l = nil
	if _, got := r.state(); got != want {
		t.Fatal("Close printed more after the idle drain had emptied the streamer")
	}
}

// TestLiveCloseCheckpoints: with a checkpoint path, Close writes the
// checkpoint and leaves the open groups for the next run instead of
// draining them; a run restored from it does not drain them before the
// feed resumes, and fed the rest of the corpus completes the uninterrupted
// output.
func TestLiveCloseCheckpoints(t *testing.T) {
	kb, msgs := corpus()
	want, _ := replayed(t, syslogdigest.StreamerOptions{}, msgs)
	path := filepath.Join(t.TempDir(), "live.ckpt")
	half := len(msgs) / 2

	var first recorder
	l := startLive(t, newStreamer(t, syslogdigest.StreamerOptions{}),
		LiveOptions{Idle: time.Hour, CheckpointPath: path, CheckpointEvery: time.Hour}, &first)
	send(t, l, msgs[:half], 256, 0)
	l.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Close wrote no checkpoint: %v", err)
	}
	if n, _ := first.state(); n != half {
		t.Fatalf("%d deliveries for %d pushes: Close drained instead of checkpointing", n, half)
	}

	d, err := syslogdigest.NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	st, restored, err := Open(d, syslogdigest.StreamerOptions{}, path)
	if err != nil || !restored {
		t.Fatalf("restore: %v (restored %v)", err, restored)
	}
	if st.Pushed() != uint64(half) {
		t.Fatalf("restored streamer has pushed %d, the first run %d", st.Pushed(), half)
	}
	if st.Pending() == 0 {
		t.Fatal("the checkpoint holds no open groups: the resume proves nothing")
	}
	// The restored groups stay open until the feed resumes and pauses: a
	// drain now would split them.
	const idle = 250 * time.Millisecond
	var second recorder
	l = startLive(t, st, LiveOptions{Idle: idle}, &second)
	time.Sleep(3 * idle)
	if n, _ := second.state(); n != 0 {
		t.Fatal("the restored run drained before anything arrived")
	}
	send(t, l, msgs[half:], 256, 0)
	l.Close()
	_, out1 := first.state()
	_, out2 := second.state()
	if got := out1 + out2; got != want {
		t.Fatalf("checkpointed and resumed output (%d bytes) differs from the uninterrupted run's (%d bytes)", len(got), len(want))
	}
}

// TestLivePeriodicCheckpoint: the checkpoint ticker writes the state of a
// running feed, restorable at the count pushed so far, without draining.
func TestLivePeriodicCheckpoint(t *testing.T) {
	kb, msgs := corpus()
	path := filepath.Join(t.TempDir(), "live.ckpt")
	half := len(msgs) / 2
	var r recorder
	l := startLive(t, newStreamer(t, syslogdigest.StreamerOptions{}),
		LiveOptions{Idle: time.Hour, CheckpointPath: path, CheckpointEvery: 20 * time.Millisecond}, &r)
	defer l.Close()
	send(t, l, msgs[:half], 256, 0)
	d, err := syslogdigest.NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a checkpoint of the whole feed", func() bool {
		st, restored, err := Open(d, syslogdigest.StreamerOptions{}, path)
		if err != nil || !restored {
			return false // not written yet
		}
		defer st.Close()
		return st.Pushed() == uint64(half) && st.Pending() > 0
	})
	if n, _ := r.state(); n != half {
		t.Fatalf("%d deliveries for %d pushes: a checkpoint drained", n, half)
	}
}

// TestStartLiveRefusesNonPositiveIntervals: a zero or negative interval is
// an error before any listener is bound, not a ticker panic.
func TestStartLiveRefusesNonPositiveIntervals(t *testing.T) {
	for _, o := range []LiveOptions{
		{Idle: 0},
		{Idle: -time.Second},
		{Idle: time.Second, CheckpointPath: "x.ckpt", CheckpointEvery: 0},
		{Idle: time.Second, CheckpointPath: "x.ckpt", CheckpointEvery: -time.Second},
	} {
		st := newStreamer(t, syslogdigest.StreamerOptions{})
		l, err := StartLive(st, collector.Config{TCPAddr: "127.0.0.1:0"}, o, func(*syslogdigest.DigestResult) error { return nil })
		if err == nil {
			l.Close()
			t.Fatalf("%+v: started", o)
		}
		st.Close()
	}
}

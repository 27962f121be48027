package main

import (
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"syslogdigest/internal/collector"
	"syslogdigest/internal/core"
	"syslogdigest/internal/event"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/syslogmsg"
)

// reference is what a correct run must deliver: every final event and every
// tier-tagged update of the workload, keyed by content, with the index of
// the feed message whose Push returned it in the reference pass (its
// trigger; -1 when only the end-of-feed Flush released it).
type reference struct {
	want    map[string]refRecord
	records int
	finals  int // final events among the records
}

type refRecord struct {
	n       int // multiplicity (content keys are unique in practice)
	trigger int
}

// delivery is one non-empty result handed to the benchmark's handler, and
// the wall time it arrived.
type delivery struct {
	res *core.DigestResult
	at  time.Time
}

// Record kinds, for lag accounting.
const (
	recFinal       = iota // final event
	recFirstSignal        // provisional revision 0
	recOther              // revised, superseded and final updates
)

// eachRecord calls f for every record of a result: final events keyed by
// emission ID and digest, updates by their digest (which carries status,
// EventID and Revision).
func eachRecord(res *core.DigestResult, f func(key string, kind int)) {
	for i := range res.Events {
		f("E"+strconv.Itoa(res.Events[i].ID)+"|"+res.Events[i].Digest(), recFinal)
	}
	for i := range res.Updates {
		u := &res.Updates[i]
		kind := recOther
		if u.Status == event.StatusProvisional && u.Revision == 0 {
			kind = recFirstSignal
		}
		f(u.Digest(), kind)
	}
}

func (r *reference) add(res *core.DigestResult, trigger int) {
	if res == nil {
		return
	}
	eachRecord(res, func(key string, kind int) {
		if kind == recFinal {
			r.finals++
		}
		rec := r.want[key]
		if rec.n == 0 {
			rec.trigger = trigger
		}
		rec.n++
		r.want[key] = rec
		r.records++
	})
}

// check compares a pass's deliveries with the reference and returns the
// number of records missing from or not in it. due, when non-nil, gives the
// scheduled send time of a feed message; lags then receives, per record
// kind, the wall time from the trigger message's due time to the record
// reaching the handler (flush-released records have no trigger and no lag).
func (r *reference) check(got []delivery, due func(i int) time.Time, lags *[recOther][]float64) int {
	seen := make(map[string]int, len(r.want))
	unexpected := 0
	for _, d := range got {
		eachRecord(d.res, func(key string, kind int) {
			rec, ok := r.want[key]
			if !ok {
				unexpected++
				return
			}
			seen[key]++
			if due != nil && kind < recOther && rec.trigger >= 0 {
				lags[kind] = append(lags[kind], d.at.Sub(due(rec.trigger)).Seconds()*1e3)
			}
		})
	}
	bad := unexpected
	for key, rec := range r.want {
		if n := seen[key]; n != rec.n {
			bad += abs(rec.n - n)
		}
	}
	return bad
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// streamReference runs the feed through an in-process serial Streamer (no
// sockets, no shards) and records what it returns and when.
func streamReference(in *input) (reference, error) {
	ref := reference{want: make(map[string]refRecord)}
	d, err := core.NewDigester(in.kb)
	if err != nil {
		return ref, err
	}
	in.kb.SetMatchCache(0)
	st := core.NewStreamerWith(d, core.StreamerOptions{StreamWorkers: 1, ProvisionalHorizon: in.w.provisional})
	defer st.Close()
	for i := range in.msgs {
		res, err := st.Push(in.msgs[i])
		if err != nil {
			return ref, err
		}
		ref.add(res, i)
	}
	res, err := st.Flush()
	ref.add(res, -1)
	return ref, err
}

// batchReference digests the online batch with the retained three-pass
// batch implementation, the oracle Digester.Digest is tested against.
func batchReference(in *input) (reference, error) {
	ref := reference{want: make(map[string]refRecord)}
	d, err := core.NewDigester(in.kb)
	if err != nil {
		return ref, err
	}
	res, err := d.ReferenceDigestPlus(in.kb.AugmentAll(in.msgs))
	if err != nil {
		return ref, err
	}
	ref.add(&core.DigestResult{Events: res.Events}, -1)
	return ref, nil
}

// passResult is one timed pass over the workload's input.
type passResult struct {
	msgs      int           // messages that reached the handler (batch: learned + digested)
	wall      time.Duration // first byte sent to last event out
	cpu       time.Duration // this process plus the shard subprocess
	selfCPU   time.Duration // this process alone
	attempted int           // messages sent + records expected
	failed    int           // undelivered or parse-dropped messages, records missing or unequal

	// Open-loop feeds only.
	sent      int
	sentBytes int
	lateMs    []float64           // per 1 ms tick: how late the oldest datagram of the tick went out
	lags      [recOther][]float64 // ms, by record kind

	// batch_learn only.
	learnWall, digestWall time.Duration
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPass runs one pass of the workload. reg, when non-nil, is installed
// into the collector, the knowledge base and the streamer through their
// Instrument methods (the traced run); timed passes leave it nil.
func runPass(in *input, reg *obs.Registry) (passResult, error) {
	runtime.GC() // the previous pass's garbage is not this pass's cost
	if in.w.batch {
		return batchPass(in, reg)
	}
	return streamPass(in, reg)
}

// streamPass drives the product path: loopback socket → collector →
// ParseWireBytes → Streamer.Push → the handler below.
func streamPass(in *input, reg *obs.Registry) (passResult, error) {
	var out passResult
	d, err := core.NewDigester(in.kb)
	if err != nil {
		return out, err
	}
	in.kb.SetMatchCache(0) // every pass starts with a cold match cache
	addr := ""
	if in.shard != nil {
		addr = in.shard.addr
	}
	st := core.NewStreamerWith(d, in.w.streamerOptions(addr))
	defer st.Close()
	if reg != nil {
		d.Instrument(reg)
		st.Instrument(reg)
	}

	// The collector calls the handler from one goroutine per connection;
	// the Streamer is single-caller, so the handler serializes.
	var (
		mu      sync.Mutex
		got     []delivery
		pushErr error
	)
	handler := func(m syslogmsg.Message) {
		mu.Lock()
		defer mu.Unlock()
		out.msgs++
		res, err := st.Push(m)
		if err != nil && pushErr == nil {
			pushErr = err
		}
		if res != nil {
			got = append(got, delivery{res, time.Now()})
		}
	}
	cfg := collector.Config{Metrics: reg}
	if in.w.udpRate > 0 {
		cfg.UDPAddr = "127.0.0.1:0"
	} else {
		cfg.TCPAddr = "127.0.0.1:0"
	}
	coll, err := collector.New(cfg, handler)
	if err != nil {
		return out, err
	}
	if err := coll.Start(); err != nil {
		return out, err
	}
	defer coll.Close()

	var shardCPU time.Duration
	if in.shard != nil {
		shardCPU = in.shard.cpu()
	}
	cpu0 := processCPU()
	start := time.Now()
	var due func(int) time.Time
	if in.w.udpRate > 0 {
		due = func(i int) time.Time { return start.Add(dueOffset(i, in.w.udpRate)) }
		err = sendPaced(coll.UDPAddr().String(), in, start, &out)
		awaitDatagrams(coll, out.sent)
	} else {
		out.sent, out.sentBytes = len(in.ends), len(in.wire)
		err = sendTCP(coll.TCPAddr().String(), in.wire)
	}
	if err != nil {
		return out, err
	}
	// Close waits for the connection goroutine to deliver its last line.
	if err := coll.Close(); err != nil {
		return out, err
	}
	res, err := st.Flush()
	if res != nil {
		got = append(got, delivery{res, time.Now()})
	}
	out.wall = time.Since(start)
	out.selfCPU = processCPU() - cpu0
	out.cpu = out.selfCPU
	if in.shard != nil {
		out.cpu += in.shard.cpu() - shardCPU
	}
	if err == nil {
		err = pushErr
	}
	if err != nil {
		return out, err
	}

	out.attempted = out.sent + in.ref.records
	out.failed = (out.sent - out.msgs) + in.parseMismatch + in.ref.check(got, due, &out.lags)
	return out, nil
}

// sendTCP is the closed-loop load generator: one connection, written as
// fast as flow control accepts.
func sendTCP(addr string, wire []byte) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	if _, err := conn.Write(wire); err != nil {
		conn.Close()
		return fmt.Errorf("loadgen: %w", err)
	}
	return conn.Close()
}

// dueOffset is when message i of an open-loop feed is due, from its start.
func dueOffset(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// sendPaced is the open-loop load generator: message i is due at
// start + i/rate whether or not the system keeps up, one datagram per
// message, sent in 1 ms ticks (sleeping between ticks, never spinning).
func sendPaced(addr string, in *input, start time.Time, out *passResult) error {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	const tick = time.Millisecond
	rate := in.w.udpRate
	n := len(in.ends)
	next := 0
	for next < n {
		now := time.Since(start)
		dueCount := min(int(now.Seconds()*rate)+1, n)
		if next < dueCount {
			out.lateMs = append(out.lateMs, (now-dueOffset(next, rate)).Seconds()*1e3)
		}
		for ; next < dueCount; next++ {
			line := in.line(next)
			// A refused or unbuffered datagram is a lost message, which the
			// caller counts as undelivered; the schedule goes on.
			_, _ = conn.Write(line)
			out.sentBytes += len(line)
		}
		time.Sleep(tick - time.Since(start)%tick)
	}
	out.sent = n
	return nil
}

// awaitDatagrams waits until the collector has accounted for every datagram
// sent, or has made no progress for half a second (the rest were lost).
func awaitDatagrams(coll *collector.Collector, sent int) {
	last, lastChange := uint64(0), time.Now()
	for {
		s := coll.Stats()
		seen := s.Received + s.Dropped + s.Truncated
		if seen >= uint64(sent) {
			return
		}
		if seen != last {
			last, lastChange = seen, time.Now()
		} else if time.Since(lastChange) > 500*time.Millisecond {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// batchPass is the offline half and the batch path: learn a knowledge base
// from the learning corpus, then digest the online batch with it.
func batchPass(in *input, reg *obs.Registry) (passResult, error) {
	var out passResult
	cpu0 := processCPU()
	start := time.Now()
	kb, err := core.NewLearner(in.params).Learn(in.learn, in.configs)
	if err != nil {
		return out, err
	}
	out.learnWall = time.Since(start)
	d, err := core.NewDigester(kb)
	if err != nil {
		return out, err
	}
	if reg != nil {
		d.Instrument(reg)
	}
	digestStart := time.Now()
	res, err := d.Digest(in.msgs)
	if err != nil {
		return out, err
	}
	out.digestWall = time.Since(digestStart)
	out.wall = time.Since(start)
	out.selfCPU = processCPU() - cpu0
	out.cpu = out.selfCPU

	out.msgs = len(in.learn) + len(in.msgs)
	out.sent = out.msgs
	out.attempted = out.msgs + in.ref.records
	got := []delivery{{res: &core.DigestResult{Events: res.Events}}}
	out.failed = in.parseMismatch + in.ref.check(got, nil, nil)
	return out, nil
}

package streamrun

import (
	"fmt"
	"net"
	"sync"
	"time"

	"syslogdigest"
	"syslogdigest/internal/collector"
	"syslogdigest/internal/obs"
)

// LiveOptions are what a live run varies besides the collector and the
// streamer.
type LiveOptions struct {
	// Idle (positive) drains the open groups once the feed has been silent
	// for a whole interval: watermark-driven closure stalls when it does.
	Idle time.Duration
	// CheckpointPath, when set, gets a snapshot every CheckpointEvery
	// (positive) and one at Close in place of the final drain.
	CheckpointPath  string
	CheckpointEvery time.Duration
	Health          *obs.Health // optional; records progress on each idle tick
	OnError         func(error) // optional; a failed push, drain, delivery or checkpoint
}

// Live is a running collector feeding one streamer: the one lock around
// the streamer, the idle drain, the checkpoint cadence and the shutdown
// order.
type Live struct {
	st         *syslogdigest.Streamer
	col        *collector.Collector
	o          LiveOptions
	deliver    func(*syslogdigest.DigestResult) error
	mu         sync.Mutex // held around every Push, Flush and Snapshot
	stop, done chan struct{}
}

// StartLive binds the collector configured by cfg and pushes each message
// it receives into st, which the Live owns once it has started. Each Push
// and Flush result goes to deliver (nil when nothing closed) before its
// error is looked at — events that accompany an error are final — and under
// the lock, so results arrive in push order; deliver must not call Close.
func StartLive(st *syslogdigest.Streamer, cfg collector.Config, o LiveOptions, deliver func(*syslogdigest.DigestResult) error) (*Live, error) {
	if o.Idle <= 0 || (o.CheckpointPath != "" && o.CheckpointEvery <= 0) {
		return nil, fmt.Errorf("idle interval %s, checkpoint interval %s: must be positive", o.Idle, o.CheckpointEvery)
	}
	l := &Live{st: st, o: o, deliver: deliver, stop: make(chan struct{}), done: make(chan struct{})}
	start := st.Pushed() // a restored streamer's count, read before the feed starts
	var err error
	l.col, err = collector.New(cfg, func(m syslogdigest.Message) {
		l.mu.Lock()
		defer l.mu.Unlock()
		res, err := l.st.Push(m)
		l.emit(res, err, "stream")
	})
	if err == nil {
		err = l.col.Start()
	}
	if err != nil {
		return nil, err
	}
	go l.loop(start)
	return l, nil
}

// UDPAddr is the bound UDP address (nil when UDP is off).
func (l *Live) UDPAddr() net.Addr { return l.col.UDPAddr() }

// TCPAddr is the bound TCP address (nil when TCP is off).
func (l *Live) TCPAddr() net.Addr { return l.col.TCPAddr() }

// Stats are the collector's counters.
func (l *Live) Stats() collector.Stats { return l.col.Stats() }

// Close stops the loop, closes the collector (which delivers everything
// received), writes the checkpoint when a path is set — the open groups
// wait for the next run — or else drains them, and closes the streamer.
// Call it once.
func (l *Live) Close() {
	close(l.stop)
	<-l.done
	l.col.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.o.CheckpointPath != "" {
		snap, err := l.st.Snapshot()
		l.report(writeCheckpoint(l.o.CheckpointPath, snap, err))
	} else {
		l.drain()
	}
	l.st.Close()
}

// loop runs the idle drain and the checkpoint cadence until Close; start
// is the streamer's Pushed count before the feed began.
func (l *Live) loop(start uint64) {
	defer close(l.done)
	idle := time.NewTicker(l.o.Idle)
	defer idle.Stop()
	var ckpt <-chan time.Time
	if l.o.CheckpointPath != "" {
		t := time.NewTicker(l.o.CheckpointEvery)
		defer t.Stop()
		ckpt = t.C
	}
	for last := start; ; {
		select {
		case <-l.stop:
			return
		case <-ckpt:
			// The feed waits for the snapshot only, not for the disk.
			l.mu.Lock()
			snap, err := l.st.Snapshot()
			l.mu.Unlock()
			l.report(writeCheckpoint(l.o.CheckpointPath, snap, err))
		case <-idle.C:
			l.o.Health.Progress()
			// Quiet: nothing arrived since the last tick, something did
			// since start, and groups are open.
			l.mu.Lock()
			n := l.st.Pushed()
			if n == last && n != start && l.st.Pending() > 0 {
				l.drain()
			}
			last = n
			l.mu.Unlock()
		}
	}
}

// drain flushes the streamer; l.mu must be held.
func (l *Live) drain() {
	res, err := l.st.Flush()
	l.emit(res, err, "drain")
}

// emit delivers one result, then reports its error; l.mu must be held.
func (l *Live) emit(res *syslogdigest.DigestResult, err error, what string) {
	if werr := l.deliver(res); werr != nil {
		l.report(fmt.Errorf("write: %w", werr))
	}
	if err != nil {
		l.report(fmt.Errorf("%s: %w", what, err))
	}
}

func (l *Live) report(err error) {
	if err != nil && l.o.OnError != nil {
		l.o.OnError(err)
	}
}

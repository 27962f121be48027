package collector

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"syslogdigest/internal/syslogmsg"
)

// TestCloseWithOpenConn is the regression test for Close waiting forever
// on a client that keeps its connection open (a router's persistent
// syslog-over-TCP session): Close must end the connection and still have
// delivered every line the client sent.
func TestCloseWithOpenConn(t *testing.T) {
	var s sink
	c := startCollector(t, Config{TCPAddr: "127.0.0.1:0", Year: 2010}, s.handle)
	conn, err := net.Dial("tcp", c.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const k = 10
	for i := 0; i < k; i++ {
		fmt.Fprintf(conn, "<189>Jan 10 00:00:%02d r1 %%A-1-B: m%d\n", i, i)
	}
	waitFor(t, func() bool { return c.Stats().Received == k })

	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close still blocked on an open connection after 2s")
	}
	if n := s.len(); n != k {
		t.Fatalf("handler saw %d lines, want %d", n, k)
	}
}

// TestTCPPartialLineDoesNotHoldEarlierLines: a complete line is delivered
// while the rest of the connection's buffer is an unfinished line, as the
// single read-parse-deliver loop did.
func TestTCPPartialLineDoesNotHoldEarlierLines(t *testing.T) {
	var s sink
	c := startCollector(t, Config{TCPAddr: "127.0.0.1:0", Year: 2010}, s.handle)
	conn, err := net.Dial("tcp", c.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "<189>Jan 10 00:00:15 r1 %%A-1-B: first\n<189>Jan 10 00:00:16 r1 %%A-1-B: par")
	waitFor(t, func() bool { return s.len() == 1 })
	fmt.Fprintf(conn, "tial\n")
	waitFor(t, func() bool { return s.len() == 2 })
	if got := s.snapshot(); got[0].Detail != "first" || got[1].Detail != "partial" {
		t.Fatalf("messages = %+v", got)
	}
}

// TestTCPOrderUnderBackpressure sends thousands of lines on one
// connection, many batches' worth, into a handler slow enough that the
// reader fills every batch and waits; the client hangs up right after
// writing and Close follows at once. Every line must arrive, in send
// order, numbered 0…n−1, and Received must equal the handler's calls.
func TestTCPOrderUnderBackpressure(t *testing.T) {
	const n = 5000
	var (
		mu  sync.Mutex
		got []syslogmsg.Message
	)
	c := startCollector(t, Config{TCPAddr: "127.0.0.1:0", Year: 2010}, func(m syslogmsg.Message) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, m)
		if len(got)%64 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	})
	conn, err := net.Dial("tcp", c.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(conn)
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "<189>Jan 10 00:%02d:%02d r1 %%A-1-B: m%d\n", i/60%60, i%60, i)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("handler saw %d lines, want %d", len(got), n)
	}
	for i, m := range got {
		if m.Index != uint64(i) || m.Detail != fmt.Sprintf("m%d", i) {
			t.Fatalf("call %d: index %d detail %q", i, m.Index, m.Detail)
		}
	}
	if r := c.Stats().Received; r != uint64(len(got)) {
		t.Fatalf("Received = %d, handler calls = %d", r, len(got))
	}
}

// flakyListener fails every Accept while failing is set, then hands out
// the connections sent on conns.
type flakyListener struct {
	failing atomic.Bool
	accepts atomic.Int64
	conns   chan net.Conn
	closed  chan struct{}
	once    sync.Once
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.accepts.Add(1)
	if l.failing.Load() {
		return nil, errors.New("accept: too many open files")
	}
	select {
	case conn := <-l.conns:
		return conn, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *flakyListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptBackoff: a persistent Accept error must not become a hot loop
// that floods OnError; once Accept recovers, connections are served.
func TestAcceptBackoff(t *testing.T) {
	var s sink
	var reports atomic.Int64
	c, err := New(Config{
		TCPAddr: "127.0.0.1:0", Year: 2010,
		OnError: func(error) { reports.Add(1) },
	}, s.handle)
	if err != nil {
		t.Fatal(err)
	}
	ln := &flakyListener{conns: make(chan net.Conn), closed: make(chan struct{})}
	ln.failing.Store(true)
	c.tcp = ln
	c.wg.Add(1)
	go c.serveTCP(ln)
	defer c.Close()

	// Pauses of 5, 10, 20, 40, 80 and 160 ms: at most 6 attempts in the
	// first 300 ms, where a loop without a pause makes thousands.
	time.Sleep(300 * time.Millisecond)
	if a := ln.accepts.Load(); a > 8 {
		t.Fatalf("%d Accept calls in 300ms", a)
	}
	if r := reports.Load(); r > 8 {
		t.Fatalf("%d errors reported in 300ms", r)
	}

	ln.failing.Store(false)
	client, server := net.Pipe()
	defer client.Close()
	select {
	case ln.conns <- server:
	case <-time.After(3 * time.Second):
		t.Fatal("Accept not retried after the failures stopped")
	}
	go fmt.Fprintf(client, "<189>Jan 10 00:00:15 r1 %%A-1-B: after backoff\n")
	waitFor(t, func() bool { return s.len() == 1 })
	if st := c.Stats(); st.Conns != 1 || st.Received != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLateCloseWakeupDoesNotEndDrain: Close wakes every blocked reader with
// a deadline of now, and that wake-up can land on a read that already runs
// under the drain deadline. It must not end the connection while the peer
// still delivers within closeQuiet.
func TestLateCloseWakeupDoesNotEndDrain(t *testing.T) {
	c, err := New(Config{TCPAddr: "127.0.0.1:0"}, func(syslogmsg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	client, server := net.Pipe()
	defer client.Close()
	tc := &tcpConn{c: c, conn: server}
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		buf := make([]byte, 16)
		n, err := tc.Read(buf)
		done <- result{n, err}
	}()
	time.Sleep(20 * time.Millisecond) // the read is blocked under its drain deadline
	server.SetReadDeadline(time.Now())
	time.Sleep(20 * time.Millisecond)
	client.SetWriteDeadline(time.Now().Add(time.Second))
	if _, err := client.Write([]byte("x\n")); err != nil {
		t.Fatalf("write after the wake-up: %v (the read ended)", err)
	}
	if r := <-done; r.n != 2 || r.err != nil {
		t.Fatalf("Read = %d, %v; want 2, nil", r.n, r.err)
	}
}

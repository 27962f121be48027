package collector

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"syslogdigest/internal/obs"
	"syslogdigest/internal/syslogmsg"
)

// sink is a concurrency-safe message recorder.
type sink struct {
	mu   sync.Mutex
	msgs []syslogmsg.Message
}

func (s *sink) handle(m syslogmsg.Message) {
	s.mu.Lock()
	s.msgs = append(s.msgs, m)
	s.mu.Unlock()
}

func (s *sink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func (s *sink) snapshot() []syslogmsg.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]syslogmsg.Message(nil), s.msgs...)
}

func startCollector(t *testing.T, cfg Config, h Handler) *Collector {
	t.Helper()
	c, err := New(cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{UDPAddr: "127.0.0.1:0"}, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	if _, err := New(Config{}, func(syslogmsg.Message) {}); err == nil {
		t.Fatal("no listeners accepted")
	}
}

func TestUDPDelivery(t *testing.T) {
	var s sink
	c := startCollector(t, Config{UDPAddr: "127.0.0.1:0", Year: 2010}, s.handle)

	conn, err := net.Dial("udp", c.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	lines := []string{
		"<189>Jan 10 00:00:15 r1 %LINK-3-UPDOWN: Interface Serial1/0, changed state to down",
		"<189>1 2010-01-10T00:00:16Z r2 router - LINEPROTO-5-UPDOWN - Line protocol on Interface Serial2/0, changed state to down",
		"2010-01-10 00:00:17|r3|BGP-5-ADJCHANGE|neighbor 10.0.0.1 vpn vrf 1000:1001 Up",
	}
	for _, l := range lines {
		if _, err := conn.Write([]byte(l)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return s.len() == 3 })

	got := s.snapshot()
	routers := map[string]bool{}
	for _, m := range got {
		routers[m.Router] = true
	}
	if !routers["r1"] || !routers["r2"] || !routers["r3"] {
		t.Fatalf("routers = %v", routers)
	}
	st := c.Stats()
	if st.Received != 3 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUDPBatchedDatagram(t *testing.T) {
	var s sink
	c := startCollector(t, Config{UDPAddr: "127.0.0.1:0", Year: 2010}, s.handle)
	conn, err := net.Dial("udp", c.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := "<189>Jan 10 00:00:15 r1 %A-1-B: one\n<189>Jan 10 00:00:16 r1 %A-1-B: two\n"
	if _, err := conn.Write([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.len() == 2 })
}

func TestTCPDelivery(t *testing.T) {
	var s sink
	var errCount int
	var errMu sync.Mutex
	c := startCollector(t, Config{
		TCPAddr: "127.0.0.1:0", Year: 2010,
		OnError: func(error) { errMu.Lock(); errCount++; errMu.Unlock() },
	}, s.handle)

	conn, err := net.Dial("tcp", c.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "<189>Jan 10 00:00:15 r1 %%LINK-3-UPDOWN: Interface Serial1/0, changed state to down\r\n")
	fmt.Fprintf(conn, "this is garbage\n")
	fmt.Fprintf(conn, "<189>Jan 10 00:00:16 r1 %%LINK-3-UPDOWN: Interface Serial1/0, changed state to up\n")
	conn.Close()

	waitFor(t, func() bool { return s.len() == 2 })
	waitFor(t, func() bool { return c.Stats().Dropped == 1 })
	errMu.Lock()
	defer errMu.Unlock()
	if errCount == 0 {
		t.Fatal("OnError never observed the garbage line")
	}
	if c.Stats().Conns != 1 {
		t.Fatalf("conns = %d", c.Stats().Conns)
	}
	// Per-connection order preserved.
	got := s.snapshot()
	if !got[0].Time.Before(got[1].Time) {
		t.Fatalf("order lost: %v then %v", got[0].Time, got[1].Time)
	}
}

func TestTCPConcurrentSenders(t *testing.T) {
	var s sink
	c := startCollector(t, Config{TCPAddr: "127.0.0.1:0", Year: 2010}, s.handle)

	const senders, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", c.TCPAddr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			for i := 0; i < per; i++ {
				fmt.Fprintf(conn, "<189>Jan 10 00:%02d:%02d r%d %%A-1-B: msg %d\n", g, i%60, g, i)
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, func() bool { return s.len() == senders*per })
	if st := c.Stats(); st.Received != senders*per || st.Conns != senders {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBothListeners(t *testing.T) {
	var s sink
	c := startCollector(t, Config{UDPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0", Year: 2010}, s.handle)
	u, err := net.Dial("udp", c.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	tc, err := net.Dial("tcp", c.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	u.Write([]byte("<189>Jan 10 00:00:15 u1 %A-1-B: via udp"))
	fmt.Fprintf(tc, "<189>Jan 10 00:00:16 t1 %%A-1-B: via tcp\n")
	tc.Close()
	waitFor(t, func() bool { return s.len() == 2 })
}

func TestCloseIdempotentAndGraceful(t *testing.T) {
	var s sink
	c := startCollector(t, Config{UDPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0"}, s.handle)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// After close the ports are released and Start cannot be reused.
	if err := c.Start(); err == nil {
		t.Fatal("restart after close accepted")
	}
}

func TestStartTwice(t *testing.T) {
	var s sink
	c := startCollector(t, Config{UDPAddr: "127.0.0.1:0"}, s.handle)
	if err := c.Start(); err == nil {
		t.Fatal("second Start accepted")
	}
}

// TestStartFailedTCPLeavesNothingRunning: when the TCP port is taken, Start
// fails before any reader starts. A UDP reader started first would spin on
// its closed socket, reporting "use of closed network connection" through
// OnError until the process exits.
func TestStartFailedTCPLeavesNothingRunning(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	var errs atomic.Int64
	c, err := New(Config{
		UDPAddr: "127.0.0.1:0", TCPAddr: taken.Addr().String(),
		OnError: func(error) { errs.Add(1) },
	}, func(syslogmsg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err == nil {
		t.Fatal("Start on a taken TCP port succeeded")
	}
	time.Sleep(100 * time.Millisecond)
	if n := errs.Load(); n != 0 {
		t.Fatalf("OnError fired %d times after a failed Start", n)
	}
	if c.UDPAddr() != nil {
		t.Fatalf("failed Start kept a UDP socket: %v", c.UDPAddr())
	}
}

func TestIndicesMonotone(t *testing.T) {
	var s sink
	c := startCollector(t, Config{UDPAddr: "127.0.0.1:0", Year: 2010}, s.handle)
	conn, err := net.Dial("udp", c.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 10; i++ {
		fmt.Fprintf(conn, "<189>Jan 10 00:00:%02d r1 %%A-1-B: m%d", i, i)
	}
	waitFor(t, func() bool { return s.len() == 10 })
	seen := map[uint64]bool{}
	for _, m := range s.snapshot() {
		if seen[m.Index] {
			t.Fatalf("duplicate index %d", m.Index)
		}
		seen[m.Index] = true
	}
}

// TestTCPOversizedLineKeepsConnection is the regression test for the
// silent-data-loss bug: an oversized line used to make bufio.Scanner return
// ErrTooLong and serveConn abandon the whole connection, discarding every
// later message from that router. Now the line is skipped, counted, and the
// connection keeps delivering.
func TestTCPOversizedLineKeepsConnection(t *testing.T) {
	var s sink
	reg := obs.NewRegistry()
	c := startCollector(t, Config{TCPAddr: "127.0.0.1:0", Year: 2010, MaxLineBytes: 256, Metrics: reg}, s.handle)
	conn, err := net.Dial("tcp", c.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 4096)
	for i := range big {
		big[i] = 'x'
	}
	// good — oversized — good, all on ONE connection.
	fmt.Fprintf(conn, "<189>Jan 10 00:00:15 r1 %%A-1-B: before\n")
	conn.Write(big)
	conn.Write([]byte("\n"))
	fmt.Fprintf(conn, "<189>Jan 10 00:00:16 r1 %%A-1-B: after\n")
	fmt.Fprintf(conn, "<189>Jan 10 00:00:17 r1 %%A-1-B: and another\n")
	conn.Close()

	waitFor(t, func() bool { return s.len() == 3 })
	got := s.snapshot()
	if got[0].Detail != "before" || got[1].Detail != "after" || got[2].Detail != "and another" {
		t.Fatalf("messages = %+v", got)
	}
	st := c.Stats()
	if st.Received != 3 || st.Oversized != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	snap := reg.Snapshot()
	if snap.Counter("collector.tcp.oversized") != 1 || snap.Counter("collector.tcp.received") != 3 {
		t.Fatalf("metrics = %+v", snap.Counters)
	}
}

// TestTCPOversizedSpanningBuffers sends a line many times the read buffer,
// exercising the multi-ErrBufferFull discard loop, then a good line.
func TestTCPOversizedSpanningBuffers(t *testing.T) {
	var s sink
	c := startCollector(t, Config{TCPAddr: "127.0.0.1:0", Year: 2010, MaxLineBytes: 64}, s.handle)
	conn, err := net.Dial("tcp", c.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 10_000)
	for i := range big {
		big[i] = 'y'
	}
	conn.Write(big)
	conn.Write([]byte("\n"))
	fmt.Fprintf(conn, "<189>Jan 10 00:00:15 r1 %%A-1-B: ok\n")
	conn.Close()
	waitFor(t, func() bool { return s.len() == 1 })
	if st := c.Stats(); st.Oversized != 1 || st.Received != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestUDPTruncatedDatagram is the regression test for the UDP half of the
// data-loss bug: a datagram larger than the read buffer used to be
// silently cut by ReadFrom and its mangled prefix parsed as a real
// message. Now it is dropped whole, counted, and surfaced via OnError.
func TestUDPTruncatedDatagram(t *testing.T) {
	var s sink
	var errMu sync.Mutex
	var errs []error
	reg := obs.NewRegistry()
	c := startCollector(t, Config{
		UDPAddr: "127.0.0.1:0", Year: 2010, MaxLineBytes: 256, Metrics: reg,
		OnError: func(err error) { errMu.Lock(); errs = append(errs, err); errMu.Unlock() },
	}, s.handle)
	conn, err := net.Dial("udp", c.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A valid message padded past MaxLineBytes: without truncation
	// detection the cut prefix would still parse and be delivered.
	big := []byte("<189>Jan 10 00:00:15 r1 %A-1-B: ")
	for len(big) < 1024 {
		big = append(big, 'z')
	}
	if _, err := conn.Write(big); err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("<189>Jan 10 00:00:16 r1 %A-1-B: small one"))

	waitFor(t, func() bool { return s.len() == 1 })
	waitFor(t, func() bool { return c.Stats().Truncated == 1 })
	if got := s.snapshot()[0].Detail; got != "small one" {
		t.Fatalf("delivered %q", got)
	}
	st := c.Stats()
	if st.Received != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if reg.Snapshot().Counter("collector.udp.truncated") != 1 {
		t.Fatalf("metrics = %+v", reg.Snapshot().Counters)
	}
	errMu.Lock()
	defer errMu.Unlock()
	found := false
	for _, e := range errs {
		if strings.Contains(e.Error(), "truncated") {
			found = true
		}
	}
	if !found {
		t.Fatalf("OnError never surfaced truncation: %v", errs)
	}
}

// TestUDPExactMaxSizeNotTruncated: a datagram of exactly MaxLineBytes is
// complete and must be delivered, not flagged.
func TestUDPExactMaxSizeNotTruncated(t *testing.T) {
	var s sink
	max := 256
	c := startCollector(t, Config{UDPAddr: "127.0.0.1:0", Year: 2010, MaxLineBytes: max}, s.handle)
	conn, err := net.Dial("udp", c.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("<189>Jan 10 00:00:15 r1 %A-1-B: ")
	for len(msg) < max {
		msg = append(msg, 'a')
	}
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.len() == 1 })
	if st := c.Stats(); st.Truncated != 0 || st.Received != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPerTransportMetrics checks the registry splits counters by transport.
func TestPerTransportMetrics(t *testing.T) {
	var s sink
	reg := obs.NewRegistry()
	c := startCollector(t, Config{UDPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0", Year: 2010, Metrics: reg}, s.handle)
	u, err := net.Dial("udp", c.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	tc, err := net.Dial("tcp", c.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	u.Write([]byte("<189>Jan 10 00:00:15 u1 %A-1-B: via udp"))
	u.Write([]byte("udp garbage"))
	fmt.Fprintf(tc, "<189>Jan 10 00:00:16 t1 %%A-1-B: via tcp\n")
	fmt.Fprintf(tc, "tcp garbage\n")
	tc.Close()
	waitFor(t, func() bool { return s.len() == 2 })
	waitFor(t, func() bool { return c.Stats().Dropped == 2 })
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"collector.udp.received": 1,
		"collector.udp.dropped":  1,
		"collector.tcp.received": 1,
		"collector.tcp.dropped":  1,
		"collector.tcp.conns":    1,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestUDPEmptyAndCRLF(t *testing.T) {
	var s sink
	c := startCollector(t, Config{UDPAddr: "127.0.0.1:0", Year: 2010}, s.handle)
	conn, err := net.Dial("udp", c.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("\n\n"))                                          // empty payload: ignored
	conn.Write([]byte("<189>Jan 10 00:00:15 r1 %A-1-B: crlf line\r\n")) // CR stripped
	waitFor(t, func() bool { return s.len() == 1 })
	if got := s.snapshot()[0].Detail; got != "crlf line" {
		t.Fatalf("Detail = %q", got)
	}
}

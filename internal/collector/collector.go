// Package collector implements the syslog transport side of the system: the
// paper's networks run collectors that every router streams its syslog to
// (via the standardized syslog protocol, RFC 5424/3164), and SyslogDigest's
// online half consumes the collected feed.
//
// Collector listens on UDP (datagram-per-message, classic syslog) and/or
// TCP (newline-framed, octet-stuffing style) and parses each message with
// syslogmsg.ParseWireBytes, which accepts RFC 5424, RFC 3164 and the
// repository's own line format. Parsed messages are handed to a caller
// handler in arrival order per connection; malformed input is counted and
// dropped, never fatal — an operational collector must survive garbage.
// Oversized input is likewise non-fatal: a TCP line longer than
// MaxLineBytes is skipped (the connection stays up and later lines keep
// flowing) and a UDP datagram larger than MaxLineBytes is dropped rather
// than parsed as a truncated mangle. Both cases count in Stats and surface
// through OnError, because silent loss is the one failure mode a
// production feed cannot tolerate.
//
// Every counter is also published per transport into an optional
// obs.Registry (Config.Metrics) under collector.udp.* / collector.tcp.*,
// so an exporter can serve them live.
//
// Each TCP connection is a two-stage pipeline so that parsing overlaps the
// handler: a reader goroutine frames lines, skips oversized ones, numbers
// and parses them into a fixed ring of reusable batches, and a delivery
// goroutine hands each batch's messages to the handler in order. The
// reader hands a batch over when it is full or just before it reads the
// socket again (the moment it might block), so a quiet connection's line
// is delivered at once and a busy one pays one handoff per buffer of lines.
// When every batch is waiting for the handler the reader stops reading, the
// socket buffer fills and TCP flow control slows the sender — the same
// backpressure as a single loop. UDP stays one loop: a datagram socket
// cannot tell whether more is queued without a syscall.
//
// Shutdown is graceful: Close stops the listeners, ends every TCP
// connection once it has gone quiet (what a peer has already sent is still
// read and delivered) and waits for every per-connection goroutine.
package collector

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"syslogdigest/internal/obs"
	"syslogdigest/internal/syslogmsg"
)

// Handler receives each successfully parsed message. Handlers are called
// from multiple goroutines (one delivery goroutine per TCP connection plus
// the UDP loop) and must be safe for concurrent use. Calls for one
// connection come from one goroutine, in arrival order; while a handler
// runs, that connection's reader parses up to 1 024 lines ahead of it and
// then stops reading the socket.
type Handler func(m syslogmsg.Message)

// A TCP connection's reader parses into connBatches batches of
// connBatchSize messages, reused for the connection's lifetime.
const (
	connBatches   = 4
	connBatchSize = 256
)

// After Close, a TCP connection is read until it has been quiet for
// closeQuiet, or until closeDrain after Close for a peer that keeps
// sending.
const (
	closeQuiet = 250 * time.Millisecond
	closeDrain = 5 * time.Second
)

// A persistent Accept failure (EMFILE) is retried after a pause that starts
// at acceptBackoffMin and doubles up to acceptBackoffMax, as net/http's
// Server does; a successful Accept resets it.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// Config configures a Collector.
type Config struct {
	// UDPAddr is the UDP listen address ("127.0.0.1:0" for an ephemeral
	// port); empty disables UDP.
	UDPAddr string
	// TCPAddr is the TCP listen address; empty disables TCP.
	TCPAddr string
	// Year is applied to year-less RFC 3164 timestamps; 0 dates each in the
	// year that puts it nearest the clock.
	Year int
	// OnError, when non-nil, observes per-line parse errors plus oversized
	// and truncated input (for logging); errors never stop the collector.
	OnError func(err error)
	// MaxLineBytes caps one TCP line / UDP datagram; 0 means 64 KiB.
	MaxLineBytes int
	// Metrics, when non-nil, receives the collector's per-transport
	// counters (collector.udp.*, collector.tcp.*). Stats works either way.
	Metrics *obs.Registry
}

// Stats are the collector's monotonic counters, summed across transports.
type Stats struct {
	Received  uint64 // messages successfully parsed and delivered
	Dropped   uint64 // malformed lines dropped
	Truncated uint64 // UDP datagrams larger than MaxLineBytes, dropped whole
	Oversized uint64 // TCP lines longer than MaxLineBytes, skipped
	Conns     uint64 // TCP connections accepted
}

// transportMetrics are one transport's counters.
type transportMetrics struct {
	received *obs.Counter
	dropped  *obs.Counter
}

// Collector is a running syslog listener pair.
type Collector struct {
	cfg     Config
	handler Handler

	udp net.PacketConn
	tcp net.Listener

	wg      sync.WaitGroup
	mu      sync.Mutex
	started bool
	done    chan struct{}         // closed by Close
	drainBy time.Time             // set by Close before done is closed
	live    map[net.Conn]struct{} // open TCP connections, under mu
	nextIdx atomic.Uint64

	udpMet    transportMetrics
	tcpMet    transportMetrics
	truncated *obs.Counter // udp only
	oversized *obs.Counter // tcp only
	conns     *obs.Counter // tcp only
}

// New creates a collector; Start binds and begins serving.
func New(cfg Config, handler Handler) (*Collector, error) {
	if handler == nil {
		return nil, errors.New("collector: nil handler")
	}
	if cfg.UDPAddr == "" && cfg.TCPAddr == "" {
		return nil, errors.New("collector: no listen addresses configured")
	}
	if cfg.MaxLineBytes == 0 {
		cfg.MaxLineBytes = 64 * 1024
	}
	reg := cfg.Metrics
	if reg == nil {
		// Stats always reads from the counters; a private registry keeps
		// the uninstrumented path identical to the instrumented one.
		reg = obs.NewRegistry()
	}
	return &Collector{
		cfg:     cfg,
		handler: handler,
		done:    make(chan struct{}),
		live:    map[net.Conn]struct{}{},
		udpMet: transportMetrics{
			received: reg.Counter("collector.udp.received"),
			dropped:  reg.Counter("collector.udp.dropped"),
		},
		tcpMet: transportMetrics{
			received: reg.Counter("collector.tcp.received"),
			dropped:  reg.Counter("collector.tcp.dropped"),
		},
		truncated: reg.Counter("collector.udp.truncated"),
		oversized: reg.Counter("collector.tcp.oversized"),
		conns:     reg.Counter("collector.tcp.conns"),
	}, nil
}

// Start binds the configured listeners and serves until Close.
func (c *Collector) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return errors.New("collector: already started")
	}
	if c.isClosed() {
		return errors.New("collector: already closed")
	}
	// Bind every listener before starting any goroutine, so a failed bind
	// leaves nothing running.
	var (
		pc  net.PacketConn
		ln  net.Listener
		err error
	)
	if c.cfg.UDPAddr != "" {
		if pc, err = net.ListenPacket("udp", c.cfg.UDPAddr); err != nil {
			return fmt.Errorf("collector: udp listen: %w", err)
		}
		// Syslog arrives in bursts (one storm = hundreds of datagrams in a
		// few milliseconds); a deep kernel buffer is the only defense UDP
		// has against drops. Best effort — not all platforms honor it.
		if uc, ok := pc.(*net.UDPConn); ok {
			_ = uc.SetReadBuffer(4 << 20)
		}
	}
	if c.cfg.TCPAddr != "" {
		if ln, err = net.Listen("tcp", c.cfg.TCPAddr); err != nil {
			if pc != nil {
				pc.Close()
			}
			return fmt.Errorf("collector: tcp listen: %w", err)
		}
	}
	if pc != nil {
		c.udp = pc
		c.wg.Add(1)
		go c.serveUDP(pc)
	}
	if ln != nil {
		c.tcp = ln
		c.wg.Add(1)
		go c.serveTCP(ln)
	}
	c.started = true
	return nil
}

// UDPAddr returns the bound UDP address (nil when UDP is disabled).
func (c *Collector) UDPAddr() net.Addr {
	if c.udp == nil {
		return nil
	}
	return c.udp.LocalAddr()
}

// TCPAddr returns the bound TCP address (nil when TCP is disabled).
func (c *Collector) TCPAddr() net.Addr {
	if c.tcp == nil {
		return nil
	}
	return c.tcp.Addr()
}

// Stats returns a snapshot of the counters.
func (c *Collector) Stats() Stats {
	return Stats{
		Received:  c.udpMet.received.Value() + c.tcpMet.received.Value(),
		Dropped:   c.udpMet.dropped.Value() + c.tcpMet.dropped.Value(),
		Truncated: c.truncated.Value(),
		Oversized: c.oversized.Value(),
		Conns:     c.conns.Value(),
	}
}

// Close stops the listeners, ends every TCP connection once it has gone
// quiet and waits for in-flight deliveries to finish: a connection is still
// read — and what its peer already sent delivered — until no byte arrives
// for closeQuiet, or at most until closeDrain after Close. A line left
// incomplete when a connection ends is delivered as it stands, as at the
// end of a stream. It is idempotent.
func (c *Collector) Close() error {
	c.mu.Lock()
	if c.isClosed() {
		c.mu.Unlock()
		return nil
	}
	c.drainBy = time.Now().Add(closeDrain)
	close(c.done)
	udp, tcp := c.udp, c.tcp
	c.mu.Unlock()

	var first error
	if udp != nil {
		if err := udp.Close(); err != nil {
			first = err
		}
	}
	if tcp != nil {
		if err := tcp.Close(); err != nil && first == nil {
			first = err
		}
	}
	// Wake every reader blocked on its socket; it reads on under the drain
	// deadline (tcpConn.Read). A connection accepted after this loop sees
	// done closed on its first read.
	c.mu.Lock()
	for conn := range c.live {
		_ = conn.SetReadDeadline(time.Now())
	}
	c.mu.Unlock()
	c.wg.Wait()
	return first
}

func (c *Collector) isClosed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

func (c *Collector) serveUDP(pc net.PacketConn) {
	defer c.wg.Done()
	// One byte beyond the cap distinguishes "exactly MaxLineBytes" (fine)
	// from "larger, and ReadFrom silently discarded the rest" (truncated).
	buf := make([]byte, c.cfg.MaxLineBytes+1)
	for {
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			if c.isClosed() {
				return
			}
			c.observe(fmt.Errorf("collector: udp read: %w", err))
			continue
		}
		if n > c.cfg.MaxLineBytes {
			// The tail of the datagram is gone; parsing the remaining
			// prefix would deliver a mangled message as if it were real.
			c.truncated.Inc()
			c.observe(fmt.Errorf("collector: udp datagram exceeds %d bytes, dropped (truncated by read)", c.cfg.MaxLineBytes))
			continue
		}
		// One datagram usually carries one message, but tolerate senders
		// that batch lines.
		c.deliverLines(buf[:n], &c.udpMet)
	}
}

func (c *Collector) serveTCP(ln net.Listener) {
	defer c.wg.Done()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if c.isClosed() {
				return
			}
			c.observe(fmt.Errorf("collector: accept: %w", err))
			backoff = min(max(2*backoff, acceptBackoffMin), acceptBackoffMax)
			select {
			case <-time.After(backoff):
			case <-c.done:
				return
			}
			continue
		}
		backoff = 0
		c.conns.Inc()
		c.serveConn(conn)
	}
}

// serveConn starts a connection's reader and delivery goroutines. The
// batches cycle from free to the reader, through full to delivery, and
// back; all of them are one allocation.
func (c *Collector) serveConn(conn net.Conn) {
	c.mu.Lock()
	c.live[conn] = struct{}{}
	c.mu.Unlock()
	t := &tcpConn{
		c:    c,
		conn: conn,
		full: make(chan []syslogmsg.Message, connBatches),
		free: make(chan []syslogmsg.Message, connBatches),
	}
	backing := make([]syslogmsg.Message, connBatches*connBatchSize)
	for i := 0; i < connBatches; i++ {
		t.free <- backing[i*connBatchSize : i*connBatchSize : (i+1)*connBatchSize]
	}
	c.wg.Add(2)
	go t.read()
	go t.deliver()
}

// tcpConn is one TCP connection's pipeline.
type tcpConn struct {
	c          *Collector
	conn       net.Conn
	cur        []syslogmsg.Message // the batch the reader is filling
	full, free chan []syslogmsg.Message
}

// read reads newline-framed lines. A line longer than MaxLineBytes is
// skipped and counted — bufio.Scanner would instead return ErrTooLong and
// end the loop, silently discarding every later message on the connection
// (one chatty router's single giant line used to blind the collector to
// that router until it reconnected).
func (t *tcpConn) read() {
	c := t.c
	defer c.wg.Done()
	defer close(t.full)
	defer func() {
		t.conn.Close()
		c.mu.Lock()
		delete(c.live, t.conn)
		c.mu.Unlock()
	}()
	t.cur = <-t.free
	// +1 so a line of exactly MaxLineBytes plus its newline still fits.
	br := bufio.NewReaderSize(t, c.cfg.MaxLineBytes+1)
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			c.oversized.Inc()
			c.observe(fmt.Errorf("collector: tcp line exceeds %d bytes, skipped", c.cfg.MaxLineBytes))
			// Discard the rest of the oversized line, then continue with
			// the next one.
			for err == bufio.ErrBufferFull {
				_, err = br.ReadSlice('\n')
			}
			if err != nil {
				t.end(err)
				return
			}
			continue
		}
		if len(line) > 0 && line[len(line)-1] == '\n' {
			line = line[:len(line)-1]
		}
		if m, ok := c.parseLine(line, &c.tcpMet); ok {
			t.cur = append(t.cur, m)
			if len(t.cur) == connBatchSize {
				t.handOver()
			}
		}
		if err != nil {
			t.end(err)
			return
		}
	}
}

// end hands over the last messages and reports the connection's terminal
// error (EOF is a clean close).
func (t *tcpConn) end(err error) {
	if len(t.cur) > 0 {
		t.full <- t.cur
	}
	if err != io.EOF && !t.c.isClosed() {
		t.c.observe(fmt.Errorf("collector: conn read: %w", err))
	}
}

// handOver passes the filled batch to delivery and takes a free one,
// waiting while every batch is in use.
func (t *tcpConn) handOver() {
	t.full <- t.cur
	t.cur = <-t.free
}

// Read is the line reader's source. Before every socket read — the moment
// the reader might block — the messages parsed so far go to delivery. Once
// the collector is closed each read gets the drain deadline, and only that
// deadline ends the connection: Close's wake-up, which may land on a read
// begun before or after, is retried.
func (t *tcpConn) Read(p []byte) (int, error) {
	if len(t.cur) > 0 {
		t.handOver()
	}
	for {
		var deadline time.Time
		if t.c.isClosed() {
			deadline = time.Now().Add(closeQuiet)
			if t.c.drainBy.Before(deadline) {
				deadline = t.c.drainBy
			}
			_ = t.conn.SetReadDeadline(deadline)
		}
		n, err := t.conn.Read(p)
		if n > 0 || !errors.Is(err, os.ErrDeadlineExceeded) ||
			(!deadline.IsZero() && !time.Now().Before(deadline)) {
			return n, err
		}
	}
}

// deliver calls the handler for each message of each batch, in order, and
// returns the batch cleared so it does not pin line strings.
func (t *tcpConn) deliver() {
	defer t.c.wg.Done()
	for b := range t.full {
		for i := range b {
			t.c.tcpMet.received.Inc()
			t.c.handler(b[i])
		}
		clear(b)
		t.free <- b[:0]
	}
}

// deliverLines splits a datagram payload into lines and delivers each.
func (c *Collector) deliverLines(payload []byte, tm *transportMetrics) {
	start := 0
	for i := 0; i <= len(payload); i++ {
		if i == len(payload) || payload[i] == '\n' {
			if m, ok := c.parseLine(payload[start:i], tm); ok {
				tm.received.Inc()
				c.handler(m)
			}
			start = i + 1
		}
	}
}

// parseLine numbers and parses one wire line in place — line aliases a
// transport buffer and is only valid for the duration of the call;
// ParseWireBytes copies what the Message keeps. A malformed line is counted
// on tm and reported; an empty one is skipped unnumbered.
func (c *Collector) parseLine(line []byte, tm *transportMetrics) (syslogmsg.Message, bool) {
	if len(line) == 0 {
		return syslogmsg.Message{}, false
	}
	if line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	idx := c.nextIdx.Add(1) - 1
	m, err := syslogmsg.ParseWireBytes(line, idx, c.cfg.Year)
	if err != nil {
		tm.dropped.Inc()
		c.observe(err)
		return m, false
	}
	return m, true
}

func (c *Collector) observe(err error) {
	if c.cfg.OnError != nil {
		c.cfg.OnError(err)
	}
}

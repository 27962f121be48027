package collector

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"

	"syslogdigest/internal/syslogmsg"
)

// refServeConn is the single-goroutine connection loop the reader/delivery
// pipeline replaced: read a line, parse it, call the handler, read the
// next. The differential tests below require the pipeline to deliver what
// it delivers, in the same order and with the same indices, and to count
// and report the same input.
func refServeConn(c *Collector, conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()
	br := bufio.NewReaderSize(conn, c.cfg.MaxLineBytes+1)
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			c.oversized.Inc()
			c.observe(fmt.Errorf("collector: tcp line exceeds %d bytes, skipped", c.cfg.MaxLineBytes))
			for err == bufio.ErrBufferFull {
				_, err = br.ReadSlice('\n')
			}
			if err != nil {
				refConnDone(c, err)
				return
			}
			continue
		}
		if len(line) > 0 && line[len(line)-1] == '\n' {
			line = line[:len(line)-1]
		}
		if len(line) > 0 {
			refDeliverLine(c, line)
		}
		if err != nil {
			refConnDone(c, err)
			return
		}
	}
}

func refConnDone(c *Collector, err error) {
	if err != io.EOF && !c.isClosed() {
		c.observe(fmt.Errorf("collector: conn read: %w", err))
	}
}

func refDeliverLine(c *Collector, line []byte) {
	if line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	idx := c.nextIdx.Add(1) - 1
	m, err := syslogmsg.ParseWireBytes(line, idx, c.cfg.Year)
	if err != nil {
		c.tcpMet.dropped.Inc()
		c.observe(err)
		return
	}
	c.tcpMet.received.Inc()
	c.handler(m)
}

// connRun is what one connection did: the handler's messages in call
// order, the OnError reports in order, and the counters.
type connRun struct {
	msgs  []syslogmsg.Message
	errs  []string
	stats Stats
}

// runConn feeds data through serve on one in-memory connection, written in
// chunks whose lengths come from splits (each byte is one chunk of b+1
// bytes; the rest goes in one write), then hangs up and waits for the
// connection's goroutines to finish.
func runConn(t testing.TB, serve func(*Collector, net.Conn), maxLine int, data, splits []byte) connRun {
	t.Helper()
	var r connRun
	c, err := New(Config{
		TCPAddr: "127.0.0.1:0", Year: 2010, MaxLineBytes: maxLine,
		OnError: func(err error) { r.errs = append(r.errs, err.Error()) },
	}, func(m syslogmsg.Message) { r.msgs = append(r.msgs, m) })
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	serve(c, server)
	go func() {
		defer client.Close()
		for len(data) > 0 {
			n := len(data)
			if len(splits) > 0 {
				n = min(n, int(splits[0])+1)
				splits = splits[1:]
			}
			if _, err := client.Write(data[:n]); err != nil {
				return
			}
			data = data[n:]
		}
	}()
	c.wg.Wait()
	r.stats = c.Stats()
	return r
}

func servePipeline(c *Collector, conn net.Conn) { c.serveConn(conn) }

func serveReference(c *Collector, conn net.Conn) {
	c.wg.Add(1)
	go refServeConn(c, conn)
}

// checkConnAgainstReference runs one input through the pipeline and the
// reference loop and fails on any difference.
func checkConnAgainstReference(t testing.TB, maxLine int, data, splits []byte) {
	t.Helper()
	want := runConn(t, serveReference, maxLine, data, splits)
	got := runConn(t, servePipeline, maxLine, data, splits)
	if len(got.msgs) != len(want.msgs) {
		t.Fatalf("delivered %d messages, reference %d", len(got.msgs), len(want.msgs))
	}
	for i := range want.msgs {
		if !reflect.DeepEqual(got.msgs[i], want.msgs[i]) {
			t.Fatalf("message %d = %+v, reference %+v", i, got.msgs[i], want.msgs[i])
		}
	}
	if !reflect.DeepEqual(got.errs, want.errs) {
		t.Fatalf("errors = %q, reference %q", got.errs, want.errs)
	}
	if got.stats != want.stats {
		t.Fatalf("stats = %+v, reference %+v", got.stats, want.stats)
	}
}

// connCorpus is n lines mixing every path of the line reader: valid lines
// in the three wire formats, garbage, empty lines, CRLF endings, a lone
// CR and lines longer than maxLine; the last line has no newline.
func connCorpus(rng *rand.Rand, n, maxLine int) []byte {
	var b strings.Builder
	for i := 0; i < n; i++ {
		switch k := rng.Intn(20); {
		case k < 10:
			fmt.Fprintf(&b, "<189>Jan 10 00:%02d:%02d r%d %%A-1-B: m%d", i/60%60, i%60, i%7, i)
		case k < 12:
			fmt.Fprintf(&b, "<189>1 2010-01-10T00:00:%02dZ r%d router - LINK-3-UPDOWN - m%d", i%60, i%5, i)
		case k < 14:
			fmt.Fprintf(&b, "2010-01-10 00:00:%02d|r%d|BGP-5-ADJCHANGE|m%d", i%60, i%3, i)
		case k < 15:
			b.WriteString("garbage")
		case k < 16:
		case k < 17:
			b.WriteString("\r")
		default:
			b.WriteString("<189>Jan 10 00:00:00 big %A-1-B: ")
			b.WriteString(strings.Repeat("x", maxLine+rng.Intn(3*maxLine)))
		}
		if i < n-1 {
			if rng.Intn(4) == 0 {
				b.WriteString("\r")
			}
			b.WriteString("\n")
		}
	}
	return []byte(b.String())
}

// TestConnReaderMatchesReference crosses many batch boundaries — several
// thousand lines, split into writes of random length — at a small line cap
// and at the default one.
func TestConnReaderMatchesReference(t *testing.T) {
	for _, maxLine := range []int{64, 64 * 1024} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("max=%d/seed=%d", maxLine, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				data := connCorpus(rng, 4000, 64)
				splits := make([]byte, 2000)
				rng.Read(splits)
				checkConnAgainstReference(t, maxLine, data, splits)
			})
		}
	}
}

// FuzzConnReader: on any bytes, written in any chunks, with a line cap of
// 16 to 64 bytes, the pipeline delivers, counts and reports exactly what
// the single-goroutine loop does.
func FuzzConnReader(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	f.Add(connCorpus(rng, 40, 32), []byte{3, 17, 0, 200}, uint8(16))
	f.Add([]byte("<189>Jan 10 00:00:15 r1 %A-1-B: ok\r\n\n\r\ngarbage\n<189>Jan 10 00:00:16 r1 %A-1-B: tail"), []byte{0, 0, 5}, uint8(40))
	f.Add([]byte(strings.Repeat("y", 200)+"\n2010-01-10 00:00:17|r3|BGP-5-ADJCHANGE|up\n"), []byte{63}, uint8(0))
	f.Add([]byte{}, []byte{}, uint8(48))
	f.Fuzz(func(t *testing.T, data, splits []byte, maxLine uint8) {
		checkConnAgainstReference(t, 16+int(maxLine)%49, data, splits)
	})
}

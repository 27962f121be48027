package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/rules"
)

// ServerMetrics are a shard server's optional observability handles
// (nil-safe).
type ServerMetrics struct {
	Connections    *obs.Counter // sessions accepted
	Batches        *obs.Counter // batch frames processed
	Messages       *obs.Counter // messages stepped
	BytesIn        *obs.Counter
	BytesOut       *obs.Counter
	StateSnapshots *obs.Counter // state requests served
	Restores       *obs.Counter // restore frames applied
}

// ServerConfig configures a shard server. Dict is required; Rules may be
// nil (temporal-only configs).
type ServerConfig struct {
	Dict    *locdict.Dictionary
	Rules   *rules.RuleBase
	Metrics ServerMetrics
	// Logf receives session lifecycle and error lines; nil discards them.
	Logf func(format string, args ...any)
}

// Server hosts RouterLocal shard sessions. Each accepted connection is one
// independent session owning one RouterLocal: the dispatcher opens one
// connection per shard, so pointing several `-shards` entries at the same
// server hosts that many locals in one process. Session state lives and
// dies with its connection — a dropped connection IS a shard restart, and
// the client re-seeds the replacement through the Restore/replay path.
type Server struct {
	cfg ServerConfig
	sig string
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve listens on addr (host:port, port 0 for ephemeral) and accepts
// shard sessions until Close.
func Serve(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.Dict == nil {
		return nil, errors.New("cluster: server needs a location dictionary")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	s := &Server{
		cfg:   cfg,
		sig:   Fingerprint(cfg.Dict, cfg.Rules),
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr is the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.cfg.Metrics.Connections.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.session(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// KillSessions drops every live session without stopping the listener —
// the shard-restart injection the differential tests use. Each dropped
// session loses its RouterLocal, exactly like a crashed shard process.
func (s *Server) KillSessions() {
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
}

// Close stops the listener and drops every session.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// countingWriter / countingReader feed the byte counters.
type countingWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(uint64(n))
	return n, err
}

type countingReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(uint64(n))
	return n, err
}

// session runs one shard connection to completion. Protocol errors are
// fatal for the session (the client reconnects and re-seeds); shard-side
// Step errors are reported in-band and the session stays up.
func (s *Server) session(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(countingReader{conn, s.cfg.Metrics.BytesIn}, 64<<10)
	bw := bufio.NewWriterSize(countingWriter{conn, s.cfg.Metrics.BytesOut}, 64<<10)

	fail := func(stage string, err error) {
		if err != io.EOF && !errors.Is(err, net.ErrClosed) {
			s.logf("cluster: session %s: %s: %v", conn.RemoteAddr(), stage, err)
		}
	}

	// Handshake. A Restore the Hello announces is read before anything is
	// answered and applied before the Welcome, so a seed this shard refuses
	// is a rejection the client will not retry, not a dropped session.
	typ, payload, buf, err := readFrame(br, nil)
	if err != nil {
		fail("hello", err)
		return
	}
	var hello Hello
	if typ != FrameHello {
		fail("hello", fmt.Errorf("unexpected frame type %d", typ))
		return
	}
	if err := unmarshalJSONFrame(payload, &hello); err != nil {
		fail("hello", err)
		return
	}
	var restore []byte // aliases buf until the next frame read
	if hello.Restore {
		if typ, restore, buf, err = readFrame(br, buf); err != nil {
			fail("restore", err)
			return
		}
		if typ != FrameRestore {
			fail("restore", fmt.Errorf("unexpected frame type %d", typ))
			return
		}
	}
	reject := func(msg string) {
		raw, _ := marshalJSONFrame(Welcome{Error: msg})
		writeFrame(bw, FrameWelcome, raw)
		bw.Flush()
		s.logf("cluster: session %s rejected: %s", conn.RemoteAddr(), msg)
	}
	if hello.KBSig != s.sig {
		reject(fmt.Sprintf("knowledge mismatch: client %q, server %q", hello.KBSig, s.sig))
		return
	}
	if hello.Shard < 0 || hello.Workers < 1 || hello.Shard >= hello.Workers {
		reject(fmt.Sprintf("bad shard identity %d/%d", hello.Shard, hello.Workers))
		return
	}
	shardable, err := grouping.NewShardable(s.cfg.Dict, s.cfg.Rules, grouping.IncrementalConfig{
		Config:     hello.Config,
		MaxStreams: hello.MaxStreams,
	})
	if err != nil {
		reject(fmt.Sprintf("grouping config: %v", err))
		return
	}
	var dd decDict
	local := shardable.NewLocal(hello.MaxStreams)
	if hello.Restore {
		res, err := decodeRestore(restore)
		if err == nil {
			local, err = shardable.RestoreLocal(res.Part, hello.MaxStreams)
		}
		if err != nil {
			reject(fmt.Sprintf("restore: %v", err))
			return
		}
		dd.seed(res.Dict)
		s.cfg.Metrics.Restores.Inc()
	}
	raw, err := marshalJSONFrame(Welcome{OK: true})
	if err != nil {
		fail("welcome", err)
		return
	}
	if err := writeFrame(bw, FrameWelcome, raw); err != nil {
		fail("welcome", err)
		return
	}
	if err := bw.Flush(); err != nil {
		fail("welcome", err)
		return
	}

	var (
		js      grouping.Joins
		items   []DecisionItem
		arena   []uint64
		frame   []byte
		stepErr string
	)

	for {
		typ, payload, buf, err = readFrame(br, buf)
		if err != nil {
			fail("read", err)
			return
		}
		switch typ {
		case FrameBatch:
			h, bd, err := decodeBatch(payload, &dd)
			if err != nil {
				fail("batch", err)
				return
			}
			items = items[:0]
			arena = arena[:0]
			stepErr = ""
			var m grouping.Message
			for {
				ok, err := bd.next(&m)
				if err != nil {
					fail("batch", err)
					return
				}
				if !ok {
					break
				}
				// GC-managed records, not the recycling pool: with no merger
				// on this side holding group references, a pooled predecessor
				// could hit zero references (and be cleared for reuse) during
				// a later Step in the same batch, before its Seq is read off
				// the join decision below. GC-managed records just decrement.
				p := grouping.NewPending(m)
				if err := local.Step(p, &js); err != nil {
					p.Release()
					stepErr = err.Error()
					break
				}
				it := DecisionItem{RS: int32(len(arena))}
				if js.Temporal != nil {
					it.Temporal = uint64(m.Seq - js.Temporal.Msg().Seq)
				}
				for _, mi := range js.Rules {
					arena = append(arena, uint64(m.Seq-mi.Msg().Seq))
				}
				it.RE = int32(len(arena))
				items = append(items, it)
				p.Release()
			}
			if h.Drain && stepErr == "" {
				local.DrainWindows()
			}
			s.cfg.Metrics.Batches.Inc()
			s.cfg.Metrics.Messages.Add(uint64(len(items)))
			frame = appendDecisions(beginFrame(frame[:0], FrameDecisions), h.Seq, items, arena, local.Stats(), stepErr)
			if _, err := bw.Write(finishFrame(frame, 0)); err != nil {
				fail("write", err)
				return
			}
			if err := bw.Flush(); err != nil {
				fail("write", err)
				return
			}

		case FrameStateReq:
			token, err := decodeStateReq(payload)
			if err != nil {
				fail("statereq", err)
				return
			}
			part := grouping.CaptureLocal(local)
			frame = appendState(beginFrame(frame[:0], FrameState), token, &part)
			if _, err := bw.Write(finishFrame(frame, 0)); err != nil {
				fail("write", err)
				return
			}
			if err := bw.Flush(); err != nil {
				fail("write", err)
				return
			}

		default:
			fail("read", fmt.Errorf("unexpected frame type %d", typ))
			return
		}
	}
}

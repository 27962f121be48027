package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"syslogdigest/internal/grouping"
	"syslogdigest/internal/obs"
)

// ClientMetrics are a shard client's optional observability handles
// (nil-safe). All clients of one engine may share the same handles — the
// counters are engine-global.
type ClientMetrics struct {
	BytesOut       *obs.Counter
	BytesIn        *obs.Counter
	BatchesSent    *obs.Counter // batches enqueued toward a shard
	BatchesAcked   *obs.Counter // decision batches delivered to the merge
	Replayed       *obs.Counter // batch frames re-sent into a replacement session
	Reconnects     *obs.Counter // successful re-dials (the first dial is free)
	StateSnapshots *obs.Counter // state responses received
	RTT            *obs.Histogram
	Inflight       *obs.Gauge // batches sent and not yet acked
}

// ClientConfig configures one shard connection.
type ClientConfig struct {
	Addr       string
	Shard      int // this client's shard index
	Workers    int // total shard count
	MaxStreams int // per-shard temporal model cap
	KBSig      string
	Config     grouping.Config

	Metrics ClientMetrics
	Logf    func(format string, args ...any)

	// stateEvery asks the shard for a state snapshot every N batches; the
	// snapshot becomes the reconnect seed and truncates the replay log.
	// <= 0 defaults to defaultStateEvery.
	stateEvery int
	// maxAttempts bounds consecutive failed dials before the client gives
	// up and fails the engine. <= 0 defaults to defaultMaxAttempts.
	maxAttempts int
	// backoff is the initial retry delay, doubling per attempt up to
	// maxBackoff. <= 0 defaults to defaultBackoff.
	backoff time.Duration
}

const (
	// defaultStateEvery bounds the replay log to at most this many batches
	// (plus whatever is in flight) per shard.
	defaultStateEvery = 64
	// defaultMaxAttempts bounds a reconnect storm before the engine fails.
	defaultMaxAttempts = 10
	defaultBackoff     = 25 * time.Millisecond
	maxBackoff         = 2 * time.Second
	clientQueueDepth   = 4
	decQueueDepth      = 8
)

type reqKind uint8

const (
	reqBatch reqKind = iota
	reqState
)

type sendReq struct {
	kind  reqKind
	seq   uint64 // batch seq (>= 1), or state token
	frame []byte
}

type replayEntry struct {
	seq   uint64
	frame []byte
}

// seedState is the reconnect seed: the shard's state as of batch seq, the
// connection dictionary's prefix as of that state, and the part as the
// validated bytes of its State body — a Restore frame re-sends them as
// they are, so a seed is never decoded or encoded again.
type seedState struct {
	seq  uint64
	dict []string
	part []byte
}

type stateWait struct {
	token uint64
	ch    chan stateResult
}

type stateResult struct {
	part grouping.LocalPartState
	err  error
}

// Client drives one shard connection for the cluster engine.
//
// Threading: the dispatcher goroutine owns the symbol dictionary and
// encodes batches in SendBatch; a run goroutine owns the connection and
// all writes; one reader goroutine per connection decodes decision and
// state frames (at most one reader is ever alive — the run goroutine
// waits a dead connection's reader out before dialing again). Reconnects
// re-seed the session from the last state snapshot and replay the
// retained batch frames; batch sequence numbers start at 1 and the
// delivered cursor dedupes replay re-answers, so every batch reaches the
// merge exactly once and the shard steps every batch at most once per
// session state — see DESIGN "Cluster mode" for the soundness argument.
type Client struct {
	cfg ClientConfig
	met ClientMetrics

	ed       *encDict // dispatcher goroutine only
	lastSeq  uint64   // dispatcher goroutine only: last batch seq enqueued
	frameCap int      // dispatcher goroutine only: last batch frame's length, the next one's starting capacity

	sendCh   chan sendReq
	decCh    chan *DecisionBatch
	connLost chan net.Conn
	free     chan *DecisionBatch
	runDone  chan struct{}

	mu         sync.Mutex
	replay     []replayEntry
	seed       *seedState
	delivered  uint64 // highest batch seq pushed to decCh
	sendTimes  map[uint64]time.Time
	stateDicts map[uint64][]string // token → dict prefix at enqueue
	waiter     *stateWait
	err        error
	failed     bool

	sent  atomic.Uint64
	acked atomic.Uint64

	// run-goroutine connection state
	conn          net.Conn
	readerDone    chan struct{}
	lastWritten   uint64 // highest batch seq written into the current session
	everConnected bool
	decClosed     bool
}

// NewClient prepares a shard connection; the dial happens lazily on the
// first send. seed, when non-nil, re-seeds the remote shard from a
// checkpoint part before any batch is sent (a restored cluster engine); it
// is encoded once, here. A seed the shard refuses fails the client.
func NewClient(cfg ClientConfig, seed *grouping.LocalPartState) *Client {
	if cfg.stateEvery <= 0 {
		cfg.stateEvery = defaultStateEvery
	}
	if cfg.maxAttempts <= 0 {
		cfg.maxAttempts = defaultMaxAttempts
	}
	if cfg.backoff <= 0 {
		cfg.backoff = defaultBackoff
	}
	c := &Client{
		cfg:        cfg,
		met:        cfg.Metrics,
		ed:         newEncDict(),
		sendCh:     make(chan sendReq, clientQueueDepth),
		decCh:      make(chan *DecisionBatch, decQueueDepth),
		connLost:   make(chan net.Conn, 4),
		free:       make(chan *DecisionBatch, decQueueDepth),
		runDone:    make(chan struct{}),
		sendTimes:  make(map[uint64]time.Time),
		stateDicts: make(map[uint64][]string),
	}
	if seed != nil {
		c.seed = &seedState{part: appendPart(nil, seed)}
	}
	go c.run()
	return c
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Decisions is the stream of completed batches, in batch-seq order. The
// channel closes when the client fails permanently or is closed; Err
// reports why.
func (c *Client) Decisions() <-chan *DecisionBatch { return c.decCh }

// Err reports the permanent failure, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Recycle hands a fully-consumed decision batch back for reuse.
func (c *Client) Recycle(db *DecisionBatch) {
	select {
	case c.free <- db:
	default:
	}
}

func (c *Client) getDecBuf() *DecisionBatch {
	select {
	case db := <-c.free:
		return db
	default:
		return &DecisionBatch{}
	}
}

// SendBatch encodes one sub-batch (which may be empty — every batch gets
// one frame per shard, preserving the sync invariant), appends it to the
// replay log, and enqueues it. seq must start at 1 and increase by 1.
// Blocks when the pipe is full: the shard connection is the backpressure
// boundary. Dispatcher goroutine only.
func (c *Client) SendBatch(seq uint64, drain bool, msgs []*grouping.Pending) {
	frame := beginFrame(make([]byte, 0, c.frameCap), FrameBatch)
	frame = finishFrame(appendBatch(frame, c.ed, seq, drain, msgs), 0)
	c.frameCap = len(frame)
	c.lastSeq = seq
	c.mu.Lock()
	failed := c.failed
	if !failed {
		c.replay = append(c.replay, replayEntry{seq: seq, frame: frame})
	}
	c.mu.Unlock()
	if failed {
		return // the engine is failing; drop quietly
	}
	c.met.BatchesSent.Inc()
	c.sent.Add(1)
	c.publishInflight()
	c.sendCh <- sendReq{kind: reqBatch, seq: seq, frame: frame}
	if seq%uint64(c.cfg.stateEvery) == 0 {
		c.enqueueStateReq(seq, nil)
	}
}

// FetchState asks the shard for its LocalPartState as of every batch sent
// so far. The caller must be quiescent with every outstanding batch acked
// (the engine's sync barrier guarantees both) — quiescence is what makes
// the token, the dictionary prefix, and a possible reconnect re-request
// agree on the same batch prefix. Dispatcher goroutine only.
func (c *Client) FetchState(timeout time.Duration) (grouping.LocalPartState, error) {
	ch := make(chan stateResult, 1)
	c.enqueueStateReq(c.lastSeq, ch)
	select {
	case res := <-ch:
		return res.part, res.err
	case <-time.After(timeout):
		return grouping.LocalPartState{}, fmt.Errorf("cluster: shard %d state fetch timed out after %v", c.cfg.Shard, timeout)
	}
}

func (c *Client) enqueueStateReq(token uint64, waiter chan stateResult) {
	prefix := c.ed.prefix(c.ed.len())
	c.mu.Lock()
	if c.failed {
		err := c.err
		c.mu.Unlock()
		if waiter != nil {
			waiter <- stateResult{err: err}
		}
		return
	}
	c.stateDicts[token] = prefix
	if waiter != nil {
		c.waiter = &stateWait{token: token, ch: waiter}
	}
	c.mu.Unlock()
	frame := appendFrame(nil, FrameStateReq, appendStateReq(nil, token))
	c.sendCh <- sendReq{kind: reqState, seq: token, frame: frame}
}

// Close tears the connection down. Callers stop consuming Decisions
// first; any undelivered decisions are discarded.
func (c *Client) Close() {
	close(c.sendCh)
	<-c.runDone
}

func (c *Client) publishInflight() {
	c.met.Inflight.Set(float64(c.sent.Load() - c.acked.Load()))
}

// run owns the connection: dials lazily, writes frames in order, and
// re-dials (seed + replay) when the connection drops.
func (c *Client) run() {
	defer close(c.runDone)
	for {
		select {
		case req, ok := <-c.sendCh:
			if !ok {
				c.teardown()
				return
			}
			c.handleSend(req)
		case lost := <-c.connLost:
			if lost == c.conn && c.conn != nil && !c.isFailed() {
				c.logf("cluster: shard %d connection lost, reconnecting", c.cfg.Shard)
				if err := c.redial(); err != nil {
					c.fail(err)
				}
			}
		}
	}
}

func (c *Client) isFailed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

func (c *Client) handleSend(req sendReq) {
	if c.isFailed() {
		return
	}
	for {
		if c.conn == nil {
			if err := c.redial(); err != nil {
				c.fail(err)
				return
			}
		}
		// A batch at or below the session's high-water mark was already
		// replayed into this session; writing it again would step the shard
		// twice. A state request strictly below the mark is stale the same
		// way: the session has advanced past its token, so the response
		// would bake later batches into a seed labeled with an earlier one.
		// (token == lastWritten is the normal case: state as of the batch
		// just written.)
		if req.kind == reqBatch && req.seq <= c.lastWritten {
			return
		}
		if req.kind == reqState && req.seq < c.lastWritten {
			return
		}
		if req.kind == reqBatch {
			c.mu.Lock()
			c.sendTimes[req.seq] = time.Now()
			c.mu.Unlock()
		}
		if err := c.writeConn(req.frame); err == nil {
			if req.kind == reqBatch {
				c.lastWritten = req.seq
			}
			return
		}
		c.logf("cluster: shard %d write failed, reconnecting", c.cfg.Shard)
		c.dropConn()
	}
}

func (c *Client) writeConn(frame []byte) error {
	if _, err := c.conn.Write(frame); err != nil {
		return err
	}
	c.met.BytesOut.Add(uint64(len(frame)))
	return nil
}

// dropConn closes the connection and waits its reader out, so at most one
// reader is ever alive. The wait is bounded: the reader may be blocked
// delivering into decCh, which the merge keeps draining.
func (c *Client) dropConn() {
	if c.conn == nil {
		return
	}
	c.conn.Close()
	if c.readerDone != nil {
		<-c.readerDone
		c.readerDone = nil
	}
	c.conn = nil
	c.lastWritten = 0
}

// redial establishes a fresh session with bounded exponential backoff.
func (c *Client) redial() error {
	hadConn := c.everConnected
	c.dropConn()
	backoff := c.cfg.backoff
	var lastErr error
	for attempt := 0; attempt < c.cfg.maxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		conn, err := net.Dial("tcp", c.cfg.Addr)
		if err != nil {
			lastErr = err
			continue
		}
		if err := c.setup(conn); err != nil {
			lastErr = err
			c.logf("cluster: shard %d session setup with %s: %v", c.cfg.Shard, c.cfg.Addr, err)
			// A structural rejection (knowledge mismatch, bad config) will
			// not heal with retries.
			var rej *rejectedError
			if errors.As(err, &rej) {
				return err
			}
			continue
		}
		if hadConn {
			c.met.Reconnects.Inc()
		}
		c.everConnected = true
		return nil
	}
	return fmt.Errorf("cluster: shard %d unreachable at %s after %d attempts: %w",
		c.cfg.Shard, c.cfg.Addr, c.cfg.maxAttempts, lastErr)
}

// rejectedError marks a server-side rejection of the Hello or of the seed
// it announced: structural, no retry.
type rejectedError struct{ msg string }

func (e *rejectedError) Error() string { return "cluster: shard rejected session: " + e.msg }

// setup performs the handshake on a fresh connection, starts its reader,
// and replays the retained frames. On success c.conn/c.readerDone/
// c.lastWritten describe the new session; on failure the connection (and
// its reader, if started) are fully torn down.
func (c *Client) setup(conn net.Conn) (err error) {
	readerStarted := false
	defer func() {
		if err != nil {
			conn.Close()
			if readerStarted {
				<-c.readerDone
				c.readerDone = nil
			}
			c.conn = nil
		}
	}()

	// Snapshot seed + replay under the lock (the previous connection's
	// reader may have been pruning); the frames themselves are immutable.
	// RTT stamps reset — an outage is not the shard's round trip.
	c.mu.Lock()
	seed := c.seed
	entries := make([]replayEntry, len(c.replay))
	copy(entries, c.replay)
	clear(c.sendTimes)
	pendingWaiter := c.waiter
	c.mu.Unlock()

	hello, err := marshalJSONFrame(Hello{
		Shard:      c.cfg.Shard,
		Workers:    c.cfg.Workers,
		MaxStreams: c.cfg.MaxStreams,
		KBSig:      c.cfg.KBSig,
		Config:     c.cfg.Config,
		Restore:    seed != nil,
	})
	if err != nil {
		return err
	}
	head := appendFrame(nil, FrameHello, hello)
	if seed != nil {
		start := len(head)
		head = finishFrame(appendRestore(beginFrame(head, FrameRestore), seed.seq, seed.dict, seed.part), start)
	}
	if _, err := conn.Write(head); err != nil {
		return err
	}
	c.met.BytesOut.Add(uint64(len(head)))

	// The Welcome comes back before any reader exists, after the shard has
	// applied the seed: a refused seed is a rejection, like a KB mismatch.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, _, err := readFrame(conn, nil)
	if err != nil {
		return fmt.Errorf("cluster: welcome: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	if typ != FrameWelcome {
		return fmt.Errorf("cluster: expected welcome, got frame type %d", typ)
	}
	var w Welcome
	if err := unmarshalJSONFrame(payload, &w); err != nil {
		return err
	}
	if !w.OK {
		return &rejectedError{msg: w.Error}
	}

	// Reader before replay: replay responses must be drained while we are
	// still writing, or a long replay could deadlock on full TCP buffers.
	c.conn = conn
	c.readerDone = make(chan struct{})
	readerStarted = true
	go c.reader(conn, c.readerDone)

	now := time.Now()
	written := uint64(0)
	for _, e := range entries {
		c.mu.Lock()
		c.sendTimes[e.seq] = now
		c.mu.Unlock()
		if err := c.writeConn(e.frame); err != nil {
			return fmt.Errorf("cluster: replay: %w", err)
		}
		// SendBatch logs a batch before the lazy first dial, so the first
		// session's set-up writes frames no shard has seen: not replays.
		if c.everConnected {
			c.met.Replayed.Inc()
		}
		written = e.seq
	}
	// Re-issue an in-flight checkpoint state request: its response died
	// with the old connection, and the replayed session reaches the same
	// logical state (the engine is quiescent while it waits, so the token
	// still names the full batch prefix).
	if pendingWaiter != nil {
		frame := appendFrame(nil, FrameStateReq, appendStateReq(nil, pendingWaiter.token))
		if err := c.writeConn(frame); err != nil {
			return fmt.Errorf("cluster: replay state request: %w", err)
		}
	}
	c.lastWritten = written
	return nil
}

// reader decodes frames off one connection until it dies.
func (c *Client) reader(conn net.Conn, done chan struct{}) {
	defer close(done)
	br := bufio.NewReaderSize(countingReader{conn, c.met.BytesIn}, 64<<10)
	var buf []byte
	for {
		typ, payload, nbuf, err := readFrame(br, buf)
		buf = nbuf
		if err != nil {
			c.noteConnLost(conn)
			return
		}
		switch typ {
		case FrameDecisions:
			db := c.getDecBuf()
			if err := decodeDecisions(payload, db); err != nil {
				c.logf("cluster: shard %d: bad decisions frame: %v", c.cfg.Shard, err)
				c.noteConnLost(conn)
				return
			}
			c.mu.Lock()
			if db.Seq <= c.delivered {
				c.mu.Unlock()
				c.Recycle(db) // a replay re-answer
				continue
			}
			c.delivered = db.Seq
			if t, ok := c.sendTimes[db.Seq]; ok {
				c.met.RTT.Observe(time.Since(t).Seconds())
				delete(c.sendTimes, db.Seq)
			}
			c.mu.Unlock()
			c.met.BatchesAcked.Inc()
			c.acked.Add(1)
			c.publishInflight()
			c.decCh <- db
		case FrameState:
			token, body, part, err := decodeState(payload)
			if err != nil {
				c.logf("cluster: shard %d: bad state frame: %v", c.cfg.Shard, err)
				c.noteConnLost(conn)
				return
			}
			c.met.StateSnapshots.Inc()
			c.mu.Lock()
			if dict, ok := c.stateDicts[token]; ok {
				// body aliases the frame buffer the next read reuses.
				c.seed = &seedState{seq: token, dict: dict, part: append([]byte(nil), body...)}
				for t := range c.stateDicts {
					if t <= token {
						delete(c.stateDicts, t)
					}
				}
				// Truncate the replay log: batches at or below the seed are
				// baked into the snapshot.
				keep := c.replay[:0]
				for _, e := range c.replay {
					if e.seq > token {
						keep = append(keep, e)
					}
				}
				c.replay = keep
			}
			if c.waiter != nil && c.waiter.token == token {
				c.waiter.ch <- stateResult{part: part}
				c.waiter = nil
			}
			c.mu.Unlock()
		default:
			c.logf("cluster: shard %d: unexpected frame type %d", c.cfg.Shard, typ)
			c.noteConnLost(conn)
			return
		}
	}
}

func (c *Client) noteConnLost(conn net.Conn) {
	select {
	case c.connLost <- conn:
	default:
	}
}

// fail marks the client permanently broken and closes the decisions
// channel so the merge unblocks (a closed channel reads as a failed
// shard). Only the run goroutine calls it, always with no live reader.
func (c *Client) fail(err error) {
	c.logf("cluster: shard %d failed: %v", c.cfg.Shard, err)
	c.mu.Lock()
	already := c.failed
	c.failed = true
	if c.err == nil {
		c.err = err
	}
	w := c.waiter
	c.waiter = nil
	c.mu.Unlock()
	if w != nil {
		w.ch <- stateResult{err: err}
	}
	if !already {
		c.closeDec()
	}
}

func (c *Client) closeDec() {
	if !c.decClosed {
		c.decClosed = true
		close(c.decCh)
	}
}

// teardown runs when the send channel closes: drop the connection, wait
// the reader out (draining any last deliveries nobody will consume), and
// close the decision stream.
func (c *Client) teardown() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	for c.readerDone != nil {
		select {
		case <-c.readerDone:
			c.readerDone = nil
		case <-c.decCh:
		}
	}
	c.closeDec()
}

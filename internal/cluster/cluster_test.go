package cluster

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"syslogdigest/internal/checkpoint"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/netconf"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/rules"
	"syslogdigest/internal/syslogmsg"
	"syslogdigest/internal/temporal"
)

// testKnowledge mirrors the grouping package's toy topology: two routers
// with one connected serial link, rules over the four flap templates.
func testKnowledge(t testing.TB) (*locdict.Dictionary, *rules.RuleBase) {
	t.Helper()
	r1 := &netconf.Config{
		Hostname: "r1", Vendor: syslogmsg.VendorV1,
		Interfaces: []netconf.Interface{
			{Name: "Loopback0", IP: "192.168.0.1", PrefixLen: 32},
			{Name: "Serial1/0.10/10:0", IP: "10.0.0.1", PrefixLen: 30},
		},
	}
	r2 := &netconf.Config{
		Hostname: "r2", Vendor: syslogmsg.VendorV1,
		Interfaces: []netconf.Interface{
			{Name: "Loopback0", IP: "192.168.0.2", PrefixLen: 32},
			{Name: "Serial1/0.20/20:0", IP: "10.0.0.2", PrefixLen: 30},
		},
	}
	dict, err := locdict.Build([]*netconf.Config{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	rb := rules.NewRuleBase()
	rb.Add(rules.Rule{X: 1, Y: 2, Support: 0.1, Conf: 0.95})
	rb.Add(rules.Rule{X: 3, Y: 4, Support: 0.1, Conf: 0.95})
	rb.Add(rules.Rule{X: 1, Y: 3, Support: 0.1, Conf: 0.9})
	return dict, rb
}

func testGroupingConfig() grouping.Config {
	return grouping.Config{Temporal: temporal.DefaultParams()}
}

// testBatches cuts a sorted random message stream into batches of up to
// batchSize, Seq-stamped in stream order.
func testBatches(seed int64, n, batchSize int) [][]grouping.Message {
	rng := rand.New(rand.NewSource(seed))
	locs := []locdict.Location{
		locdict.IntfLoc("r1", "Serial1/0.10/10:0"),
		locdict.IntfLoc("r2", "Serial1/0.20/20:0"),
		locdict.RouterLoc("r1"),
		locdict.RouterLoc("r2"),
	}
	base := time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)
	msgs := make([]grouping.Message, n)
	for i := range msgs {
		loc := locs[rng.Intn(len(locs))]
		msgs[i] = grouping.Message{
			Time:     base.Add(time.Duration(rng.Intn(7200)) * time.Second),
			Router:   loc.Router,
			Template: 1 + rng.Intn(4),
			Loc:      loc,
		}
		if rng.Intn(4) == 0 {
			other := "r2"
			if loc.Router == "r2" {
				other = "r1"
			}
			msgs[i].Peers = []string{other}
		}
	}
	sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].Time.Before(msgs[j].Time) })
	for i := range msgs {
		msgs[i].Seq = i
	}
	var batches [][]grouping.Message
	for len(msgs) > 0 {
		k := batchSize
		if k > len(msgs) {
			k = len(msgs)
		}
		batches = append(batches, msgs[:k])
		msgs = msgs[k:]
	}
	return batches
}

// testPartBase is when testPart's messages start.
var testPartBase = time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)

// testPart steps n messages a quarter second apart, so the rule windows
// keep every one, each with AllLocs and some with Peers, through a fresh
// local and captures it: a real part with about n pendings.
func testPart(tb testing.TB, n int) grouping.LocalPartState {
	tb.Helper()
	dict, rb := testKnowledge(tb)
	s, err := grouping.NewShardable(dict, rb, grouping.IncrementalConfig{Config: testGroupingConfig()})
	if err != nil {
		tb.Fatal(err)
	}
	local := s.NewLocal(0)
	var js grouping.Joins
	for i, m := range testBatches(int64(n), n, n)[0] {
		m.Time = testPartBase.Add(time.Duration(i) * 250 * time.Millisecond)
		m.AllLocs = []locdict.Location{m.Loc, locdict.RouterLoc(m.Loc.Router)}
		if err := local.Step(grouping.NewPending(m), &js); err != nil {
			tb.Fatal(err)
		}
	}
	return grouping.CaptureLocal(local)
}

func newTestServer(t *testing.T, dict *locdict.Dictionary, rb *rules.RuleBase) *Server {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", ServerConfig{Dict: dict, Rules: rb, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func testClientConfig(t *testing.T, addr string, dict *locdict.Dictionary, rb *rules.RuleBase) ClientConfig {
	t.Helper()
	return ClientConfig{
		Addr:    addr,
		Shard:   0,
		Workers: 1,
		KBSig:   Fingerprint(dict, rb),
		Config:  testGroupingConfig(),
		Logf:    t.Logf,
	}
}

func recvDecision(t *testing.T, c *Client) *DecisionBatch {
	t.Helper()
	select {
	case db, ok := <-c.Decisions():
		if !ok {
			t.Fatalf("decision stream closed: %v", c.Err())
		}
		return db
	case <-time.After(15 * time.Second):
		t.Fatal("timed out waiting for decisions")
		return nil
	}
}

// checkBatch steps batch through the reference local and compares the
// remote decisions item for item.
func checkBatch(t *testing.T, local *grouping.RouterLocal, batch []grouping.Message, db *DecisionBatch) {
	t.Helper()
	if db.ShardErr != "" {
		t.Fatalf("shard error: %s", db.ShardErr)
	}
	if len(db.Items) != len(batch) {
		t.Fatalf("batch %d: %d items, want %d", db.Seq, len(db.Items), len(batch))
	}
	var js grouping.Joins
	for i, m := range batch {
		p := grouping.NewPending(m)
		if err := local.Step(p, &js); err != nil {
			t.Fatal(err)
		}
		var wantT uint64
		if js.Temporal != nil {
			wantT = uint64(m.Seq - js.Temporal.Msg().Seq)
		}
		it := db.Items[i]
		if it.Temporal != wantT {
			t.Fatalf("batch %d msg %d (seq %d): temporal delta %d, want %d", db.Seq, i, m.Seq, it.Temporal, wantT)
		}
		got := db.Rules[it.RS:it.RE]
		if len(got) != len(js.Rules) {
			t.Fatalf("batch %d msg %d: %d rule joins, want %d", db.Seq, i, len(got), len(js.Rules))
		}
		for j, r := range js.Rules {
			if got[j] != uint64(m.Seq-r.Msg().Seq) {
				t.Fatalf("batch %d msg %d rule %d: delta %d, want %d", db.Seq, i, j, got[j], m.Seq-r.Msg().Seq)
			}
		}
	}
	if stats := local.Stats(); db.Stats != stats {
		t.Fatalf("batch %d: stats %+v, want %+v", db.Seq, db.Stats, stats)
	}
}

func sendPendings(c *Client, seq uint64, drain bool, batch []grouping.Message) {
	ps := make([]*grouping.Pending, len(batch))
	for i, m := range batch {
		ps[i] = grouping.NewPending(m)
	}
	c.SendBatch(seq, drain, ps)
}

// TestClientServerLoopback drives a full session over TCP loopback and
// checks every decision against an in-process RouterLocal stepping the
// same stream.
func TestClientServerLoopback(t *testing.T) {
	dict, rb := testKnowledge(t)
	srv := newTestServer(t, dict, rb)
	c := NewClient(testClientConfig(t, srv.Addr(), dict, rb), nil)
	defer c.Close()

	s, err := grouping.NewShardable(dict, rb, grouping.IncrementalConfig{Config: testGroupingConfig()})
	if err != nil {
		t.Fatal(err)
	}
	local := s.NewLocal(0)
	batches := testBatches(7, 120, 9)
	for bi, batch := range batches {
		drain := bi == len(batches)-1
		sendPendings(c, uint64(bi+1), drain, batch)
		db := recvDecision(t, c)
		if db.Seq != uint64(bi+1) {
			t.Fatalf("decision seq %d, want %d", db.Seq, bi+1)
		}
		checkBatch(t, local, batch, db)
		if drain {
			local.DrainWindows()
		}
		c.Recycle(db)
	}
}

// TestClientReconnect kills the server-side session at several points; the
// replay/restore path must keep the decision stream identical to the
// uninterrupted reference, and the reconnect counter must be exact.
func TestClientReconnect(t *testing.T) {
	dict, rb := testKnowledge(t)
	srv := newTestServer(t, dict, rb)
	reg := obs.NewRegistry()
	cfg := testClientConfig(t, srv.Addr(), dict, rb)
	cfg.stateEvery = 4 // force snapshot + Restore traffic across the kills
	cfg.Metrics = ClientMetrics{
		Reconnects:   reg.Counter("test.reconnects"),
		Replayed:     reg.Counter("test.replayed"),
		BatchesSent:  reg.Counter("test.sent"),
		BatchesAcked: reg.Counter("test.acked"),
	}
	c := NewClient(cfg, nil)
	defer c.Close()

	s, err := grouping.NewShardable(dict, rb, grouping.IncrementalConfig{Config: testGroupingConfig()})
	if err != nil {
		t.Fatal(err)
	}
	local := s.NewLocal(0)
	batches := testBatches(13, 150, 7)
	killAt := map[int]bool{2: true, 5: true, 9: true, 13: true, 18: true}
	kills := 0
	for bi, batch := range batches {
		if killAt[bi] {
			srv.KillSessions()
			kills++
		}
		drain := bi == len(batches)-1
		sendPendings(c, uint64(bi+1), drain, batch)
		db := recvDecision(t, c)
		if db.Seq != uint64(bi+1) {
			t.Fatalf("decision seq %d, want %d", db.Seq, bi+1)
		}
		checkBatch(t, local, batch, db)
		if drain {
			local.DrainWindows()
		}
		c.Recycle(db)
	}
	if got := cfg.Metrics.Reconnects.Value(); got != uint64(kills) {
		t.Fatalf("reconnects = %d, want %d", got, kills)
	}
	if cfg.Metrics.Replayed.Value() == 0 {
		t.Fatal("no batches replayed despite kills")
	}
	if sent, acked := cfg.Metrics.BatchesSent.Value(), cfg.Metrics.BatchesAcked.Value(); sent != acked {
		t.Fatalf("sent %d != acked %d at quiescence", sent, acked)
	}
}

// TestFetchStateMatchesLocalCapture: the shard's snapshot must be byte-
// identical to capturing the reference local directly.
func TestFetchStateMatchesLocalCapture(t *testing.T) {
	dict, rb := testKnowledge(t)
	srv := newTestServer(t, dict, rb)
	c := NewClient(testClientConfig(t, srv.Addr(), dict, rb), nil)
	defer c.Close()

	s, err := grouping.NewShardable(dict, rb, grouping.IncrementalConfig{Config: testGroupingConfig()})
	if err != nil {
		t.Fatal(err)
	}
	local := s.NewLocal(0)
	var js grouping.Joins
	batches := testBatches(29, 60, 8)
	for bi, batch := range batches {
		sendPendings(c, uint64(bi+1), false, batch)
		db := recvDecision(t, c)
		for _, m := range batch {
			if err := local.Step(grouping.NewPending(m), &js); err != nil {
				t.Fatal(err)
			}
		}
		c.Recycle(db)
	}
	part, err := c.FetchState(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(part)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(grouping.CaptureLocal(local))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("remote state diverged:\n got %s\nwant %s", got, want)
	}
}

// TestClientSeedRestore: a client born with a checkpoint part re-seeds the
// shard, and the continuation decisions match an uninterrupted local.
func TestClientSeedRestore(t *testing.T) {
	dict, rb := testKnowledge(t)
	srv := newTestServer(t, dict, rb)
	s, err := grouping.NewShardable(dict, rb, grouping.IncrementalConfig{Config: testGroupingConfig()})
	if err != nil {
		t.Fatal(err)
	}
	local := s.NewLocal(0)
	var js grouping.Joins
	batches := testBatches(43, 100, 10)
	cut := len(batches) / 2
	for _, batch := range batches[:cut] {
		for _, m := range batch {
			if err := local.Step(grouping.NewPending(m), &js); err != nil {
				t.Fatal(err)
			}
		}
	}
	part := grouping.CaptureLocal(local)
	c := NewClient(testClientConfig(t, srv.Addr(), dict, rb), &part)
	defer c.Close()
	for bi, batch := range batches[cut:] {
		sendPendings(c, uint64(bi+1), false, batch)
		db := recvDecision(t, c)
		checkBatch(t, local, batch, db)
		c.Recycle(db)
	}
}

// TestServerRejectsKnowledgeMismatch: a shard pointed at different
// knowledge must refuse the session, and the client must fail permanently
// rather than retry forever.
func TestServerRejectsKnowledgeMismatch(t *testing.T) {
	dict, rb := testKnowledge(t)
	srv := newTestServer(t, dict, rb)
	cfg := testClientConfig(t, srv.Addr(), dict, rb)
	cfg.KBSig = "v1:bogus"
	cfg.maxAttempts = 3
	cfg.backoff = time.Millisecond
	c := NewClient(cfg, nil)
	defer c.Close()
	sendPendings(c, 1, false, nil)
	if _, ok := <-c.Decisions(); ok {
		t.Fatal("got a decision from a rejected session")
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("err = %v, want rejection", err)
	}
}

// TestClientFailsWhenUnreachable: bounded retries, then a permanent error.
func TestClientFailsWhenUnreachable(t *testing.T) {
	dict, rb := testKnowledge(t)
	cfg := testClientConfig(t, "127.0.0.1:1", dict, rb) // nothing listens here
	cfg.maxAttempts = 2
	cfg.backoff = time.Millisecond
	c := NewClient(cfg, nil)
	defer c.Close()
	sendPendings(c, 1, false, nil)
	if _, ok := <-c.Decisions(); ok {
		t.Fatal("got a decision with no server")
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("err = %v, want unreachable", err)
	}
}

// TestClientRefusedSeedFails: a seed the shard refuses — here a window that
// names pending 5 of 0 — comes back as a Welcome rejection, so the client
// fails with the shard's reason on its first session instead of
// reconnecting in a loop with no backoff.
func TestClientRefusedSeedFails(t *testing.T) {
	dict, rb := testKnowledge(t)
	reg := obs.NewRegistry()
	srv, err := Serve("127.0.0.1:0", ServerConfig{
		Dict: dict, Rules: rb, Logf: t.Logf,
		Metrics: ServerMetrics{Connections: reg.Counter("test.connections")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg := testClientConfig(t, srv.Addr(), dict, rb)
	cfg.Metrics.Reconnects = reg.Counter("test.reconnects")
	bad := grouping.LocalPartState{Local: grouping.LocalState{
		Windows: []grouping.WindowState{{Router: "r1", Members: []int{5}}},
	}}
	c := NewClient(cfg, &bad)
	defer c.Close()
	sendPendings(c, 1, false, nil)
	select {
	case _, ok := <-c.Decisions():
		if ok {
			t.Fatal("got a decision from a session with a refused seed")
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("client still running after 15s, %d reconnects", cfg.Metrics.Reconnects.Value())
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "rejected") ||
		!strings.Contains(err.Error(), checkpoint.ErrCorrupt.Error()) {
		t.Fatalf("err = %v, want a rejection naming %q", err, checkpoint.ErrCorrupt)
	}
	if n := cfg.Metrics.Reconnects.Value(); n != 0 {
		t.Fatalf("%d reconnects, want 0", n)
	}
	if n := reg.Counter("test.connections").Value(); n != 1 {
		t.Fatalf("%d sessions, want 1", n)
	}
}

// TestServerRejectsBadMaxScan: a Hello whose grouping configuration fails
// validation — here a negative MaxScan, which would size a RouterLocal's
// scan bitmap negative — is refused with the reason in the Welcome, and the
// same server goes on to serve a valid session.
func TestServerRejectsBadMaxScan(t *testing.T) {
	dict, rb := testKnowledge(t)
	srv := newTestServer(t, dict, rb)
	bad := testClientConfig(t, srv.Addr(), dict, rb)
	bad.Config.MaxScan = -1000
	bad.maxAttempts = 3
	bad.backoff = time.Millisecond
	c := NewClient(bad, nil)
	defer c.Close()
	sendPendings(c, 1, false, nil)
	if _, ok := <-c.Decisions(); ok {
		t.Fatal("got a decision from a session with a negative MaxScan")
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "rejected") ||
		!strings.Contains(err.Error(), "max scan -1000") {
		t.Fatalf("err = %v, want a rejection naming the max scan", err)
	}

	good := NewClient(testClientConfig(t, srv.Addr(), dict, rb), nil)
	defer good.Close()
	s, err := grouping.NewShardable(dict, rb, grouping.IncrementalConfig{Config: testGroupingConfig()})
	if err != nil {
		t.Fatal(err)
	}
	batch := testBatches(3, 20, 20)[0]
	sendPendings(good, 1, false, batch)
	checkBatch(t, s.NewLocal(0), batch, recvDecision(t, good))
}

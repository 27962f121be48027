package core

// The differential harness. Every run shape — serial, router-sharded in
// process, clustered over loopback TCP — interrupted by checkpoint/restore
// or not, with or without the provisional tier, must deliver the serial
// uninterrupted run's output byte for byte. A plan names a corpus window, a
// provisional horizon and a list of (shape, cut) segments; runPlan drives it
// through Snapshot, Close and RestoreStreamer at every cut, and check holds
// it against a memoized serial reference and reconciles its books.
// TestDifferential runs a fixed table, then seeded random plans; a failing
// random plan replays on its own:
//
//	go test -run 'TestDifferential/random/seed=7' ./internal/core

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"syslogdigest/internal/cluster"
	"syslogdigest/internal/event"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/rules"
	"syslogdigest/internal/stream"
	"syslogdigest/internal/syslogmsg"
)

// provHorizon is the provisional horizon of the plans that turn the tier on:
// seconds of log time, against the ~3h closure horizon.
const provHorizon = 30 * time.Second

// randomPlans is how many seeded random plans TestDifferential draws.
const randomPlans = 12

// fixture is a corpus and the knowledge base it is digested against,
// learned once per test binary and shared: no test may change either
// (mutableKB hands out a private copy of the base). Its shard server starts
// on first use and lives as long as the process.
type fixture struct {
	kb  *KnowledgeBase
	ds  *gen.Dataset
	srv *cluster.Server
}

var (
	fixtureMu sync.Mutex
	fixtures  = map[any]*fixture{}
)

// memoFixture returns the fixture stored under key, building it once.
func memoFixture(t testing.TB, key any, build func() *fixture) *fixture {
	t.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	f := fixtures[key]
	if f == nil {
		f = build()
		fixtures[key] = f
	}
	return f
}

// engineBook is what the tests read off a streamer's engine beyond what the
// streamer itself uses: the grouper's book and the active-rule tally, which
// every engine shape keeps.
type engineBook interface {
	Stats() grouping.IncStats
	ActiveRules() map[rules.PairKey]int
}

type learnKey struct {
	kind   gen.DatasetKind
	params Params
}

// learnSmall is the shared small corpus of a vendor kind (16 routers, 36 h)
// and the knowledge base learned from it with the default parameters.
func learnSmall(t testing.TB, kind gen.DatasetKind) (*KnowledgeBase, *gen.Dataset) {
	f := learnSmallWith(t, kind, DefaultParams())
	return f.kb, f.ds
}

// learnSmallWith is learnSmall's fixture, learned with explicit parameters.
func learnSmallWith(t testing.TB, kind gen.DatasetKind, params Params) *fixture {
	return memoFixture(t, learnKey{kind, params}, func() *fixture {
		ds, err := gen.Generate(gen.Spec{
			Kind: kind, Routers: 16, Seed: 3,
			Duration: 36 * time.Hour, RateScale: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		kb, err := NewLearner(params).Learn(ds.Messages, ds.Net.Configs)
		if err != nil {
			t.Fatal(err)
		}
		return &fixture{kb: kb, ds: ds}
	})
}

// mutableKB returns a private copy of learnSmall's knowledge base, for tests
// that relearn, re-mine, retune or annotate it.
func mutableKB(t testing.TB, kind gen.DatasetKind) (*KnowledgeBase, *gen.Dataset) {
	t.Helper()
	kb, ds := learnSmall(t, kind)
	return cloneKB(t, kb), ds
}

func cloneKB(t testing.TB, kb *KnowledgeBase) *KnowledgeBase {
	t.Helper()
	var buf bytes.Buffer
	if err := kb.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := LoadKnowledgeBase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// learnStorm is a flap-storm corpus over corpus A's topology (same kind,
// router count and seed): link, BGP and tunnel episodes at an order of
// magnitude above the learn-time rates plus heavy noise, so the rule and
// cross windows stay near-full with messages whose templates are mostly NOT
// rule partners of each other — the regime the template index exists for.
// It is digested with a copy of corpus A's knowledge base (knowledge mined
// offline from history, applied during a storm) tuned for the storm: a wide
// rule window and a raised scan cap, so the windows actually hold the storm
// instead of trimming to the newest burst.
func learnStorm(t testing.TB) *fixture {
	base, _ := learnSmall(t, gen.DatasetA)
	return memoFixture(t, corpusStorm, func() *fixture {
		storm, err := gen.Generate(gen.Spec{
			Kind: gen.DatasetA, Routers: 16, Seed: 3,
			Duration: 6 * time.Hour,
			Rates: gen.Rates{
				LinkFlap: 40, Controller: 6, BGPFlap: 20, CPUSpike: 60,
				PeriodicMsg: 12000, Noise: 200000, Config: 60, EnvAlarm: 24, TunnelFlap: 15,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		kb := cloneKB(t, base)
		kb.Params.Rules.Window = 600 * time.Second
		kb.Params.MaxScan = 4096
		return &fixture{kb: kb, ds: storm}
	})
}

// corpus names a shared fixture: the vendor kinds' corpora, then the storm.
type corpus int

const (
	corpusA     corpus = corpus(gen.DatasetA)
	corpusB     corpus = corpus(gen.DatasetB)
	corpusStorm corpus = iota
)

func (c corpus) String() string { return [...]string{"A", "B", "storm"}[c] }

func fixtureFor(t testing.TB, c corpus) *fixture {
	if c == corpusStorm {
		return learnStorm(t)
	}
	return learnSmallWith(t, gen.DatasetKind(c), DefaultParams())
}

// server is the fixture's loopback shard server.
func (f *fixture) server(t testing.TB) *cluster.Server {
	t.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if f.srv == nil {
		srv, err := cluster.Serve("127.0.0.1:0", cluster.ServerConfig{Dict: f.kb.Dictionary(), Rules: f.kb.RuleBase})
		if err != nil {
			t.Fatal(err)
		}
		f.srv = srv
	}
	return f.srv
}

// loopbackAddrs points n shard slots at one server: n sessions, n remote
// RouterLocals, one process — the smallest real cluster.
func loopbackAddrs(srv *cluster.Server, n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = srv.Addr()
	}
	return addrs
}

// shape is one segment's engine: serial, workers > 1 in-process shards, or
// shards > 0 sessions of the fixture's loopback shard server.
type shape struct{ workers, shards int }

var serial = shape{}

func sharded(n int) shape   { return shape{workers: n} }
func clustered(n int) shape { return shape{shards: n} }

// count is the number of RouterLocals the shape runs.
func (s shape) count() int {
	return max(s.workers, s.shards, 1)
}

func (s shape) String() string {
	switch {
	case s.shards > 0:
		return fmt.Sprintf("cluster%d", s.shards)
	case s.workers > 1:
		return fmt.Sprintf("sharded%d", s.workers)
	}
	return "serial"
}

func (f *fixture) options(t testing.TB, s shape, horizon time.Duration) StreamerOptions {
	opts := StreamerOptions{StreamWorkers: s.workers, ProvisionalHorizon: horizon}
	if s.shards > 0 {
		opts.ShardAddrs = loopbackAddrs(f.server(t), s.shards)
	}
	return opts
}

// segment runs one shape up to cut, the window position of the first
// message the next segment pushes (the last segment runs to the window's
// end). kills are window positions at which every session of the shard
// server drops, before that message is pushed.
type segment struct {
	shape shape
	cut   int
	kills []int
}

func (s segment) String() string { return fmt.Sprintf("%v@%d kills%v", s.shape, s.cut, s.kills) }

// plan is one differential run.
type plan struct {
	corpus  corpus
	lo, hi  int           // window: messages[lo:hi], hi 0 meaning the end
	horizon time.Duration // provisional horizon, 0 off
	shuffle bool          // swap adjacent messages under a second apart
	batch   int           // dispatch batch size of multi-shard segments, 0 default
	probe   int           // query Pending (a sharded sync) before every probe-th message
	segs    []segment
	// superseded is the least number of supersede records the run must show.
	superseded int
}

// every runs one shape throughout, cut (killed and restored) at each point.
func every(s shape, cuts ...int) []segment {
	segs := make([]segment, len(cuts)+1)
	for i := range segs {
		segs[i].shape = s
	}
	for i, cut := range cuts {
		segs[i].cut = cut
	}
	return segs
}

// chain restores shapes[i+1] at cuts[i].
func chain(shapes []shape, cuts ...int) []segment {
	segs := every(serial, cuts...)
	for i := range segs {
		segs[i].shape = shapes[i]
	}
	return segs
}

// messages returns the plan's window, shuffled when asked. hi is resolved
// in place so the window has one name in the reference memo.
func (p *plan) messages(f *fixture) []syslogmsg.Message {
	if p.hi == 0 {
		p.hi = len(f.ds.Messages)
	}
	msgs := f.ds.Messages[p.lo:p.hi]
	if !p.shuffle {
		return msgs
	}
	// Swap adjacent pairs under a second apart: arrival order disagrees with
	// time order, never by more than the 2 s reorder tolerance.
	msgs = append([]syslogmsg.Message(nil), msgs...)
	for i := 0; i+1 < len(msgs); i += 2 {
		if d := msgs[i+1].Time.Sub(msgs[i].Time); d > 0 && d <= time.Second {
			msgs[i], msgs[i+1] = msgs[i+1], msgs[i]
		}
	}
	return msgs
}

// run is what a plan delivered, in delivery order, and each segment's books.
type run struct {
	window          int    // messages pushed
	finals, updates []byte // transcripts: see appendEvent
	events          []event.Event
	upds            []event.Update
	active          map[rules.PairKey]int
	segs            []segRun
	logged          []byte // the standard log, captured when the plan kills shards
}

type segRun struct {
	segment
	met obs.Snapshot // after the segment's streamer closed
	fed int          // messages its engine was fed
}

// appendEvent appends one transcript line holding every field of the event
// — ID, span, routers, locations, templates, member sequence numbers and raw
// indexes, label, score — so byte-equal transcripts are equal events in
// equal order. Hand-rolled: encoding/json was most of a plan's cost.
func appendEvent(b []byte, ev *event.Event) []byte {
	b = fmt.Appendf(b, "%d %d %d", ev.ID, ev.Start.UnixNano(), ev.End.UnixNano())
	for _, r := range ev.Routers {
		b = append(append(b, ' '), r...)
	}
	for _, l := range ev.Locations {
		b = append(append(b, " @"...), l.Router...)
		b = strconv.AppendInt(append(b, '/'), int64(l.Level), 10)
		b = append(append(b, '/'), l.Name...)
	}
	b = append(b, " t"...)
	for _, x := range ev.Templates {
		b = strconv.AppendInt(append(b, ','), int64(x), 10)
	}
	b = append(b, " s"...)
	for _, x := range ev.MessageSeqs {
		b = strconv.AppendInt(append(b, ','), int64(x), 10)
	}
	b = append(b, " r"...)
	for _, x := range ev.RawIndexes {
		b = strconv.AppendUint(append(b, ','), x, 10)
	}
	b = strconv.AppendQuote(append(b, ' '), ev.Label)
	b = strconv.AppendFloat(append(b, ' '), ev.Score, 'g', -1, 64)
	return append(b, '\n')
}

func appendUpdate(b []byte, u *event.Update) []byte {
	b = strconv.AppendUint(b, u.EventID, 10)
	b = strconv.AppendInt(append(b, ' '), int64(u.Revision), 10)
	b = append(append(b, ' '), u.Status.String()...)
	if u.Status == event.StatusSuperseded {
		b = strconv.AppendUint(append(b, " -> "...), u.SupersededBy, 10)
		return append(b, '\n')
	}
	return appendEvent(append(b, ' '), &u.Event)
}

// runPlan drives a plan and checks what only the moment can show: at every
// cut the restored streamer has pushed as many messages as the killed one,
// holds the same open messages and the same Stats(), and snapshots to the
// bytes it was restored from; after the last Flush nothing is pending.
func runPlan(t *testing.T, p plan) *run {
	t.Helper()
	f := fixtureFor(t, p.corpus)
	msgs := p.messages(f)
	r := &run{window: len(msgs)}
	collect := func(res *DigestResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			return
		}
		for i := range res.Events {
			r.finals = appendEvent(r.finals, &res.Events[i])
		}
		for i := range res.Updates {
			r.updates = appendUpdate(r.updates, &res.Updates[i])
		}
		r.events = append(r.events, res.Events...)
		r.upds = append(r.upds, res.Updates...)
	}
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	var (
		snap    []byte
		pending int
		stats   grouping.IncStats
	)
	for k, sg := range p.segs {
		start, end := 0, len(msgs)
		if k > 0 {
			start = p.segs[k-1].cut
		}
		if k < len(p.segs)-1 {
			end = sg.cut
		}
		d, err := NewDigester(f.kb)
		if err != nil {
			t.Fatal(err)
		}
		opts := f.options(t, sg.shape, p.horizon)
		var st *Streamer
		if k == 0 {
			st = NewStreamerWith(d, opts)
		} else {
			if st, err = RestoreStreamer(d, snap, opts); err != nil {
				t.Fatalf("restore %v at %d: %v", sg.shape, start, err)
			}
			// At the same shard count every RouterLocal restores exactly, so
			// the first snapshot is a fixed point (a reshard re-encodes the
			// locals).
			if k == 1 && sg.shape.count() == p.segs[0].shape.count() {
				again, err := st.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(snap, again) {
					t.Fatalf("snapshot at %d is not a fixed point: restored into %v it snapshots to %d bytes, was %d",
						start, sg.shape, len(again), len(snap))
				}
			}
			if got := st.Pushed(); got != uint64(start) {
				t.Fatalf("restored Pushed() = %d at cut %d", got, start)
			}
			if got := st.Pending(); got != pending {
				t.Fatalf("restored into %v at %d: Pending() = %d, %d before the snapshot", sg.shape, start, got, pending)
			}
			if st.eng != nil {
				if got := st.eng.(engineBook).Stats(); got != stats {
					t.Fatalf("restored into %v at %d: Stats()\n got %+v\nwant %+v (before the snapshot)", sg.shape, start, got, stats)
				}
			}
		}
		defer st.Close() // after a failed check too (Close is idempotent)
		reg := obs.NewRegistry()
		st.Instrument(reg)
		if p.batch > 0 && sg.shape != serial {
			eng, err := st.engine()
			if err != nil {
				t.Fatal(err)
			}
			eng.(*stream.ShardedEngine).SetBatchSize(p.batch)
		}
		seq0, kills := st.seq, sg.kills
		for i := start; i < end; i++ {
			if len(kills) > 0 && kills[0] == i {
				kills = kills[1:]
				// Synchronize first: the sessions are live and quiescent, so the
				// kill drops exactly one per shard.
				st.eng.(engineBook).Stats()
				f.srv.KillSessions()
			}
			if p.probe > 0 && i%p.probe == 0 && st.Pending() < 0 {
				t.Fatal("negative pending")
			}
			collect(st.Push(msgs[i]))
		}
		if k < len(p.segs)-1 {
			pending, stats = st.Pending(), grouping.IncStats{}
			if pending == 0 {
				t.Fatalf("cut at %d leaves nothing open: the carry-over check would be vacuous", end)
			}
			if st.eng != nil {
				stats = st.eng.(engineBook).Stats()
			}
			if stats.RulePairs == 0 && end > len(msgs)/10 {
				t.Fatalf("cut at %d: no rule join yet, the carried Stats() check would be vacuous", end)
			}
			if snap, err = st.Snapshot(); err != nil {
				t.Fatalf("snapshot at %d: %v", end, err)
			}
		} else {
			collect(st.Flush())
			if n := st.Pending(); n != 0 {
				t.Fatalf("pending after flush = %d", n)
			}
			r.active = st.eng.(engineBook).ActiveRules()
		}
		fed := st.seq - seq0
		st.Close() // the link goroutines have exited: the books are final
		r.segs = append(r.segs, segRun{segment: sg, met: reg.Snapshot(), fed: fed})
	}
	r.logged = logged.Bytes()
	return r
}

type refKey struct {
	corpus  corpus
	lo, hi  int
	horizon time.Duration
	shuffle bool
}

var (
	refMu sync.Mutex
	refs  = map[refKey]*run{}
)

// reference is the serial uninterrupted run over p's window with p's
// horizon and shuffle, computed once per test binary. The in-order,
// final-only reference of a window must hold the batch digest's event
// multiset, so every reference answers to the batch engine (the others
// through check's tier-off and in-order comparisons), and the batch engine
// to the oracle (TestStreamingMatchesBatch).
func reference(t *testing.T, p plan) *run {
	t.Helper()
	f := fixtureFor(t, p.corpus)
	msgs := p.messages(f)
	key := refKey{p.corpus, p.lo, p.hi, p.horizon, p.shuffle}
	refMu.Lock()
	defer refMu.Unlock()
	if r := refs[key]; r != nil {
		return r
	}
	r := runPlan(t, plan{corpus: p.corpus, lo: p.lo, hi: p.hi, horizon: p.horizon, shuffle: p.shuffle, segs: every(serial)})
	if p.horizon == 0 && !p.shuffle {
		d, err := NewDigester(f.kb)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := d.DigestPlus(f.kb.AugmentAll(msgs))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeEvents(r.events), normalizeEvents(batch.Events)) {
			t.Fatalf("serial streamer's events (%d) differ from the batch digest's (%d)", len(r.events), len(batch.Events))
		}
	}
	refs[key] = r
	return r
}

// diffTranscripts fails when two transcripts differ, quoting the first
// line that does.
func diffTranscripts(t *testing.T, what string, got, want []byte) {
	t.Helper()
	for line := 1; !bytes.Equal(got, want); line++ {
		g, gRest, _ := bytes.Cut(got, []byte("\n"))
		w, wRest, _ := bytes.Cut(want, []byte("\n"))
		if !bytes.Equal(g, w) {
			t.Fatalf("%s diverged from the serial uninterrupted run at line %d:\n got %q\nwant %q", what, line, g, w)
		}
		got, want = gRest, wRest
	}
}

// check holds a run to the serial reference and reconciles its books.
func check(t *testing.T, p plan, got *run) {
	t.Helper()
	want := reference(t, p)
	diffTranscripts(t, "final transcript", got.finals, want.finals)
	diffTranscripts(t, "update transcript", got.updates, want.updates)
	if !reflect.DeepEqual(got.active, want.active) {
		t.Fatalf("active rule tallies differ (%d pairs, want %d)", len(got.active), len(want.active))
	}
	if len(got.events) == 0 {
		t.Fatal("no events: the window is too small to test")
	}

	if p.horizon > 0 {
		if len(got.upds) == 0 {
			t.Fatal("provisional tier on but no updates delivered")
		}
		checkUpdateInvariants(t, got.upds, got.finals)
		off := p
		off.horizon = 0
		diffTranscripts(t, "final transcript with the tier on vs off", got.finals, reference(t, off).finals)
		superseded := 0
		for i := range got.upds {
			if got.upds[i].Status == event.StatusSuperseded {
				superseded++
			}
		}
		t.Logf("%d updates, %d supersede records", len(got.upds), superseded)
		if superseded < p.superseded {
			t.Fatalf("%d supersede records, want at least %d: the regime is untested", superseded, p.superseded)
		}
	} else if len(got.upds) != 0 {
		t.Fatalf("provisional tier off but %d updates delivered", len(got.upds))
	}

	if p.shuffle {
		// The reorder buffer makes the shuffle invisible: the same events as
		// the in-order feed, up to the release-order sequence numbers.
		inOrder := p
		inOrder.shuffle = false
		sn, wn := normalizeEvents(want.events), normalizeEvents(reference(t, inOrder).events)
		if !reflect.DeepEqual(withoutSeqs(sn), withoutSeqs(wn)) {
			t.Fatalf("shuffled feed's events (%d) differ from the in-order feed's (%d)", len(sn), len(wn))
		}
	}

	var pushed, emitted, merges, reordered, dropped, reconnects uint64
	for k, sr := range got.segs {
		m := sr.met
		pushed += m.Counter("stream.pushed")
		emitted += m.Counter("stream.emitted")
		merges += m.Counter("group.merges.temporal") + m.Counter("group.merges.rule") + m.Counter("group.merges.cross")
		reordered += m.Counter("stream.reordered")
		dropped += m.Counter("stream.dropped.late") + m.Counter("stream.dropped.overflow")
		reconnects += m.Counter("stream.cluster.reconnects")
		checkShards(t, k, sr)
	}
	// The dispatcher announces every reconnect in the standard log (the
	// reader saw the connection lost, or a write failed): the only place an
	// operator running `sdcollect -shards` would learn of it.
	if n := bytes.Count(got.logged, []byte(", reconnecting")); uint64(n) != reconnects {
		t.Fatalf("%d reconnects, %d reconnect lines in the standard log:\n%s", reconnects, n, got.logged)
	}
	if pushed != uint64(got.window) {
		t.Fatalf("stream.pushed sums to %d over the segments, window holds %d", pushed, got.window)
	}
	if emitted != uint64(len(got.events)) {
		t.Fatalf("stream.emitted sums to %d, %d events delivered", emitted, len(got.events))
	}
	// Each segment publishes the joins it made, not those it restored: every
	// join removes one group, so they sum to messages minus events.
	if want := uint64(got.window - len(got.events)); merges != want {
		t.Fatalf("group.merges.* sum to %d over the segments, want %d messages - %d events", merges, got.window, len(got.events))
	}
	if dropped != 0 {
		t.Fatalf("%d messages dropped from a feed within tolerance", dropped)
	}
	if p.shuffle && reordered == 0 {
		t.Fatal("no arrival counted as reordered despite the shuffle")
	}
	// Records a restore materializes are GC-owned and never enter the new
	// pool; every record the pool hands out comes back by Flush.
	last := got.segs[len(got.segs)-1].met
	gets, puts := last.Counter("stream.pool.pending.gets"), last.Counter("stream.pool.pending.puts")
	if gets == 0 || gets != puts {
		t.Fatalf("last segment's pool: gets %d, puts %d, want equal and non-zero", gets, puts)
	}
	if live := last.Gauge("stream.pool.pending.live"); live != 0 {
		t.Fatalf("pool live %v after flush, want 0", live)
	}
}

// checkShards reconciles a multi-shard segment's per-shard and wire books.
func checkShards(t *testing.T, k int, sr segRun) {
	t.Helper()
	m, n := sr.met, sr.shape.count()
	if n > 1 { // the per-shard series exist from two shards up
		var shardPushed uint64
		for i := 0; i < n; i++ {
			shardPushed += m.Counter(fmt.Sprintf("stream.shard.%d.pushed", i))
		}
		if shardPushed != uint64(sr.fed) {
			t.Fatalf("segment %d (%v): per-shard pushed sums to %d, engine fed %d", k, sr.shape, shardPushed, sr.fed)
		}
	}
	if sr.shape.shards == 0 {
		return
	}
	sent, acked := m.Counter("stream.cluster.batches_sent"), m.Counter("stream.cluster.batches_acked")
	recon, replayed := m.Counter("stream.cluster.reconnects"), m.Counter("stream.cluster.replayed_batches")
	if sr.fed > 0 && (sent == 0 || m.Counter("stream.cluster.bytes_out") == 0 || m.Counter("stream.cluster.bytes_in") == 0) {
		t.Fatalf("segment %d (%v): fed %d messages but the wire counters did not move", k, sr.shape, sr.fed)
	}
	if len(sr.kills) == 0 {
		// Every batch fans out to every shard, is acked, and is applied by the
		// merge stage once; a healthy run writes each batch once.
		if punct := m.Counter("stream.cluster.punctuations_applied"); sent != acked || sent != punct*uint64(n) {
			t.Fatalf("segment %d (%v): %d batches sent, %d acked, %d punctuations applied", k, sr.shape, sent, acked, punct)
		}
		if recon != 0 || replayed != 0 {
			t.Fatalf("segment %d (%v): reconnects=%d replayed_batches=%d in a quiet run, want 0 and 0", k, sr.shape, recon, replayed)
		}
		return
	}
	// Each kill drops every session, and each client redials once.
	if want := uint64(len(sr.kills) * n); recon != want {
		t.Fatalf("segment %d (%v): reconnects = %d, want exactly %d (%d kills x %d shards)", k, sr.shape, recon, want, len(sr.kills), n)
	}
	if replayed == 0 {
		t.Fatalf("segment %d (%v): no batches replayed across reconnects", k, sr.shape)
	}
}

// checkUpdateInvariants verifies the identity/revision contract over one
// complete update transcript (a drained run: every identity resolved):
//
//   - (EventID, Revision) pairs are unique, and each identity's revisions
//     count 0,1,2,... in delivery order — no gap, no reorder;
//   - every identity begins with a provisional record and ends with exactly
//     one terminal record (final or superseded), with nothing after it;
//   - supersede pointers form acyclic chains that terminate at a finalized
//     identity, and never point at an unknown one;
//   - the final records wrap the final stream, byte for byte.
func checkUpdateInvariants(t *testing.T, upds []event.Update, finals []byte) {
	t.Helper()
	type idState struct {
		nextRev  int
		terminal event.Status
		done     bool
	}
	states := map[uint64]*idState{}
	superBy := map[uint64]uint64{}
	var fromUpdates []byte
	for i := range upds {
		u := &upds[i]
		st := states[u.EventID]
		if st == nil {
			if u.Status != event.StatusProvisional {
				t.Fatalf("update %d: identity %d opened with %v, want provisional", i, u.EventID, u.Status)
			}
			st = &idState{}
			states[u.EventID] = st
		}
		if st.done {
			t.Fatalf("update %d: identity %d got %v after terminal %v", i, u.EventID, u.Status, st.terminal)
		}
		if u.Revision != st.nextRev {
			t.Fatalf("update %d: identity %d revision %d, want %d", i, u.EventID, u.Revision, st.nextRev)
		}
		st.nextRev++
		switch u.Status {
		case event.StatusSuperseded:
			st.done, st.terminal = true, u.Status
			superBy[u.EventID] = u.SupersededBy
		case event.StatusFinal:
			st.done, st.terminal = true, u.Status
			fromUpdates = appendEvent(fromUpdates, &u.Event)
		}
	}
	for id, st := range states {
		if !st.done {
			t.Fatalf("identity %d never resolved (last revision %d)", id, st.nextRev-1)
		}
	}
	// Follow each supersede pointer to its end: a finalized identity, in at
	// most len(superBy) hops.
	for id := range superBy {
		cur, hops := id, 0
		for {
			next, ok := superBy[cur]
			if !ok {
				break
			}
			if hops++; hops > len(superBy) {
				t.Fatalf("supersede chain from %d cycles", id)
			}
			cur = next
		}
		if st := states[cur]; st == nil || st.terminal != event.StatusFinal {
			t.Fatalf("supersede chain from %d ends at %d (%+v), want a finalized identity", id, cur, st)
		}
	}
	if !bytes.Equal(fromUpdates, finals) {
		t.Fatalf("final-tier updates diverge from the final stream: %d vs %d bytes", len(fromUpdates), len(finals))
	}
}

// normalizeEvents returns a copy sorted by earliest raw member with IDs
// zeroed: the canonical multiset form for event sets emitted in different
// orders (closure order vs rank order).
func normalizeEvents(events []event.Event) []event.Event {
	out := append([]event.Event(nil), events...)
	sort.Slice(out, func(a, b int) bool {
		return out[a].RawIndexes[0] < out[b].RawIndexes[0]
	})
	for i := range out {
		out[i].ID = 0
	}
	return out
}

// withoutSeqs drops the MessageSeqs of normalized events: a reordered feed
// assigns release-order sequence numbers, while RawIndexes, the member
// messages' durable identity, agree.
func withoutSeqs(events []event.Event) []event.Event {
	for i := range events {
		events[i].MessageSeqs = nil
	}
	return events
}

// killPoints picks n distinct, sorted positions in [1, total).
func killPoints(seed int64, n, total int) []int {
	rng := rand.New(rand.NewSource(seed))
	seen := map[int]bool{}
	for len(seen) < n {
		seen[1+rng.Intn(total-1)] = true
	}
	pts := make([]int, 0, n)
	for p := range seen {
		pts = append(pts, p)
	}
	sort.Ints(pts)
	return pts
}

type row struct {
	name string
	p    plan
}

// differentialTable is the fixed plan set: serial == sharded == cluster on
// both vendor corpora and the storm, kill/restore within and across shapes,
// shard kills, the provisional tier, a shuffled feed, a random dispatch
// schedule.
func differentialTable(t *testing.T) []row {
	nA, nB := len(fixtureFor(t, corpusA).ds.Messages), len(fixtureFor(t, corpusB).ds.Messages)
	n := map[corpus]int{corpusA: nA, corpusB: nB}
	rows := []row{
		{"A/cluster2", plan{corpus: corpusA, segs: every(clustered(2))}},
		{"A/cluster4", plan{corpus: corpusA, segs: every(clustered(4))}},
	}
	for _, c := range []corpus{corpusA, corpusB} {
		for _, s := range []shape{sharded(2), sharded(8)} {
			rows = append(rows, row{fmt.Sprintf("%v/%v", c, s), plan{corpus: c, segs: every(s)}})
		}
		for _, s := range []shape{serial, sharded(2), sharded(8), clustered(1), clustered(2), clustered(4)} {
			rows = append(rows, row{fmt.Sprintf("%v/%v/prov", c, s), plan{corpus: c, horizon: provHorizon, segs: every(s)}})
		}
		for _, w := range []int{1, 4} {
			cuts := killPoints(61+int64(c)*17+int64(w), 20, n[c])
			rows = append(rows, row{fmt.Sprintf("%v/%v/cuts20", c, sharded(w)), plan{corpus: c, segs: every(sharded(w), cuts...)}})
		}
	}
	for _, w := range []int{1, 4} {
		rows = append(rows, row{fmt.Sprintf("A/%v/prov/cuts20", sharded(w)),
			plan{corpus: corpusA, horizon: provHorizon, segs: every(sharded(w), killPoints(907+int64(w), 20, nA)...)}})
		// Snapshot fixed points after the first message, a third in, half
		// way and after the last; the pool books of a restored run.
		for _, cut := range []int{1, nA/3 + 1, nA / 2, nA} {
			rows = append(rows, row{fmt.Sprintf("A/%v/cut@%d", sharded(w), cut), plan{corpus: corpusA, segs: every(sharded(w), cut)}})
		}
	}
	for _, shards := range []int{2, 4} {
		segs := every(clustered(shards))
		segs[0].kills = killPoints(4242+int64(shards), 10, nA)
		rows = append(rows, row{fmt.Sprintf("A/cluster%d/prov/kills10", shards),
			plan{corpus: corpusA, horizon: provHorizon, batch: 32, segs: segs}})
	}
	rows = append(rows,
		row{"A/serial/shuffle", plan{corpus: corpusA, shuffle: true, segs: every(serial)}},
		row{"B/cluster2>cluster4", plan{corpus: corpusB, segs: chain([]shape{clustered(2), clustered(4)}, nB/2)}},
		row{"B/cluster2>serial", plan{corpus: corpusB, segs: chain([]shape{clustered(2), serial}, nB/2)}},
		row{"B/sharded3>cluster2", plan{corpus: corpusB, segs: chain([]shape{sharded(3), clustered(2)}, nB/2)}},
		row{"B/sharded3/schedule",
			plan{corpus: corpusB, batch: 1 + rand.New(rand.NewSource(17)).Intn(64), probe: 97, segs: every(sharded(3))}},
		// The whole storm, final records only; the provisional tier costs
		// O(group) per revision, so its rows take the first 25 k messages.
		row{"storm/sharded4", plan{corpus: corpusStorm, segs: every(sharded(4))}},
		row{"storm25k/serial/prov", plan{corpus: corpusStorm, hi: 25000, horizon: provHorizon, superseded: 5, segs: every(serial)}},
		row{"storm25k/sharded4/prov", plan{corpus: corpusStorm, hi: 25000, horizon: provHorizon, superseded: 5, segs: every(sharded(4))}},
		row{"storm25k/sharded4>serial>cluster2/prov", plan{corpus: corpusStorm, hi: 25000, horizon: provHorizon, superseded: 5,
			segs: chain([]shape{sharded(4), serial, clustered(2)}, 6000, 12500)}},
		row{"storm25k/cluster3/prov/kills", plan{corpus: corpusStorm, hi: 25000, horizon: provHorizon, superseded: 5,
			segs: []segment{{shape: clustered(3), kills: []int{3000, 11000, 19000}}}}},
	)
	return rows
}

// randomPlan draws a plan over the table's dimensions from seed: corpus,
// window, horizon, shuffle, dispatch batch, probes, and one to three
// segments of any shape with shard kills on cluster segments.
func randomPlan(t *testing.T, seed int64) plan {
	rng := rand.New(rand.NewSource(seed))
	p := plan{corpus: corpus(rng.Intn(3))}
	n := len(fixtureFor(t, p.corpus).ds.Messages)
	w := 1500 + rng.Intn(3000)
	p.lo = rng.Intn(n - w)
	p.hi = p.lo + w
	if rng.Intn(2) == 0 {
		p.horizon = provHorizon
	}
	p.shuffle = rng.Intn(4) == 0
	if rng.Intn(3) == 0 {
		p.batch = 1 + rng.Intn(64)
	}
	if rng.Intn(4) == 0 {
		p.probe = 1 + rng.Intn(200)
	}
	shapes := []shape{serial, sharded(2), sharded(3), sharded(4), clustered(1), clustered(2), clustered(3)}
	cuts := killPoints(rng.Int63(), rng.Intn(3), w+1)
	p.segs = chain(make([]shape, len(cuts)+1), cuts...)
	start := 0
	for i := range p.segs {
		sg := &p.segs[i]
		sg.shape = shapes[rng.Intn(len(shapes))]
		end := w
		if i < len(cuts) {
			end = cuts[i]
		}
		// Kills land at least 64 messages into the segment, once its engine
		// has dispatched.
		if sg.shape.shards > 0 && end-start > 128 && rng.Intn(2) == 0 {
			for _, k := range killPoints(rng.Int63(), 1+rng.Intn(2), end-start-64) {
				sg.kills = append(sg.kills, start+64+k)
			}
		}
		start = end
	}
	return p
}

// TestDifferential runs every plan of the table, then randomPlans seeded
// random plans, through runPlan and check.
func TestDifferential(t *testing.T) {
	for _, row := range differentialTable(t) {
		t.Run(row.name, func(t *testing.T) {
			check(t, row.p, runPlan(t, row.p))
		})
	}
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= randomPlans; seed++ {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				p := randomPlan(t, seed)
				t.Logf("plan: %v[%d:%d] horizon %v shuffle %v batch %d probe %d: %v",
					p.corpus, p.lo, p.hi, p.horizon, p.shuffle, p.batch, p.probe, p.segs)
				check(t, p, runPlan(t, p))
			})
		}
	})
}

// TestCheckpointRestoreAcrossWorkerCounts kills a 4-worker run and restores
// it serial, then at 3 workers, then on 2 remote shards: the snapshot is
// shape-independent, so the stitched transcript must match the serial
// reference, and check holds Pending and Stats across every cut.
func TestCheckpointRestoreAcrossWorkerCounts(t *testing.T) {
	nA := len(fixtureFor(t, corpusA).ds.Messages)
	p := plan{corpus: corpusA, segs: chain([]shape{sharded(4), serial, sharded(3), clustered(2)}, killPoints(7, 3, nA)...)}
	check(t, p, runPlan(t, p))
}

// TestStreamingMatchesBatch is the oracle the references answer to. Per
// vendor corpus, the engine-backed Digest reproduces the retired three-pass
// batch implementation (ReferenceDigestPlus) exactly — events, scores,
// labels, ranks, IDs. (reference holds the serial streamer to DigestPlus.)
func TestStreamingMatchesBatch(t *testing.T) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		t.Run(fmt.Sprintf("kind%d", kind), func(t *testing.T) {
			f := fixtureFor(t, corpus(kind))
			d, err := NewDigester(f.kb)
			if err != nil {
				t.Fatal(err)
			}
			want, err := d.ReferenceDigestPlus(f.kb.AugmentAll(f.ds.Messages))
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.Digest(f.ds.Messages)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Events, want.Events) {
				t.Fatalf("engine digest differs from the batch oracle (%d vs %d events)", len(got.Events), len(want.Events))
			}
			if len(got.ActiveRules) == 0 {
				t.Fatal("engine digest reported no active rules")
			}
		})
	}
}

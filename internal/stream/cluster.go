// Cluster engine: ShardedEngine with its shards in other processes.
//
//	caller ──batch frame──▶ sdshard 0 (RouterLocal) ──decision frame──▶
//	       ──batch frame──▶ sdshard 1 (RouterLocal) ──decision frame──▶  merge
//	            ⋮                                            ⋮            (local)
//
// The engine is the sharded core unchanged; this file is only its TCP
// shardLink. Sub-batches travel as wire frames (internal/cluster) and
// decisions come back as Seq *deltas* instead of pointers, which the link
// turns back into pointers through bySeq, a map of its shard's applied
// messages still in an open group — the closure-horizon invariant
// guarantees a decision's predecessor is still open when the decision is
// applied, so the lookup cannot miss. Output — events, scores, IDs,
// provisional updates, order — is byte-identical to the serial engine at
// any shard count.
//
// Fault tolerance: a dropped shard connection is a shard restart. The
// client layer re-seeds the replacement session from its last state
// snapshot and replays the batches after it (see cluster.Client); the
// merge stage never notices, and the operator reads about it in the
// standard log. A shard that stays unreachable past the
// client's bounded retries fails the engine, surfacing on the next
// Observe, like any engine error.
package stream

import (
	"fmt"
	"log"
	"time"

	"syslogdigest/internal/cluster"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/rules"
)

// stateFetchTimeout bounds a checkpoint's per-shard state fetch; it spans
// a full reconnect cycle (the client re-requests after a redial), so it is
// generous.
const stateFetchTimeout = 60 * time.Second

// ClusterRTTBounds are histogram bounds for batch round-trip time
// (dispatch write to decision read), spanning loopback microseconds to a
// congested-WAN second.
func ClusterRTTBounds() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}
}

// ClusterMetrics extend the sharded metric set with the wire-level series;
// it is the superset every engine shape's setter takes, and an engine
// ignores the handles it has no use for. The Client handles are shared by
// every shard connection, so the counters are engine totals.
type ClusterMetrics struct {
	ShardedMetrics
	Client cluster.ClientMetrics
	// PunctApplied counts batches fully applied by the merge stage
	// (stream.cluster.punctuations_applied). At quiescence
	// batches_sent == punctuations_applied × shards.
	PunctApplied *obs.Counter
}

// NewCluster builds a sharded engine dispatching to one remote shard per
// address (repeat an address to host several shards in one process). The
// connections open lazily on the first Observe; the router hash is
// NewSharded's, so a cluster of N shards sees exactly the sub-batches N
// in-process workers would.
func NewCluster(dict *locdict.Dictionary, rb *rules.RuleBase, cfg Config, addrs []string) (*ShardedEngine, error) {
	if len(addrs) < 1 || len(addrs) > MaxShardWorkers {
		return nil, fmt.Errorf("stream: shard address count %d out of range [1, %d]", len(addrs), MaxShardWorkers)
	}
	addrs = append([]string(nil), addrs...)
	kbSig := cluster.Fingerprint(dict, rb)
	return newSharded(dict, rb, cfg, len(addrs), func(e *ShardedEngine, k int, local *grouping.RouterLocal) shardLink {
		// A restored shard's state ships in the session handshake on first
		// dial, and again after every reconnect until a fresher snapshot
		// replaces it.
		var seed *grouping.LocalPartState
		if local != nil {
			part := grouping.CaptureLocal(local)
			seed = &part
		}
		l := &tcpLink{
			shard: k,
			bySeq: make(map[int]*grouping.Pending),
			c: cluster.NewClient(cluster.ClientConfig{
				Addr:       addrs[k],
				Shard:      k,
				Workers:    e.workers,
				MaxStreams: e.perShard,
				KBSig:      kbSig,
				Config:     cfg.Grouping.Config,
				Metrics:    e.met.Client,
				Logf:       log.Printf,
			}, seed),
		}
		// Every message open in a restored merger can still be named by a
		// future decision. Other shards' members ride along; closed drops
		// them with their groups.
		e.merger.EachOpenPending(func(p *grouping.Pending) { l.bySeq[p.Msg().Seq] = p })
		return l
	})
}

// tcpLink is the cross-process shardLink: a thin adapter over
// cluster.Client, which owns the connection, the replay log and the
// reconnect protocol. The link numbers the batches (one frame out, one
// decision frame back, same sequence) and owns the Seq-delta → record
// resolution, so nothing wire-shaped reaches the core.
type tcpLink struct {
	shard   int
	c       *cluster.Client
	sendSeq uint64 // dispatcher goroutine
	recvSeq uint64 // merge goroutine, like everything below

	// bySeq resolves decision deltas: every message of this shard handed to
	// the merge stage, until its group closes. Bounded by open messages.
	bySeq map[int]*grouping.Pending
	items []shardItem         // result backings, reused by every recv
	rules []*grouping.Pending //
}

// send encodes on the calling goroutine, so the frame is complete before
// the merge stage can recycle any of the records.
func (l *tcpLink) send(b shardBatch) {
	l.sendSeq++
	l.c.SendBatch(l.sendSeq, b.drain, b.msgs)
}

func (l *tcpLink) recv(sub []*grouping.Pending) shardResult {
	l.recvSeq++
	db, ok := <-l.c.Decisions()
	if !ok {
		err := l.c.Err()
		if err == nil {
			err = fmt.Errorf("stream: cluster shard %d: decision stream closed", l.shard)
		}
		return shardResult{err: err}
	}
	defer l.c.Recycle(db)
	switch {
	case db.Seq != l.recvSeq:
		return shardResult{err: fmt.Errorf("stream: cluster shard %d answered batch %d, expected %d", l.shard, db.Seq, l.recvSeq)}
	case db.ShardErr != "":
		return shardResult{err: fmt.Errorf("stream: cluster shard %d: %s", l.shard, db.ShardErr)}
	case len(db.Items) != len(sub):
		return shardResult{err: fmt.Errorf("stream: cluster shard %d answered %d messages of %d", l.shard, len(db.Items), len(sub))}
	}
	l.items, l.rules = l.items[:0], l.rules[:0]
	for i, p := range sub {
		d := db.Items[i]
		seq := p.Msg().Seq
		it := shardItem{rs: int32(len(l.rules))}
		if d.Temporal != 0 {
			if it.temporal = l.bySeq[seq-int(d.Temporal)]; it.temporal == nil {
				return l.desync("temporal", seq-int(d.Temporal), seq)
			}
		}
		for _, rd := range db.Rules[d.RS:d.RE] {
			pred := l.bySeq[seq-int(rd)]
			if pred == nil {
				return l.desync("rule", seq-int(rd), seq)
			}
			l.rules = append(l.rules, pred)
		}
		it.re = int32(len(l.rules))
		l.items = append(l.items, it)
		l.bySeq[seq] = p
	}
	return shardResult{items: l.items, rules: l.rules, stats: db.Stats}
}

// desync reports a delta that names no open message: a protocol fault (the
// closure-horizon invariant says an open group pins every join
// predecessor), so it fails the engine.
func (l *tcpLink) desync(pass string, pred, seq int) shardResult {
	return shardResult{err: fmt.Errorf("stream: cluster decision desync: %s predecessor %d of %d not open", pass, pred, seq)}
}

func (l *tcpLink) closed(cgs []grouping.ClosedGroup) {
	for i := range cgs {
		for j := range cgs[i].Members {
			delete(l.bySeq, cgs[i].Members[j].Seq)
		}
	}
}

func (l *tcpLink) snapshot() (grouping.LocalPartState, error) {
	return l.c.FetchState(stateFetchTimeout)
}

// close drops the connection; session state on the shard dies with it.
func (l *tcpLink) close() { l.c.Close() }

package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/rules"
)

// Fingerprint is a weak structural signature of the grouping knowledge:
// enough to catch a shard pointed at the wrong KB file, cheap enough to
// check on every Hello.
func Fingerprint(dict *locdict.Dictionary, rb *rules.RuleBase) string {
	nr := 0
	if rb != nil {
		nr = rb.Len()
	}
	nl, ns, np := 0, 0, 0
	if dict != nil {
		nl, ns, np = len(dict.Links()), len(dict.Sessions()), len(dict.Paths())
	}
	routers := 0
	if dict != nil {
		routers = dict.Routers()
	}
	return fmt.Sprintf("v1:r%d:l%d:s%d:p%d:rules%d", routers, nl, ns, np, nr)
}

// Hello opens a session.
type Hello struct {
	Shard      int    `json:"shard"`   // shard index, for logs/metrics
	Workers    int    `json:"workers"` // total shard count
	MaxStreams int    `json:"max_streams"`
	KBSig      string `json:"kb_sig"`
	// Config is the grouping configuration the shard builds its
	// RouterLocal from, exactly as an in-process engine would. The
	// knowledge itself (location dictionary, rule base) is not shipped: the
	// shard loads the same KB file and the KBSig check catches a mismatch.
	Config grouping.Config `json:"config"`
	// Restore says a Restore frame follows the Hello: the shard applies it
	// before it answers, so a seed it refuses is a Welcome error.
	Restore bool `json:"restore,omitempty"`
}

// Welcome accepts or rejects a Hello.
type Welcome struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// Restore re-seeds a shard session before a replay: the batch sequence the
// seed reflects (replayed batches follow with higher sequences), the
// connection dictionary's prefix as of the seed snapshot, and the
// RouterLocal part.
type Restore struct {
	BatchSeq uint64
	Dict     []string
	Part     grouping.LocalPartState
}

// BatchHeader is the fixed head of a Batch frame. It carries no
// watermark: a shard's RouterLocal keeps no progress, and the merge stage
// reads the dispatcher's from the batch it already holds.
type BatchHeader struct {
	Seq   uint64
	Drain bool
	Count int
}

// appendBatch appends a Batch frame payload: header, then one message
// record per message (appendMsg) against the connection dictionary.
func appendBatch(b []byte, d *encDict, seq uint64, drain bool, msgs []*grouping.Pending) []byte {
	b = binary.AppendUvarint(b, seq)
	var flags byte
	if drain {
		flags |= 1
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(msgs)))
	var cur msgCursor
	for _, p := range msgs {
		b = appendMsg(b, d, &cur, p.Msg())
	}
	return b
}

// msgCursor holds the delta bases of one frame's message records.
type msgCursor struct{ seq, ns int64 }

// Minimum encoded sizes, which bound a decoded count by the bytes left.
const (
	minLocBytes   = 3  // router, level, name
	minMsgBytes   = 10 // seq, time, router, template, loc, two counts, raw
	minModelBytes = 14 // template, two symbols, 8 EWMA bytes, flags, LastNs, Last
	minWinBytes   = 2  // router, member count
)

// appendMsg appends one message record: Seq and Unix-nanosecond time as
// deltas from the previous record, strings as symbol references, AllLocs
// and Peers with their nil-ness. A batch message and a part-state's pending
// have exactly the same fields, so both travel as this record.
func appendMsg(b []byte, d *encDict, cur *msgCursor, m *grouping.Message) []byte {
	b = binary.AppendVarint(b, int64(m.Seq)-cur.seq)
	cur.seq = int64(m.Seq)
	ns := m.Time.UnixNano()
	b = binary.AppendVarint(b, ns-cur.ns)
	cur.ns = ns
	b = d.appendSym(b, m.Router)
	b = binary.AppendVarint(b, int64(m.Template))
	b = appendLoc(b, d, m.Loc)
	b = appendCount(b, len(m.AllLocs), m.AllLocs == nil)
	for _, loc := range m.AllLocs {
		b = appendLoc(b, d, loc)
	}
	b = appendCount(b, len(m.Peers), m.Peers == nil)
	for _, peer := range m.Peers {
		b = d.appendSym(b, peer)
	}
	return binary.AppendUvarint(b, m.Raw)
}

func appendLoc(b []byte, d *encDict, loc locdict.Location) []byte {
	b = d.appendSym(b, loc.Router)
	b = binary.AppendUvarint(b, uint64(loc.Level))
	return d.appendSym(b, loc.Name)
}

// msgReader decodes message records against a decoding dictionary.
type msgReader struct {
	r   wireReader
	d   *decDict
	cur msgCursor
}

// msg decodes one record into m. Strings alias the dictionary (interned
// once); AllLocs/Peers allocate only when non-empty.
func (mr *msgReader) msg(m *grouping.Message) error {
	ds, err := mr.r.varint()
	if err != nil {
		return err
	}
	mr.cur.seq += ds
	dns, err := mr.r.varint()
	if err != nil {
		return err
	}
	mr.cur.ns += dns
	m.Seq, m.Time = int(mr.cur.seq), time.Unix(0, mr.cur.ns).UTC()
	if m.Router, err = mr.d.readSym(&mr.r); err != nil {
		return err
	}
	tpl, err := mr.r.varint()
	if err != nil {
		return err
	}
	m.Template = int(tpl)
	if m.Loc, err = mr.loc(); err != nil {
		return err
	}
	nl, err := mr.r.count(minLocBytes)
	if err != nil {
		return err
	}
	m.AllLocs = nil
	if nl >= 0 {
		m.AllLocs = make([]locdict.Location, nl)
		for i := range m.AllLocs {
			if m.AllLocs[i], err = mr.loc(); err != nil {
				return err
			}
		}
	}
	np, err := mr.r.count(1)
	if err != nil {
		return err
	}
	m.Peers = nil
	if np >= 0 {
		m.Peers = make([]string, np)
		for i := range m.Peers {
			if m.Peers[i], err = mr.d.readSym(&mr.r); err != nil {
				return err
			}
		}
	}
	m.Raw, err = mr.r.uvarint()
	return err
}

func (mr *msgReader) loc() (locdict.Location, error) {
	var loc locdict.Location
	var err error
	if loc.Router, err = mr.d.readSym(&mr.r); err != nil {
		return loc, err
	}
	lvl, err := mr.r.uvarint()
	if err != nil {
		return loc, err
	}
	loc.Level = locdict.Level(lvl)
	loc.Name, err = mr.d.readSym(&mr.r)
	return loc, err
}

// batchDecoder streams the messages of a Batch payload.
type batchDecoder struct {
	msgReader
	left int
}

// decodeBatch parses the header and positions a decoder at the first
// message. The decoder aliases payload; both are valid until the next
// frame read.
func decodeBatch(payload []byte, d *decDict) (BatchHeader, batchDecoder, error) {
	bd := batchDecoder{msgReader: msgReader{r: wireReader{b: payload}, d: d}}
	var h BatchHeader
	var err error
	if h.Seq, err = bd.r.uvarint(); err != nil {
		return h, bd, err
	}
	flags, err := bd.r.flags(1)
	if err != nil {
		return h, bd, err
	}
	h.Drain = flags&1 != 0
	n, err := bd.r.uvarint()
	if err != nil {
		return h, bd, err
	}
	if n > MaxFrameBytes {
		return h, bd, fmt.Errorf("%w: %d messages", ErrFrameSize, n)
	}
	h.Count = int(n)
	bd.left = h.Count
	return h, bd, nil
}

// next decodes one message into m. Returns false when the batch is
// exhausted.
func (bd *batchDecoder) next(m *grouping.Message) (bool, error) {
	if bd.left == 0 {
		return false, nil
	}
	bd.left--
	if err := bd.msg(m); err != nil {
		return false, err
	}
	return true, nil
}

// DecisionItem is one message's join decisions: the temporal predecessor
// as a Seq delta (0: none) and a range into the batch's rule-delta arena.
type DecisionItem struct {
	Temporal uint64
	RS, RE   int32
}

// DecisionBatch completes one batch: one item per message stepped (a
// prefix of the batch when the shard errored mid-batch), the shard's
// cumulative local stats, and the shard-side error if any. Err is set by
// the client on transport failure; it never crosses the wire.
type DecisionBatch struct {
	Seq      uint64
	Items    []DecisionItem
	Rules    []uint64
	Stats    grouping.LocalStats
	ShardErr string
	Err      error
}

// appendLocalStats appends a local's book, every field as a uvarint in
// declaration order. The Decisions frame and the part body both carry it.
func appendLocalStats(b []byte, ls *grouping.LocalStats) []byte {
	b = binary.AppendUvarint(b, uint64(ls.Streams))
	b = binary.AppendUvarint(b, uint64(ls.Evictions))
	b = binary.AppendUvarint(b, ls.RuleCandidates)
	b = binary.AppendUvarint(b, ls.RulePairs)
	return binary.AppendUvarint(b, ls.UnresolvedLocs)
}

// readLocalStats decodes an appendLocalStats record into ls.
func readLocalStats(r *wireReader, ls *grouping.LocalStats) error {
	var streams, evictions uint64
	for _, f := range [...]*uint64{&streams, &evictions, &ls.RuleCandidates, &ls.RulePairs, &ls.UnresolvedLocs} {
		var err error
		if *f, err = r.uvarint(); err != nil {
			return err
		}
	}
	ls.Streams, ls.Evictions = int(streams), int(evictions)
	return nil
}

// appendDecisions appends a Decisions frame payload.
func appendDecisions(b []byte, seq uint64, items []DecisionItem, ruleArena []uint64, stats grouping.LocalStats, shardErr string) []byte {
	b = binary.AppendUvarint(b, seq)
	b = appendLocalStats(b, &stats)
	b = binary.AppendUvarint(b, uint64(len(shardErr)))
	b = append(b, shardErr...)
	b = binary.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = binary.AppendUvarint(b, it.Temporal)
		b = binary.AppendUvarint(b, uint64(it.RE-it.RS))
		for _, d := range ruleArena[it.RS:it.RE] {
			b = binary.AppendUvarint(b, d)
		}
	}
	return b
}

// decodeDecisions parses a Decisions payload into db, reusing its slices.
func decodeDecisions(payload []byte, db *DecisionBatch) error {
	r := wireReader{b: payload}
	var err error
	if db.Seq, err = r.uvarint(); err != nil {
		return err
	}
	if err := readLocalStats(&r, &db.Stats); err != nil {
		return err
	}
	en, err := r.uvarint()
	if err != nil {
		return err
	}
	eb, err := r.bytes(en)
	if err != nil {
		return err
	}
	db.ShardErr = string(eb)
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n > uint64(len(payload)) {
		return fmt.Errorf("%w: %d items", ErrFrameSize, n)
	}
	db.Items = db.Items[:0]
	db.Rules = db.Rules[:0]
	db.Err = nil
	for i := uint64(0); i < n; i++ {
		var it DecisionItem
		if it.Temporal, err = r.uvarint(); err != nil {
			return err
		}
		nr, err := r.uvarint()
		if err != nil {
			return err
		}
		if nr > uint64(len(payload)) {
			return fmt.Errorf("%w: %d rule joins", ErrFrameSize, nr)
		}
		it.RS = int32(len(db.Rules))
		for j := uint64(0); j < nr; j++ {
			d, err := r.uvarint()
			if err != nil {
				return err
			}
			db.Rules = append(db.Rules, d)
		}
		it.RE = int32(len(db.Rules))
		db.Items = append(db.Items, it)
	}
	return r.done()
}

// appendStateReq / decodeStateReq carry just the request token.
func appendStateReq(b []byte, token uint64) []byte {
	return binary.AppendUvarint(b, token)
}

func decodeStateReq(payload []byte) (uint64, error) {
	r := wireReader{b: payload}
	return r.uvarint()
}

// appendState appends a State payload: the echoed token, then the part.
func appendState(b []byte, token uint64, part *grouping.LocalPartState) []byte {
	b = binary.AppendUvarint(b, token)
	return appendPart(b, part)
}

// decodeState parses a State payload into its token and part. body is the
// encoded part as it lay in payload (aliasing it), ready to be re-sent in a
// Restore frame.
func decodeState(payload []byte) (token uint64, body []byte, part grouping.LocalPartState, err error) {
	r := wireReader{b: payload}
	if token, err = r.uvarint(); err != nil {
		return 0, nil, part, fmt.Errorf("cluster: state payload: %w", err)
	}
	body = r.rest()
	if part, err = decodePart(body); err != nil {
		return 0, nil, part, fmt.Errorf("cluster: state payload: %w", err)
	}
	return token, body, part, nil
}

// appendRestore appends a Restore payload around an encoded part (a State
// body, or appendPart's output).
func appendRestore(b []byte, seq uint64, dict []string, part []byte) []byte {
	b = binary.AppendUvarint(b, seq)
	b = appendCount(b, len(dict), dict == nil)
	for _, s := range dict {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return append(b, part...)
}

// decodeRestore parses a Restore payload.
func decodeRestore(payload []byte) (Restore, error) {
	r := wireReader{b: payload}
	var res Restore
	var err error
	if res.BatchSeq, err = r.uvarint(); err != nil {
		return res, fmt.Errorf("cluster: restore payload: %w", err)
	}
	n, err := r.count(1)
	if err != nil {
		return res, fmt.Errorf("cluster: restore payload: %w", err)
	}
	if n >= 0 {
		res.Dict = make([]string, n)
	}
	for i := range res.Dict {
		ln, err := r.uvarint()
		if err != nil {
			return res, fmt.Errorf("cluster: restore payload: %w", err)
		}
		raw, err := r.bytes(ln)
		if err != nil {
			return res, fmt.Errorf("cluster: restore payload: %w", err)
		}
		res.Dict[i] = string(raw)
	}
	if res.Part, err = decodePart(r.rest()); err != nil {
		return res, fmt.Errorf("cluster: restore payload: %w", err)
	}
	return res, nil
}

// appendPart appends a self-contained part body: the pendings as message
// records, then the local — its book (appendLocalStats), models as template,
// loc-key and router symbols, EWMA bits, flags, LastNs and Last, and
// windows as router plus member indexes. The body carries its own symbol
// table, so the same bytes mean the same part in any session.
func appendPart(b []byte, part *grouping.LocalPartState) []byte {
	d := newEncDict()
	b = appendCount(b, len(part.Pendings), part.Pendings == nil)
	var cur msgCursor
	for i := range part.Pendings {
		ps := &part.Pendings[i]
		m := grouping.Message{
			Seq: ps.Seq, Time: time.Unix(0, ps.TimeNs), Router: ps.Router, Template: ps.Template,
			Loc: ps.Loc, AllLocs: ps.AllLocs, Peers: ps.Peers, Raw: ps.Raw,
		}
		b = appendMsg(b, d, &cur, &m)
	}
	ls := &part.Local
	b = appendLocalStats(b, &ls.LocalStats)
	b = appendCount(b, len(ls.Models), ls.Models == nil)
	var lastNs int64
	for i := range ls.Models {
		ms := &ls.Models[i]
		b = binary.AppendVarint(b, int64(ms.Template))
		b = d.appendSym(b, ms.LocKey)
		b = d.appendSym(b, ms.Router)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ms.Temporal.EwmaValue))
		b = append(b, flagBits(ms.Temporal.EwmaStarted, ms.Temporal.Started))
		b = binary.AppendVarint(b, ms.Temporal.LastNs-lastNs)
		lastNs = ms.Temporal.LastNs
		b = binary.AppendVarint(b, int64(ms.Last))
	}
	b = appendCount(b, len(ls.Windows), ls.Windows == nil)
	for i := range ls.Windows {
		ws := &ls.Windows[i]
		b = d.appendSym(b, ws.Router)
		b = appendCount(b, len(ws.Members), ws.Members == nil)
		var prev int64
		for _, m := range ws.Members {
			b = binary.AppendVarint(b, int64(m)-prev)
			prev = int64(m)
		}
	}
	return b
}

func flagBits(b0, b1 bool) byte {
	var f byte
	if b0 {
		f |= 1
	}
	if b1 {
		f |= 2
	}
	return f
}

// decodePart parses an appendPart body, the whole of body: structure,
// counts, symbol references and flag bits are checked here; whether the
// indexes and keys make a consistent local is RestoreLocal's to judge.
func decodePart(body []byte) (grouping.LocalPartState, error) {
	mr := msgReader{r: wireReader{b: body}, d: &decDict{}}
	r := &mr.r
	var part grouping.LocalPartState
	n, err := r.count(minMsgBytes)
	if err != nil {
		return part, err
	}
	if n >= 0 {
		part.Pendings = make([]grouping.PendingState, n)
	}
	var m grouping.Message
	for i := range part.Pendings {
		if err := mr.msg(&m); err != nil {
			return part, err
		}
		part.Pendings[i] = grouping.PendingState{
			Seq: m.Seq, TimeNs: m.Time.UnixNano(), Router: m.Router, Template: m.Template,
			Loc: m.Loc, AllLocs: m.AllLocs, Peers: m.Peers, Raw: m.Raw,
		}
	}
	ls := &part.Local
	if err := readLocalStats(r, &ls.LocalStats); err != nil {
		return part, err
	}
	if n, err = r.count(minModelBytes); err != nil {
		return part, err
	}
	if n >= 0 {
		ls.Models = make([]grouping.ModelState, n)
	}
	var lastNs int64
	for i := range ls.Models {
		ms := &ls.Models[i]
		tpl, err := r.varint()
		if err != nil {
			return part, err
		}
		ms.Template = int(tpl)
		if ms.LocKey, err = mr.d.readSym(r); err != nil {
			return part, err
		}
		if ms.Router, err = mr.d.readSym(r); err != nil {
			return part, err
		}
		bits, err := r.u64()
		if err != nil {
			return part, err
		}
		ms.Temporal.EwmaValue = math.Float64frombits(bits)
		f, err := r.flags(3)
		if err != nil {
			return part, err
		}
		ms.Temporal.EwmaStarted, ms.Temporal.Started = f&1 != 0, f&2 != 0
		dns, err := r.varint()
		if err != nil {
			return part, err
		}
		lastNs += dns
		ms.Temporal.LastNs = lastNs
		last, err := r.varint()
		if err != nil {
			return part, err
		}
		ms.Last = int(last)
	}
	if n, err = r.count(minWinBytes); err != nil {
		return part, err
	}
	if n >= 0 {
		ls.Windows = make([]grouping.WindowState, n)
	}
	for i := range ls.Windows {
		ws := &ls.Windows[i]
		if ws.Router, err = mr.d.readSym(r); err != nil {
			return part, err
		}
		nm, err := r.count(1)
		if err != nil {
			return part, err
		}
		if nm >= 0 {
			ws.Members = make([]int, nm)
		}
		var prev int64
		for j := range ws.Members {
			dm, err := r.varint()
			if err != nil {
				return part, err
			}
			prev += dm
			ws.Members[j] = int(prev)
		}
	}
	return part, r.done()
}

// marshalJSONFrame / unmarshalJSONFrame wrap the handshake payloads, the
// only JSON on the wire.
func marshalJSONFrame(v any) ([]byte, error) { return json.Marshal(v) }

func unmarshalJSONFrame(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("cluster: control payload: %w", err)
	}
	return nil
}

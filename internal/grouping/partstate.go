// Single-shard snapshots for cluster mode (PR 10).
//
// A remote shard process holds one RouterLocal and nothing else: no merger,
// no shared pending pool. LocalPartState is therefore a *self-contained*
// snapshot of one local — its own dense pending table plus the LocalState
// that indexes into it — so it can cross a process boundary alone. The
// traversal order inside one local (models in LRU order, then windows
// sorted by router) is exactly the order CaptureParts uses, which is what
// lets CaptureRemoteParts stitch per-shard snapshots back into an IncState
// byte-identical to an in-process CaptureParts of the same logical state.
package grouping

import (
	"fmt"

	"syslogdigest/internal/checkpoint"
)

// LocalPartState is a self-contained snapshot of one RouterLocal: a private
// pending table plus the local structure referring into it. JSON-encodable
// (it reuses the checkpoint types), dictionary-free.
type LocalPartState struct {
	Pendings []PendingState `json:"pendings"`
	Local    LocalState     `json:"local"`
}

// CaptureLocal snapshots one RouterLocal into a self-contained part. The
// caller must hold the local quiescent (no concurrent Step).
func CaptureLocal(rl *RouterLocal) LocalPartState {
	x := &pendingIndexer{idx: make(map[*Pending]int)}
	ls := captureLocal(x, rl)
	return LocalPartState{Pendings: x.pool, Local: ls}
}

// RestoreLocal rebuilds one RouterLocal from a self-contained part.
// maxStreams caps the model table (<= 0: the Shardable bound). The restored
// records are GC-managed and carry no group identity — a remote local never
// reads group state, so every record restores as a closed singleton.
func (s *Shardable) RestoreLocal(st LocalPartState, maxStreams int) (*RouterLocal, error) {
	ps, err := materializePendings(st.Pendings)
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		p.grp.closed = true
		p.g = &p.grp
	}
	at := indexAccessor(ps)
	rl := s.NewLocal(maxStreams)
	for _, ms := range st.Local.Models {
		if err := s.restoreModel(rl, ms, at); err != nil {
			return nil, err
		}
	}
	for _, ws := range st.Local.Windows {
		if err := restoreWindow(rl, ws, at); err != nil {
			return nil, err
		}
	}
	rl.started = st.Local.Started
	rl.watermark = checkpoint.NsTime(st.Local.WatermarkNs)
	rl.tally.Evictions = st.Local.Evictions
	rl.tally.RuleCandidates = st.Local.RuleCandidates
	rl.tally.RulePairs = st.Local.RulePairs
	rl.tally.UnresolvedLocs = st.Local.UnresolvedLocs
	for _, p := range ps {
		p.unref() // drop the materialization reference (see RestoreParts)
	}
	return rl, nil
}

// CaptureRemoteParts stitches a local merger and per-shard remote snapshots
// into one IncState. The result is byte-identical to what CaptureParts
// would produce on an in-process engine in the same logical state: the
// merger traversal assigns the first indexes, and each part's records are
// matched to already-indexed pendings by Seq (sequence numbers are unique
// for the life of an engine) or appended in the part's own traversal order
// — the same order CaptureParts visits them in.
func CaptureRemoteParts(mg *Merger, parts []LocalPartState) (IncState, error) {
	x := &pendingIndexer{idx: make(map[*Pending]int)}
	st := IncState{Pendings: []PendingState{}}
	st.Merger = captureMerger(x, mg)
	bySeq := make(map[int]int, len(x.pool))
	for i := range x.pool {
		bySeq[x.pool[i].Seq] = i
	}
	st.Locals = make([]LocalState, len(parts))
	for li, part := range parts {
		seen := make([]int, len(part.Pendings))
		for i := range seen {
			seen[i] = -1
		}
		global := func(idx int) (int, error) {
			if idx < 0 || idx >= len(part.Pendings) {
				return 0, fmt.Errorf("grouping: remote capture: shard %d pending index %d out of range [0, %d)",
					li, idx, len(part.Pendings))
			}
			if g := seen[idx]; g >= 0 {
				return g, nil
			}
			ps := part.Pendings[idx]
			g, ok := bySeq[ps.Seq]
			if !ok {
				g = len(x.pool)
				x.pool = append(x.pool, ps)
				bySeq[ps.Seq] = g
			}
			seen[idx] = g
			return g, nil
		}
		ls := part.Local
		ls.Models = make([]ModelState, len(part.Local.Models))
		for i, ms := range part.Local.Models {
			if ms.Last >= 0 {
				g, err := global(ms.Last)
				if err != nil {
					return IncState{}, err
				}
				ms.Last = g
			}
			ls.Models[i] = ms
		}
		ls.Windows = make([]WindowState, len(part.Local.Windows))
		for i, ws := range part.Local.Windows {
			members := make([]int, len(ws.Members))
			for j, wi := range ws.Members {
				g, err := global(wi)
				if err != nil {
					return IncState{}, err
				}
				members[j] = g
			}
			ws.Members = members
			ls.Windows[i] = ws
		}
		st.Locals[li] = ls
	}
	st.Pendings = x.pool
	return st, nil
}

// Release drops the caller's pipeline reference. A remote shard host steps
// a record through its RouterLocal and then has no Merger to consume the
// reference the way Apply does; releasing it leaves exactly the structural
// references the local holds (model last-message, ring slots), so pooled
// records recycle once those expire.
func (p *Pending) Release() { p.unref() }

// EachOpenPending visits every member of every open group, in closure-list
// then member order. The cluster merge loop uses it to rebuild its
// Seq-resolution table after a restore: the closure-horizon invariant (see
// pool.go) guarantees any join decision still in flight references a member
// of a still-open group.
func (mg *Merger) EachOpenPending(f func(*Pending)) {
	for g := mg.oHead; g != nil; g = g.next {
		for _, m := range g.members {
			f(m)
		}
	}
}

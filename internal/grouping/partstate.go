// Single-shard snapshots: the one capture path of every engine shape
// (serial, sharded and cluster engines all capture the same way).
//
// A remote shard process holds one RouterLocal and nothing else: no merger,
// no shared pending pool. LocalPartState is therefore a *self-contained*
// snapshot of one local — its own dense pending table plus the LocalState
// that indexes into it — so it can cross a process boundary alone. The
// traversal order inside one local (models in LRU order, then windows
// sorted by router) is the checkpoint traversal's (see checkpoint.go), which
// is what lets CaptureParts stitch the merger and the parts, wherever each
// local runs, into the IncState that traversal defines.
package grouping

import "fmt"

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

// RestoreLocal rebuilds one RouterLocal from a self-contained part, as the
// one-local IncState with an empty merger (see RestoreParts). Every record
// restores as a closed singleton: a remote local never reads group state.
func (s *Shardable) RestoreLocal(part LocalPartState, maxStreams int) (*RouterLocal, error) {
	locals, _, err := s.RestoreParts(IncState{Pendings: part.Pendings, Locals: []LocalState{part.Local}}, 1, maxStreams, nil)
	if err != nil {
		return nil, err
	}
	return locals[0], nil
}

// CaptureParts stitches a merger and its locals' self-contained parts
// (CaptureLocal, one per local in shard order) into one IncState: the
// merger traversal assigns the first indexes, and each part's records are
// matched to already-indexed pendings by Seq (sequence numbers are unique
// for the life of an engine) or appended in the part's own traversal order.
// The result is the checkpoint traversal of the whole engine, byte for byte.
// The caller must hold the merger quiescent (no concurrent Apply).
func CaptureParts(mg *Merger, parts []LocalPartState) (IncState, error) {
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
				return 0, fmt.Errorf("grouping: capture: shard %d pending index %d out of range [0, %d)",
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

// Package template implements the paper's message-template learning
// (§4.1.1) and online signature matching.
//
// Router syslog messages carry an error code ("LINK-3-UPDOWN") but each code
// hides multiple sub types: Table 3's twenty BGP-5-ADJCHANGE messages reduce
// to the five masked structures of Table 4. The learner discovers those sub
// types without vendor knowledge:
//
//  1. decompose each message's detail into whitespace-separated words and
//     mask words denoting specific locations or measurements (IP addresses,
//     interface names, port paths, numbers — see textutil);
//  2. for each error code, build a sub-type tree by breadth-first
//     refinement: given a node's messages, repeatedly take the most frequent
//     word among not-yet-covered messages, make the messages containing it a
//     child whose signature is their common word pattern, and recurse into
//     children on the leftover (residual) words;
//  3. prune: a node with more than K children discards them all and becomes
//     a leaf itself (the paper uses K=10 — "no message type has more than 10
//     sub types"); this is also the safety net that absorbs variable words
//     the masker missed, since those explode into many children;
//  4. each root→leaf path becomes one template: the ordered common word
//     pattern of the leaf's messages, with gaps shown as "*".
//
// Matching (online "signature matching") tests whether a template's literal
// words appear in order in a message; the most specific matching template —
// most literal words — wins.
package template

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"syslogdigest/internal/obs"
	"syslogdigest/internal/par"
	"syslogdigest/internal/syslogmsg"
	"syslogdigest/internal/textutil"
)

// Template is one learned message template: an error code plus an ordered
// word pattern in which "*" (possibly carrying punctuation, e.g. "*,")
// stands for a masked high-variability word.
type Template struct {
	ID    int
	Code  string
	Words []string
}

// String renders the template in the paper's style:
// "LINK-3-UPDOWN Interface *, changed state to down".
func (t Template) String() string {
	return t.Code + " " + strings.Join(t.Words, " ")
}

// Literals returns the non-wildcard words of the pattern, in order.
func (t Template) Literals() []string {
	out := make([]string, 0, len(t.Words))
	for _, w := range t.Words {
		if !IsWildcard(w) {
			out = append(out, w)
		}
	}
	return out
}

// Equal reports whether two templates describe the same pattern (same code
// and same word sequence).
func (t Template) Equal(o Template) bool {
	if t.Code != o.Code || len(t.Words) != len(o.Words) {
		return false
	}
	for i := range t.Words {
		if t.Words[i] != o.Words[i] {
			return false
		}
	}
	return true
}

// IsWildcard reports whether a pattern word is a mask (its punctuation-
// trimmed core is the mask rune), e.g. "*", "*,", "(*)".
func IsWildcard(w string) bool {
	core, _, _ := textutil.TrimWord(w)
	return core == textutil.Mask
}

// Options tunes learning.
type Options struct {
	// K is the child limit before pruning; 0 means the paper's default 10.
	K int
	// MaxDepth bounds tree depth as a safety net; 0 means 12.
	MaxDepth int
	// NoPreMask disables location masking before learning. Only ablation
	// experiments set this; production learning always masks.
	NoPreMask bool
	// MinChildFraction is the minimum share of the error code's messages a
	// sub type must cover to be split off; words rarer than this are
	// treated as variable values, not sub-type markers ("usually there
	// would be many more messages associated with each sub type"). The
	// threshold is anchored to the whole code's corpus, not the current
	// tree node, so recursing into leftovers cannot ratchet it down and
	// re-split value noise. 0 means 1/K.
	MinChildFraction float64
	// MinChildCount is the absolute floor on child support; 0 means 2.
	MinChildCount int
	// Pool bounds learning's worker fan-out (chunked tokenization, one
	// sub-type tree per error code). Nil means a default pool at
	// GOMAXPROCS; a one-worker pool forces the serial path. Output is
	// byte-identical at any worker count. Runtime knob only — it is not
	// part of the learned knowledge and is never serialized.
	Pool *par.Pool
}

func (o *Options) normalize() {
	if o.K <= 0 {
		o.K = 10
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 12
	}
	if o.MinChildFraction <= 0 {
		o.MinChildFraction = 1 / float64(o.K)
	}
	if o.MinChildCount <= 0 {
		o.MinChildCount = 2
	}
	if o.Pool == nil {
		o.Pool = par.New(0)
	}
}

// Learn builds templates from a historical message corpus. Output order is
// deterministic: codes sorted lexicographically, leaves in construction
// order; IDs are assigned sequentially from 0.
//
// Router syslog repeats itself, so learning reads each distinct (code,
// detail) once: it counts them in order of first appearance, tokenizes and
// masks only the distinct details, and hands each code's sub-type tree one
// entry per distinct detail, weighted by its message count. Masking is a
// pure function of the detail, so each masked structure first appears with
// the earliest detail that masks to it, at the same point in the message
// order as if every message were read. Learning fans out over opt.Pool —
// tokenization/masking in chunks, then one sub-type tree per error code —
// and is byte-identical to the serial path at any worker count (each unit
// is independent; collection is index-ordered and ID assignment stays
// sequential).
func Learn(msgs []syslogmsg.Message, opt Options) []Template {
	opt.normalize()
	details := countDetails(msgs)
	_ = opt.Pool.Chunks(len(details), func(lo, hi int) error {
		for j := lo; j < hi; j++ {
			ts := textutil.Tokenize(details[j].detail)
			if !opt.NoPreMask {
				ts = textutil.MaskTokens(ts)
			}
			details[j].tokens = ts
		}
		return nil
	})
	byCode := make(map[string][]uniqueSeq)
	for j := range details {
		byCode[details[j].code] = append(byCode[details[j].code], details[j].uniqueSeq)
	}
	codes := make([]string, 0, len(byCode))
	for c := range byCode {
		codes = append(codes, c)
	}
	sort.Strings(codes)

	perCode, _ := par.Map(opt.Pool, len(codes), func(i int) ([][]string, error) {
		return learnCode(byCode[codes[i]], opt), nil
	})
	var out []Template
	for ci, patterns := range perCode {
		for _, words := range patterns {
			out = append(out, Template{ID: len(out), Code: codes[ci], Words: words})
		}
	}
	return out
}

// distinctDetail is one distinct (code, detail) pair of a corpus: its
// index hash, and its word sequence (tokenized once counting is done)
// weighted by its number of messages.
type distinctDetail struct {
	code, detail string
	hash         uint64
	uniqueSeq
}

// countDetails returns a corpus's distinct (code, detail) pairs in order of
// first appearance, each with its number of messages. The index is an
// open-addressing table of more than twice as many slots as messages,
// allocated once: it never grows, so a corpus of nearly all-distinct
// details (a message storm) rehashes no string, and a corpus repeated over
// and over allocates no more than the corpus once.
func countDetails(msgs []syslogmsg.Message) []distinctDetail {
	seed := maphash.MakeSeed()
	mask := uint64(1)<<bits.Len(uint(2*len(msgs))) - 1
	slots := make([]int32, mask+1) // 1 + an index into out; 0 is free
	var out []distinctDetail
	for i := range msgs {
		m := &msgs[i]
		h := maphash.String(seed, m.Detail) ^ maphash.String(seed, m.Code)*0x9e3779b97f4a7c15
		for s := h & mask; ; s = (s + 1) & mask {
			j := slots[s] - 1
			if j < 0 {
				slots[s] = int32(len(out)) + 1
				out = append(out, distinctDetail{code: m.Code, detail: m.Detail, hash: h, uniqueSeq: uniqueSeq{count: 1}})
				break
			}
			if d := &out[j]; d.hash == h && d.detail == m.Detail && d.code == m.Code {
				d.count++
				break
			}
		}
	}
	return out
}

// uniqueSeq is one distinct word sequence and how many raw messages
// collapse onto it. Learning operates on unique sequences weighted by
// count, which keeps the tree algorithms independent of corpus size.
type uniqueSeq struct {
	tokens []string
	count  int
}

// learnCode learns the sub-type patterns for one error code from its
// distinct details, tokenized (and masked) and weighted by message count,
// in order of first appearance.
func learnCode(details []uniqueSeq, opt Options) [][]string {
	uniq := make(map[string]*uniqueSeq)
	var order []string
	for _, d := range details {
		key := strings.Join(d.tokens, "\x00")
		if u := uniq[key]; u != nil {
			u.count += d.count
		} else {
			uniq[key] = &uniqueSeq{tokens: d.tokens, count: d.count}
			order = append(order, key)
		}
	}
	seqs := make([]*uniqueSeq, len(order))
	for i, k := range order {
		seqs[i] = uniq[k]
	}

	// residuals[i] tracks seq i's not-yet-consumed words as we descend.
	residuals := make([][]string, len(seqs))
	for i, s := range seqs {
		residuals[i] = s.tokens
	}
	idx := make([]int, len(seqs))
	totalWeight := 0
	for i := range idx {
		idx[i] = i
		totalWeight += seqs[i].count
	}
	minSup := int(opt.MinChildFraction * float64(totalWeight))
	if minSup < opt.MinChildCount {
		minSup = opt.MinChildCount
	}

	var leaves [][]int
	buildTree(seqs, residuals, idx, opt, minSup, 0, &leaves)

	patterns := make([][]string, 0, len(leaves))
	seen := make(map[string]bool)
	for _, leaf := range leaves {
		group := make([][]string, len(leaf))
		for i, j := range leaf {
			group[i] = seqs[j].tokens
		}
		p := leafPattern(group)
		key := strings.Join(p, "\x00")
		if !seen[key] {
			seen[key] = true
			patterns = append(patterns, p)
		}
	}
	return patterns
}

// buildTree recursively partitions idx (indices into seqs) and appends leaf
// groups to leaves. residuals is indexed by sequence index and mutated as
// signatures are consumed.
func buildTree(seqs []*uniqueSeq, residuals [][]string, idx []int, opt Options, minSup, depth int, leaves *[][]int) {
	if len(idx) == 0 {
		return
	}
	if depth >= opt.MaxDepth {
		*leaves = append(*leaves, idx)
		return
	}
	// A node whose members have no unmasked residual words left is a leaf.
	if !anyLiteralResidual(residuals, idx) {
		*leaves = append(*leaves, idx)
		return
	}

	children := partition(seqs, residuals, idx, minSup)
	if len(children) > opt.K || len(children) == 0 {
		// Prune: too many sub structures means we are looking at a variable
		// word; the parent itself becomes the template.
		*leaves = append(*leaves, idx)
		return
	}
	if len(children) == 1 && !children[0].progressed && sameSet(children[0].idx, idx) {
		// Nothing split off and no signature consumed: the node's residual
		// words are all below the support threshold — variable values, not
		// sub types. The node is a leaf.
		*leaves = append(*leaves, idx)
		return
	}
	for _, child := range children {
		buildTree(seqs, residuals, child.idx, opt, minSup, depth+1, leaves)
	}
}

// childSet is one partition output: the member indices and whether a
// signature was consumed from their residuals (guaranteeing progress).
type childSet struct {
	idx        []int
	progressed bool
}

// partition implements one round of the paper's child construction: pick the
// most frequent literal word among the pool's residuals, split off the
// members containing it, consume their common residual pattern, repeat on
// the remainder. A word below minSup — the corpus-anchored support
// threshold — is a variable value rather than a sub type, so the remaining
// members pool into one unprogressed child, which the caller turns into a
// leaf.
func partition(seqs []*uniqueSeq, residuals [][]string, idx []int, minSup int) []childSet {
	pool := append([]int(nil), idx...)
	var children []childSet
	for len(pool) > 0 {
		// Weighted frequency of each literal residual word (counted once
		// per member).
		freq := make(map[string]int)
		for _, i := range pool {
			seen := make(map[string]bool)
			for _, w := range residuals[i] {
				if IsWildcard(w) || seen[w] {
					continue
				}
				seen[w] = true
				freq[w] += seqs[i].count
			}
		}
		best, bestN := "", -1
		for w, n := range freq {
			if n > bestN || (n == bestN && w < best) {
				best, bestN = w, n
			}
		}
		if bestN < minSup {
			// Leftovers share no word frequent enough to mark a sub type.
			children = append(children, childSet{idx: pool})
			break
		}
		var member, rest []int
		for _, i := range pool {
			if containsWord(residuals[i], best) {
				member = append(member, i)
			} else {
				rest = append(rest, i)
			}
		}
		// The child's signature is the common residual pattern of its
		// members; consume it from their residuals.
		sig := commonSubsequence(collect(residuals, member))
		sig = literalOnly(sig)
		for _, i := range member {
			residuals[i] = removeSubsequence(residuals[i], sig)
		}
		children = append(children, childSet{idx: member, progressed: len(sig) > 0})
		pool = rest
	}
	return children
}

func collect(residuals [][]string, idx []int) [][]string {
	out := make([][]string, len(idx))
	for i, j := range idx {
		out[i] = residuals[j]
	}
	return out
}

func literalOnly(ws []string) []string {
	out := ws[:0:0]
	for _, w := range ws {
		if !IsWildcard(w) {
			out = append(out, w)
		}
	}
	return out
}

func anyLiteralResidual(residuals [][]string, idx []int) bool {
	for _, i := range idx {
		for _, w := range residuals[i] {
			if !IsWildcard(w) {
				return true
			}
		}
	}
	return false
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int]bool, len(a))
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}

func containsWord(seq []string, w string) bool {
	for _, x := range seq {
		if x == w {
			return true
		}
	}
	return false
}

// lcs returns the longest common subsequence of two token sequences.
func lcs(a, b []string) []string {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return nil
	}
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	out := make([]string, 0, dp[0][0])
	for i, j := 0, 0; i < n && j < m; {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case dp[i+1][j] >= dp[i][j+1]:
			i++
		default:
			j++
		}
	}
	return out
}

// commonSubsequence folds lcs over a group of sequences.
func commonSubsequence(seqs [][]string) []string {
	if len(seqs) == 0 {
		return nil
	}
	p := seqs[0]
	for _, s := range seqs[1:] {
		if len(p) == 0 {
			return nil
		}
		p = lcs(p, s)
	}
	return p
}

// removeSubsequence removes one occurrence of each sub word from seq, in
// order (the greedy inverse of subsequence matching). Words of sub missing
// from seq are skipped.
func removeSubsequence(seq, sub []string) []string {
	if len(sub) == 0 {
		return seq
	}
	out := make([]string, 0, len(seq))
	k := 0
	for _, w := range seq {
		if k < len(sub) && w == sub[k] {
			k++
			continue
		}
		out = append(out, w)
	}
	return out
}

// leafPattern renders a leaf's template: the common subsequence of its
// messages' full masked token sequences, with gaps (words present in the
// reference message but not common) shown as single "*" entries.
func leafPattern(group [][]string) []string {
	common := commonSubsequence(group)
	ref := group[0]
	out := make([]string, 0, len(ref))
	k := 0
	gap := false
	for _, w := range ref {
		if k < len(common) && w == common[k] {
			out = append(out, w)
			k++
			gap = false
		} else if !gap {
			out = append(out, textutil.Mask)
			gap = true
		}
	}
	// Collapse adjacent wildcard-ish entries ("*," followed by "*").
	collapsed := out[:0:0]
	for _, w := range out {
		if IsWildcard(w) && len(collapsed) > 0 && IsWildcard(collapsed[len(collapsed)-1]) {
			continue
		}
		collapsed = append(collapsed, w)
	}
	return collapsed
}

// Matcher performs online signature matching: message → template. It is
// immutable after NewMatcher (Instrument excepted, which must run before
// matching starts) and safe for concurrent use.
//
// Internally the matcher is an interned-symbol engine. NewMatcher builds a
// string intern pool mapping every literal word appearing in any template to
// a dense int32 symbol; message tokens are resolved through the pool once per
// match, so ordered-containment tests compare integers instead of strings,
// and a token absent from the pool (symbol -1) can never equal a literal —
// unknown words reject for free. Each error code's templates are scanned
// most-specific-first, and every template carries its most discriminating
// literal (the one occurring in the fewest templates of that code): a
// template whose discriminating literal is absent from the message is
// skipped before any containment test. The learner's k = 10 degree prune
// keeps a code to a handful of templates, so one ordered scan is all a
// code needs. The first hit is the same template a linear string scan
// returns; the differential tests, which keep that scan as their
// reference, assert exactly that.
type Matcher struct {
	byCode map[string][]matchEntry // per code, most-specific-first
	pool   map[string]int32        // literal word → dense symbol
	// prefilter[b] has bit l set when some pool word starts with byte b and
	// has length l (capped at 63). Most message tokens are masked values —
	// interface names, addresses, numbers — that appear in no template, and
	// this one-load test lets them resolve to noSym without hashing.
	prefilter [256]uint64
	// scanned counts candidate templates actually tested for ordered
	// containment (digest.match.candidates_scanned); nil until Instrument.
	scanned *obs.Counter
	scratch sync.Pool // *matchScratch
}

// noSym marks a message token absent from the intern pool. Literal symbols
// are all >= 0, so a noSym token can never satisfy a literal comparison.
const noSym int32 = -1

// matchEntry is one indexed template with its literal words precomputed —
// both as strings (their count orders the scan most-specific-first) and as
// interned symbols (for the hot path). Match is the hottest call in the
// online pipeline, so all per-template work is paid once at index build
// instead of per message.
type matchEntry struct {
	t    Template
	lits []string
	syms []int32 // lits resolved through the intern pool, in order
	// rarest is the discriminating literal: the literal occurring in the
	// fewest of this code's templates, ties broken by pattern order; noSym
	// when the template has no literals (matches anything). A message not
	// containing this symbol cannot match the template, which prunes the
	// candidate scan before any containment test.
	rarest int32
}

// matchScratch is the per-call working memory of MatchTokens, pooled so the
// steady-state match path allocates nothing.
type matchScratch struct {
	syms []int32
}

// NewMatcher indexes templates for matching. Within each code, templates are
// ordered most-specific-first so Match can return the first hit.
func NewMatcher(templates []Template) *Matcher {
	m := &Matcher{
		byCode: make(map[string][]matchEntry),
		pool:   make(map[string]int32),
	}
	m.scratch.New = func() any { return &matchScratch{} }
	for _, t := range templates {
		lits := t.Literals()
		e := matchEntry{t: t, lits: lits, syms: make([]int32, len(lits))}
		for i, w := range lits {
			s, ok := m.pool[w]
			if !ok {
				s = int32(len(m.pool))
				m.pool[w] = s
				m.prefilter[w[0]] |= 1 << lenBit(w)
			}
			e.syms[i] = s
		}
		m.byCode[t.Code] = append(m.byCode[t.Code], e)
	}
	for _, ts := range m.byCode {
		sort.SliceStable(ts, func(i, j int) bool {
			si, sj := len(ts[i].lits), len(ts[j].lits)
			if si != sj {
				return si > sj
			}
			return ts[i].t.ID < ts[j].t.ID
		})
		rankLiterals(ts)
	}
	return m
}

// rankLiterals computes the discriminating literal of each of one code's
// entries.
func rankLiterals(entries []matchEntry) {
	// Document frequency of each symbol within this code (counted once per
	// entry).
	freq := make(map[int32]int)
	for i := range entries {
		e := &entries[i]
		for j, s := range e.syms {
			if !containsSymBefore(e.syms, s, j) {
				freq[s]++
			}
		}
	}
	for i := range entries {
		e := &entries[i]
		e.rarest = noSym
		if len(e.syms) == 0 {
			continue
		}
		rarest, best := e.syms[0], freq[e.syms[0]]
		for _, s := range e.syms[1:] {
			if n := freq[s]; n < best {
				rarest, best = s, n
			}
		}
		e.rarest = rarest
	}
}

// lenBit maps a word length onto a prefilter bit, capping long words at 63.
func lenBit(w string) uint {
	if len(w) >= 63 {
		return 63
	}
	return uint(len(w))
}

// containsSymBefore reports whether s occurs in syms[:end].
func containsSymBefore(syms []int32, s int32, end int) bool {
	for _, x := range syms[:end] {
		if x == s {
			return true
		}
	}
	return false
}

// Instrument publishes the matcher's candidate-scan counter
// (digest.match.candidates_scanned) into reg. Call before matching begins;
// a nil registry leaves the matcher uninstrumented.
func (m *Matcher) Instrument(reg *obs.Registry) {
	m.scanned = reg.Counter("digest.match.candidates_scanned")
}

// Match finds the most specific template whose literal words appear in order
// in the message detail. ok is false when no template of the message's code
// matches.
func (m *Matcher) Match(code, detail string) (Template, bool) {
	if len(m.byCode[code]) == 0 {
		return Template{}, false
	}
	return m.MatchTokens(code, textutil.Tokenize(detail))
}

// MatchTokens is Match over a pre-tokenized detail, letting callers that
// also location-parse the message tokenize it once and share the slice.
// Results are byte-identical to a linear string scan at a fraction of the
// comparisons; the steady-state path allocates nothing.
func (m *Matcher) MatchTokens(code string, toks []string) (Template, bool) {
	entries := m.byCode[code]
	if len(entries) == 0 {
		return Template{}, false
	}
	sc := m.scratch.Get().(*matchScratch)
	syms := sc.syms[:0]
	for _, w := range toks {
		s := noSym
		if len(w) > 0 && m.prefilter[w[0]]&(1<<lenBit(w)) != 0 {
			if ps, ok := m.pool[w]; ok {
				s = ps
			}
		}
		syms = append(syms, s)
	}

	var (
		hit     Template
		ok      bool
		scanned int
	)
	for i := range entries {
		e := &entries[i]
		if e.rarest != noSym && !containsSym(syms, e.rarest) {
			continue
		}
		scanned++
		if matchesSymbols(e.syms, syms) {
			hit, ok = e.t, true
			break
		}
	}
	m.scanned.Add(uint64(scanned))
	sc.syms = syms
	m.scratch.Put(sc)
	return hit, ok
}

// containsSym reports whether s occurs in syms.
func containsSym(syms []int32, s int32) bool {
	for _, x := range syms {
		if x == s {
			return true
		}
	}
	return false
}

// matchesSymbols tests ordered containment of the literal symbols in a
// message's symbols. Unknown message tokens are noSym (-1), which never
// equals a literal symbol, so they are skipped implicitly.
func matchesSymbols(lits, syms []int32) bool {
	k := 0
	for _, s := range syms {
		if k < len(lits) && s == lits[k] {
			k++
		}
	}
	return k == len(lits)
}

// FractionMatching is an accuracy helper used by the §5.2.1 evaluation: the
// fraction of `truth` templates for which some learned template is Equal.
func FractionMatching(learned, truth []Template) float64 {
	if len(truth) == 0 {
		return 0
	}
	n := 0
	for _, g := range truth {
		for _, l := range learned {
			if l.Equal(g) {
				n++
				break
			}
		}
	}
	return float64(n) / float64(len(truth))
}

// MustTemplate builds a Template from its display form, for tests and
// ground-truth tables: "LINK-3-UPDOWN|Interface *, changed state to down".
func MustTemplate(id int, s string) Template {
	i := strings.IndexByte(s, '|')
	if i < 0 {
		panic(fmt.Sprintf("template: MustTemplate input %q has no '|'", s))
	}
	return Template{ID: id, Code: s[:i], Words: textutil.Tokenize(s[i+1:])}
}
